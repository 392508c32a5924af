"""Command-line entry point and the plain-text instance format.

Instance files are line-oriented and diff-friendly::

    semiring tropical
    matrix 2 2
    1 2
    0 0
    vector 2
    0 inf

The vector block is optional (normalize treats a missing vector as zero),
except after a zero-column matrix, whose row count only the vector backs.
Exit codes: 0 for a positive or inconclusive answer, 1 for a certified
negative one (refutation / ill-posed / no-solution / not-extendable), 2 for
usage or parse errors, 3 for internal invariant violations or suite failures.
Answers are printed as the solver returns them: it has already checked each
one against the instance's (A, b) and raises InternalInvariantError (exit 3)
on a failed check.  Identical argv (and seed) produce byte-identical reports.
Each command builds one list of (key, label, value) fields, which ``_report``
renders as text or kv; ``tests/golden_reports.json`` pins the bytes of both.
"""

from __future__ import annotations

import re
import sys
from typing import Optional, Sequence

from .classify import (
    DichotomyReport,
    ExhaustiveReport,
    boolean_exhaustive_check,
    classify,
    randomized_dichotomy_suite,
)
from .errors import (
    InternalInvariantError,
    ParseError,
    ToolkitError,
)
from .matrices import (
    ColVec,
    Matrix,
    is_column_stochastic,
    is_row_stochastic,
    normalize,
    zeros_col,
)
from .semirings import _CARRIERS, Payload, SemiringTag, descriptor, format_element
from .solver import (
    SolveKind,
    extend_functional,
    membership_certified,
)

USAGE = """\
usage: semilin <command> [options]

commands:
  solve <file>             decide b in right-im A, with certificate
  witness <file>           print a kernel-pair certificate, or report membership
  normalize <file>         column-stochastic normal form (vector optional)
  extend <file>            extend the functional given on the rows of the matrix
  classify <semiring>      left-exactness verdict for a built-in carrier
  verify boolean [--max-dim K]            exhaustive sweep of small systems
  verify <semiring> [--trials N --seed S] randomized dichotomy suite

options:
  --format text|kv         report style (default text)
  --trials N               randomized suite size (default 1000)
  --seed S                 randomized suite seed (default 42)
  --max-dim K              exhaustive sweep bound (default 3)\
"""


class _UsageError(Exception):
    pass


# --- instance format ----------------------------------------------------------


def _decimal(token: str, signed: bool = False) -> int:
    """ASCII digits only, after an optional '-' when signed; int() would also
    take '+', '_' and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+" if signed else r"[0-9]+", token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_instance(text: str) -> tuple[SemiringTag, Matrix, Optional[ColVec]]:
    """Parse an instance file; errors carry the offending line number."""
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, expected {expected}")
        no, line = lines[pos]
        pos += 1
        return no, line.split()

    no, tokens = take("a 'semiring <tag>' line")
    if len(tokens) != 2 or tokens[0] != "semiring":
        raise ParseError("expected 'semiring <tag>'", no)
    try:
        tag = SemiringTag(tokens[1])
    except ValueError:
        raise ParseError(f"unknown semiring {tokens[1]!r}", no) from None

    no, tokens = take("a 'matrix <d> <n>' line")
    if len(tokens) != 3 or tokens[0] != "matrix":
        raise ParseError("expected 'matrix <d> <n>'", no)
    try:
        d, n = _decimal(tokens[1]), _decimal(tokens[2])
    except ValueError:
        raise ParseError("matrix dimensions must be unsigned integers", no) from None
    if d < 1 or n < 0:
        raise ParseError(f"bad matrix shape {d}x{n}", no)
    if n == 0 and pos >= len(lines):
        # only the vector block's tokens can back the row count of such a matrix
        raise ParseError("a matrix with no columns needs a vector block", no)

    parsed: dict[str, Payload] = {}  # instance files repeat their tokens

    def payload_of(token: str) -> Payload:
        if token not in parsed:
            parsed[token] = _CARRIERS[tag].parse(token)  # raises before caching a bad token
        return parsed[token]

    def take_payloads(what: str, count: int) -> tuple[Payload, ...]:
        no, tokens = take(f"a {what} of {count} tokens")
        if len(tokens) != count:
            raise ParseError(f"expected {count} tokens, found {len(tokens)}", no)
        try:
            return tuple(map(payload_of, tokens))
        except ValueError as exc:
            raise ParseError(str(exc), no) from None

    rows = [take_payloads("matrix row", n) for _ in range(d if n > 0 else 0)]

    b: Optional[ColVec] = None
    if pos < len(lines):
        no, tokens = take("a 'vector <d>' line")
        if len(tokens) != 2 or tokens[0] != "vector":
            raise ParseError("expected 'vector <d>' or end of file", no)
        try:
            length = _decimal(tokens[1])
        except ValueError:
            raise ParseError("vector length must be an unsigned integer", no) from None
        if length != d:
            raise ParseError(f"vector length {length} does not match {d} matrix rows", no)
        b = ColVec(tag, take_payloads("vector line", length))
    if pos < len(lines):
        no, _ = lines[pos]
        raise ParseError("trailing content after instance", no)
    return tag, Matrix(tag, d, n, tuple(rows) if n > 0 else ((),) * d), b


def format_instance(tag: SemiringTag, a: Matrix, b: Optional[ColVec] = None) -> str:
    """Canonical text for an instance; parse_instance round-trips it exactly.

    A zero-column matrix round-trips only together with its vector.
    """
    out = [f"semiring {tag.value}", f"matrix {a.rows} {a.cols}"]
    if a.cols > 0:
        out.extend(_tokens(tag, row) for row in a.values)
    if b is not None:
        out.append(f"vector {b.length}")
        out.append(_tokens(tag, b.values))
    return "\n".join(out) + "\n"


# --- report rendering ---------------------------------------------------------


def _tokens(tag: SemiringTag, values) -> str:
    return " ".join(map(_CARRIERS[tag].format, values))


def _report(fmt: str, title: str, fields: list[tuple]) -> str:
    """One report from (key, label, value) fields: kv prints 'key value' per field, text
    prints the title, then label + value per field.  A None key leaves a field out of
    kv, a None label out of text."""
    if fmt == "kv":
        return "\n".join(f"{key} {value}" for key, _, value in fields if key is not None)
    lines = [f"{label}{value}" for _, label, value in fields if label is not None]
    return "\n".join([title, *lines])


# certified answers of these kinds are negative: exit code 1
_NEGATIVE_KINDS = {"refutation", "no-solution", "ill-posed", "not-extendable"}


def _render_answer(kind: str, vectors: dict, detail: str, fmt: str) -> tuple[int, str]:
    """Exit code and report for one certified answer: a kind, named vectors, a detail."""
    fields = [("kind", None, kind)]
    for name, v in vectors.items():
        if v is not None:
            fields.append((name, f"{name} = ", _tokens(v.tag, v.values)))
    if detail:
        fields.append(("detail", "", detail))
    return (1 if kind in _NEGATIVE_KINDS else 0), _report(fmt, kind.upper(), fields)


# --- commands -----------------------------------------------------------------


def _read_instance(path: str) -> tuple[SemiringTag, Matrix, Optional[ColVec]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def _tag(name: str) -> SemiringTag:
    try:
        return SemiringTag(name)
    except ValueError:
        raise _UsageError(f"unknown semiring {name!r}") from None


def _cmd_answer(command: str, path: str, fmt: str) -> tuple[int, str]:
    """solve, witness and extend: report the answer the solver already checked."""
    _, a, b = _read_instance(path)
    if b is None:
        raise _UsageError(f"'{command}' needs an instance with a vector block")
    if command == "extend":
        ext = extend_functional(a, b)
        vectors = {"alpha": ext.alpha, "u": ext.u, "v": ext.v}
        return _render_answer(ext.kind.value, vectors, ext.detail, fmt)
    result = membership_certified(a, b)
    kind = result.kind.value
    if command == "witness" and result.kind is SolveKind.SOLUTION:
        kind = "membership-detected"
    return _render_answer(kind, {"w": result.w, "u": result.u, "v": result.v}, result.detail, fmt)


def _cmd_normalize(path: str, fmt: str) -> tuple[int, str]:
    tag, a, b = _read_instance(path)
    system = normalize(a, zeros_col(tag, a.rows) if b is None else b)
    a_norm, b_norm = system.a_norm, system.b_norm
    col_stoch = str(is_column_stochastic(a)).lower()
    row_stoch = str(is_row_stochastic(a)).lower()
    fields = [
        ("kind", None, "normalized"),
        ("original-column-stochastic", "original column-stochastic: ", col_stoch),
        ("original-row-stochastic", "original row-stochastic: ", row_stoch),
        ("kept-columns", "kept columns = ", " ".join(map(str, system.kept_columns))),
        ("row-scale", "row scale = ", " ".join(map(format_element, system.row_scale))),
        ("col-scale", "col scale = ", " ".join(map(format_element, system.col_scale))),
        ("matrix", None, f"{a_norm.rows} {a_norm.cols}"),
        *(("row", None, _tokens(tag, row)) for row in a_norm.values),
        ("vector", None, _tokens(tag, b_norm.values)),
        (None, "", format_instance(tag, a_norm, b_norm).rstrip("\n")),
    ]
    return 0, _report(fmt, "NORMALIZED", fields)


_REASON_TEXT = {
    "division-ring": "division ring",
    "idempotent": "idempotent: 1+1=1",
    "no-absorbing-e": "no e with 1+1+e=1",
}


def _cmd_classify(tag_name: str, fmt: str) -> tuple[int, str]:
    tag = _tag(tag_name)
    verdict = classify(descriptor(tag))
    exact = "left-exact" if verdict.left_exact else "not-left-exact"
    fields = [("verdict", None, exact), ("reason", None, verdict.reason.value)]
    if verdict.witness is not None:
        a, b = verdict.witness
        fields += [("witness-row", None, _tokens(tag, row)) for row in a.values]
        fields.append(("witness-vector", None, _tokens(tag, b.values)))
        witness = format_instance(tag, a, b).rstrip("\n").replace("\n", " / ")
        fields.append((None, "witness ", witness))
    head = "LEFT EXACT" if verdict.left_exact else "NOT LEFT EXACT"
    return 0, _report(fmt, f"{head} ({_REASON_TEXT[verdict.reason.value]})", fields)


def _cmd_verify(tag_name: str, opts: dict, fmt: str) -> tuple[int, str]:
    tag = _tag(tag_name)
    if descriptor(tag).carrier_size == "two" and "trials" not in opts:
        if "seed" in opts:
            raise _UsageError("--seed applies to the randomized suite only")
        max_dim = opts.get("max-dim", 3)
        try:
            sweep = boolean_exhaustive_check(max_dim, max_dim)
        except ValueError as exc:
            raise _UsageError(f"--max-dim: {exc}") from None
        total, bad = sweep.total_systems, sweep.total_violations
        fields = [
            ("mode", None, "exhaustive"),
            ("tag", None, "boolean"),
            ("max-dim", None, sweep.d_max),
            ("total-systems", None, total),
            ("violations", None, bad),
        ]
        for s in sweep.shapes:
            shape, n, m, v = f"{s.d}x{s.n}", s.systems, s.members, len(s.violations)
            fields.append(("shape", None, f"{shape} systems {n} members {m} violations {v}"))
            fields.append((None, "shape ", f"{shape}: {n} systems, {m} solvable, {v} violations"))
        fields.append((None, "total: ", f"{total} systems, {bad} violations"))
        fields += [(None, "VIOLATION ", v) for s in sweep.shapes for v in s.violations]
        title = f"VERIFY boolean exhaustive (d, n <= {sweep.d_max})"
        return (3 if bad else 0), _report(fmt, title, fields)
    if "max-dim" in opts:
        raise _UsageError("--max-dim applies to the boolean exhaustive sweep only")
    trials = opts.get("trials", 1000)
    if trials < 1:
        raise _UsageError("--trials needs a positive integer")
    suite = randomized_dichotomy_suite(tag, trials, opts.get("seed", 42))
    fields = [
        ("mode", None, "randomized"),
        ("tag", None, suite.tag.value),
        ("trials", None, suite.trials),
        ("seed", None, suite.seed),
        ("solutions", "solutions: ", suite.solutions),
        ("refutations", "refutations: ", suite.refutations),
        ("failures", "failures: ", len(suite.failures)),
        *(("failure", "FAILURE ", f) for f in suite.failures),
    ]
    title = f"VERIFY {suite.tag.value} randomized (trials {suite.trials}, seed {suite.seed})"
    return (3 if suite.failures else 0), _report(fmt, title, fields)


# --- dispatch -----------------------------------------------------------------

_INT_FLAGS = {"--seed": "seed", "--trials": "trials", "--max-dim": "max-dim"}


def _parse_argv(argv: list[str]) -> tuple[str, list[str], str, dict]:
    if not argv:
        raise _UsageError("missing command")
    fmt = "text"
    opts: dict = {}
    positional: list[str] = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--format":
            fmt = next(rest, None)
            if fmt not in ("text", "kv"):
                raise _UsageError("--format needs 'text' or 'kv'")
        elif arg in _INT_FLAGS:
            try:
                opts[_INT_FLAGS[arg]] = _decimal(next(rest, ""), signed=True)
            except ValueError:
                raise _UsageError(f"{arg} needs an integer value") from None
        elif arg.startswith("-"):
            raise _UsageError(f"unknown option {arg}")
        else:
            positional.append(arg)
    return argv[0], positional, fmt, opts


def run_command(argv: Sequence[str]) -> tuple[int, str]:
    """Dispatch one CLI invocation; returns (exit_code, report_text)."""
    try:
        command, positional, fmt, opts = _parse_argv(list(argv))
        if command in ("solve", "witness", "normalize", "extend"):
            if len(positional) != 1:
                raise _UsageError(f"'{command}' takes exactly one instance file")
            if opts:
                raise _UsageError(f"'{command}' takes no numeric options")
            if command == "normalize":
                return _cmd_normalize(positional[0], fmt)
            return _cmd_answer(command, positional[0], fmt)
        if command == "classify":
            if len(positional) != 1 or opts:
                raise _UsageError("'classify' takes exactly one semiring name")
            return _cmd_classify(positional[0], fmt)
        if command == "verify":
            if len(positional) != 1:
                raise _UsageError("'verify' takes exactly one semiring name")
            return _cmd_verify(positional[0], opts, fmt)
        raise _UsageError(f"unknown command {command!r}")
    except _UsageError as exc:
        return 2, f"error: {exc}\n{USAGE}"
    except InternalInvariantError as exc:
        return 3, f"internal invariant violation: {exc}"
    except ToolkitError as exc:
        return 2, f"error: {exc}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, report = run_command(sys.argv[1:] if argv is None else argv)
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
