"""Independent answer checker for the benchmark.

It works on raw payloads only: ints for the boolean carrier, ints or
Fractions for the rational carriers and for finite tropical values, and
``INF`` below for the tropical zero.  It calls no semilin arithmetic, so a defect in the
program's scalar or matrix layer cannot hide a matching defect in the
answers it produced.

Each ``check_*`` function takes the exit code and the ``--format kv`` report
of one ``run_command`` call and either returns the outcome or raises
``CheckError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


class _Inf:
    """The tropical additive identity, absorbing under tropical multiplication."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INF = _Inf()


def _trop_add(x, y):
    if x is INF:
        return y
    if y is INF:
        return x
    return x if x <= y else y


def _trop_mul(x, y):
    return INF if x is INF or y is INF else x + y


@dataclass(frozen=True)
class Carrier:
    zero: object
    add: Callable
    mul: Callable


CARRIERS = {
    "boolean": Carrier(0, operator.or_, operator.and_),
    "tropical": Carrier(INF, _trop_add, _trop_mul),
    "nonneg-rational": Carrier(Fraction(0), operator.add, operator.mul),
    "rational": Carrier(Fraction(0), operator.add, operator.mul),
}


@dataclass(frozen=True)
class Instance:
    """A system A·w = b in raw payloads, plus what its construction proves.

    ``truth`` is True when b := A·w by construction, False when a left-kernel
    vector separating b was built in, and None when nothing is known.
    """

    carrier: str
    a: tuple[tuple, ...]
    b: tuple
    truth: Optional[bool]


class CheckError(Exception):
    """An answer the checker rejects."""


# --- raw arithmetic ----------------------------------------------------------


def dot(carrier: str, xs, ys):
    c = CARRIERS[carrier]
    acc = c.zero
    for x, y in zip(xs, ys):
        acc = c.add(acc, c.mul(x, y))
    return acc


def mat_vec(carrier: str, a, w) -> tuple:
    return tuple(dot(carrier, row, w) for row in a)


def vec_mat(carrier: str, u, a) -> tuple:
    return tuple(dot(carrier, u, col) for col in zip(*a))


# --- instance text -----------------------------------------------------------


def format_token(x) -> str:
    return "inf" if x is INF else str(x)


def parse_token(carrier: str, token: str):
    if carrier == "boolean":
        if token not in ("0", "1"):
            raise CheckError(f"bad boolean token {token!r}")
        return int(token)
    if carrier == "tropical" and token == "inf":
        return INF
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"bad {carrier} token {token!r}") from None
    if carrier == "nonneg-rational" and value < 0:
        raise CheckError(f"negative nonneg-rational token {token!r}")
    return value


def format_instance(inst: Instance) -> str:
    """The instance-file text of ``inst`` (the format ``semilin solve`` reads)."""
    d, n = len(inst.a), len(inst.a[0])
    lines = [f"semiring {inst.carrier}", f"matrix {d} {n}"]
    lines.extend(" ".join(map(format_token, row)) for row in inst.a)
    lines.append(f"vector {d}")
    lines.append(" ".join(map(format_token, inst.b)))
    return "\n".join(lines) + "\n"


# --- reports -----------------------------------------------------------------


def parse_kv(text: str) -> list[tuple[str, list[str]]]:
    """Split a kv report into (key, tokens) lines, keeping order and repeats."""
    out = []
    for line in text.splitlines():
        if line.strip():
            key, *tokens = line.split()
            out.append((key, tokens))
    return out


def _fields(kv: list[tuple[str, list[str]]], repeatable: str = "") -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for key, tokens in kv:
        if key == repeatable:
            continue
        if key in fields:
            raise CheckError(f"repeated key {key!r} in report")
        fields[key] = tokens
    return fields


def _vector(inst: Instance, fields: dict, key: str, length: int) -> tuple:
    if key not in fields:
        raise CheckError(f"report has no {key!r} line")
    vec = tuple(parse_token(inst.carrier, t) for t in fields[key])
    if len(vec) != length:
        raise CheckError(f"{key} has {len(vec)} entries, expected {length}")
    return vec


def _expect_code(code: int, wanted: int, kind: str) -> None:
    if code != wanted:
        raise CheckError(f"exit code {code} for kind {kind}, expected {wanted}")


def check_solve(inst: Instance, code: int, text: str) -> str:
    """Check one ``solve --format kv`` answer against the original system.

    Returns "solution", "refutation", "order-refutation" or "uncertified".
    A solution is re-multiplied; a kernel pair must satisfy u·A = v·A and
    u·b != v·b; a no-solution answer that carries a pair must satisfy
    u·A >= v·A entrywise and u·b < v·b.  Answers contradicting the instance's
    known truth are errors; answers carrying nothing to check are uncertified.
    """
    if code not in (0, 1):
        raise CheckError(f"exit code {code}: {text[:200]!r}")
    fields = _fields(parse_kv(text))
    kind = fields.get("kind", ["<missing>"])[0]
    c, d, n = inst.carrier, len(inst.a), len(inst.a[0])
    if kind == "solution":
        _expect_code(code, 0, kind)
        w = _vector(inst, fields, "w", n)
        if mat_vec(c, inst.a, w) != tuple(inst.b):
            raise CheckError("A·w != b")
        if inst.truth is False:
            raise CheckError("solution claimed for a system unsolvable by construction")
        return "solution"
    if kind == "refutation":
        _expect_code(code, 1, kind)
        u, v = _vector(inst, fields, "u", d), _vector(inst, fields, "v", d)
        if vec_mat(c, u, inst.a) != vec_mat(c, v, inst.a):
            raise CheckError("u·A != v·A")
        if dot(c, u, inst.b) == dot(c, v, inst.b):
            raise CheckError("u·b == v·b")
        if inst.truth is True:
            raise CheckError("refutation claimed for a system solvable by construction")
        return "refutation"
    if kind == "no-solution":
        _expect_code(code, 1, kind)
        if inst.truth is True:
            raise CheckError("no-solution claimed for a system solvable by construction")
        if "u" not in fields and "v" not in fields:
            return "uncertified"
        if c != "nonneg-rational":
            raise CheckError(f"order certificate on the {c} carrier")
        u, v = _vector(inst, fields, "u", d), _vector(inst, fields, "v", d)
        if any(x < y for x, y in zip(vec_mat(c, u, inst.a), vec_mat(c, v, inst.a))):
            raise CheckError("u·A >= v·A fails")
        if not dot(c, u, inst.b) < dot(c, v, inst.b):
            raise CheckError("u·b < v·b fails")
        return "order-refutation"
    if kind == "undecided":
        _expect_code(code, 0, kind)
        return "uncertified"
    raise CheckError(f"unknown kind {kind!r}")


def check_randomized(tag: str, trials: int, seed: int, code: int, text: str) -> int:
    """Check one ``verify <tag> --trials N --seed S --format kv`` report.

    Returns the number of refutations the suite reported.
    """
    if code != 0:
        raise CheckError(f"exit code {code}: {text[:200]!r}")
    kv = parse_kv(text)
    fields = _fields(kv, repeatable="failure")
    want = {"mode": "randomized", "tag": tag, "trials": str(trials), "seed": str(seed)}
    for key, value in want.items():
        if fields.get(key) != [value]:
            raise CheckError(f"{key} is {fields.get(key)}, expected {value}")
    failures = sum(1 for key, _ in kv if key == "failure")
    if fields.get("failures") != ["0"] or failures:
        raise CheckError(f"suite reported failures: {fields.get('failures')}")
    solutions, refutations = int(fields["solutions"][0]), int(fields["refutations"][0])
    if solutions < 0 or refutations < 0 or solutions + refutations != trials:
        raise CheckError(f"{solutions} solutions + {refutations} refutations != {trials}")
    return refutations


def boolean_members(d: int, n: int) -> int:
    """Number of boolean pairs (A, b) of shape d x n with b in the image of A."""
    total = 0
    for a_bits in range(1 << (d * n)):
        cols = [
            sum(((a_bits >> (i * n + j)) & 1) << i for i in range(d)) for j in range(n)
        ]
        images = set()
        for w in range(1 << n):
            acc = 0
            for j in range(n):
                if (w >> j) & 1:
                    acc |= cols[j]
            images.add(acc)
        total += len(images)
    return total


def exhaustive_expectation(max_dim: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(d, n) -> (systems, members) for every shape of the boolean sweep."""
    return {
        (d, n): ((1 << (d * n)) * (1 << d), boolean_members(d, n))
        for d in range(1, max_dim + 1)
        for n in range(1, max_dim + 1)
    }


def check_exhaustive(max_dim: int, expected: dict, code: int, text: str) -> None:
    """Check one ``verify boolean --max-dim K --format kv`` report.

    ``expected`` comes from :func:`exhaustive_expectation`.
    """
    if code != 0:
        raise CheckError(f"exit code {code}: {text[:200]!r}")
    kv = parse_kv(text)
    fields = _fields(kv, repeatable="shape")
    want = {"mode": "exhaustive", "tag": "boolean", "max-dim": str(max_dim), "violations": "0"}
    for key, value in want.items():
        if fields.get(key) != [value]:
            raise CheckError(f"{key} is {fields.get(key)}, expected {value}")
    seen = {}
    for key, tokens in kv:
        if key != "shape":
            continue
        if len(tokens) != 7 or tokens[1::2] != ["systems", "members", "violations"]:
            raise CheckError(f"bad shape line {tokens}")
        d, n = map(int, tokens[0].split("x"))
        seen[(d, n)] = (int(tokens[2]), int(tokens[4]))
        if tokens[6] != "0":
            raise CheckError(f"shape {d}x{n} reports {tokens[6]} violations")
    if seen != expected:
        raise CheckError(f"shape counts {seen} != expected {expected}")
    total = sum(systems for systems, _ in expected.values())
    if fields.get("total-systems") != [str(total)]:
        raise CheckError(f"total-systems {fields.get('total-systems')} != {total}")
