"""Mutation gate: every mutant in MUTANTS must be caught by the tests named with it.

Run from anywhere with ``python tests/mutants.py`` (pytest must be importable).
For each entry the runner copies ``src/`` to a temporary directory, replaces
the entry's old text with its replacement there, and runs only the entry's
tests against the copy with ``pytest -x``, two mutants at a time.  A mutant is
caught when pytest reports a failing test (exit code 1); an import or
collection error does not count.  The old text must occur exactly once in
``src/``, so a refactor that moves or rewrites the mutated code fails this gate
until the table follows it.
Before any mutant, the named tests must pass on the unmutated copy.

Exit code 0 when every mutant is caught, 1 otherwise.  Pytest collects only
``test_*.py``, so Tier-1 runs do not pick this file up.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLASSIFY = "tests/test_classify.py::"
CLI = "tests/test_cli.py::"
SOLVER = "tests/test_solver.py::"
WITNESS = "tests/test_witness.py::"

# (path under src/, exact old text, replacement, tests of which one must fail)
MUTANTS = [
    # --- cli.py: report lines, exit codes and usage messages no golden case reaches
    (
        "semilin/cli.py",
        '("failure", "FAILURE ", f)',
        '("failed", "FAILURE ", f)',
        [CLI + "test_corrupted_answer_is_a_suite_failure"],
    ),
    (
        "semilin/cli.py",
        '(None, "VIOLATION ", v)',
        '(None, "violation ", v)',
        [CLI + "test_exhaustive_violation_exits_three"],
    ),
    (
        "semilin/cli.py",
        "return (3 if bad else 0), ",
        "return 0, ",
        [CLI + "test_exhaustive_violation_exits_three"],
    ),
    (
        "semilin/cli.py",
        '"--seed applies to the randomized suite only"',
        '"--seed is for the randomized suite only"',
        [CLI + "test_usage_errors_exit_two"],
    ),
    (
        "semilin/cli.py",
        "takes no numeric options",
        "takes no integer options",
        [CLI + "test_usage_errors_exit_two"],
    ),
    (
        "semilin/cli.py",
        'f"unknown option {arg}"',
        'f"unrecognised option {arg}"',
        [CLI + "test_usage_errors_exit_two"],
    ),
    # --- the one answer check and what feeds it ------------------------------------
    (
        "semilin/solver.py",
        'raise InternalInvariantError("claimed solution does not reproduce b")',
        "pass",
        [CLI + "test_corrupted_answer_exits_three[solve-solution]"],
    ),
    (
        "semilin/solver.py",
        'raise InternalInvariantError("claimed kernel pair does not validate")',
        "pass",
        [
            SOLVER + "test_refutation_is_checked_exactly_once[boolean]",
            CLI + "test_corrupted_answer_exits_three[solve-refutation]",
        ],
    ),
    (  # skip the rescale of phi(xs) by k
        "semilin/matrices.py",
        "x, y = images if k == 1 else ([p if p is INF else p * k for p in im] for im in images)",
        "x, y = images",
        [SOLVER + "test_answer_is_checked_once_against_the_callers_system[tropical-refutation]"],
    ),
    (  # take l from the equation's row alone
        "semilin/matrices.py",
        "        l = k * lv\n",
        "        l = lcm(*{p.denominator for p in (*r, *s) if p is not INF})\n",
        [SOLVER + "test_answer_check_matches_raw_reference[tropical]"],
    ),
    (
        "semilin/matrices.py",
        "    if w is not None and w.length != a.cols:",
        "    if False:",
        [SOLVER + "test_solution_check_guards_shape_and_carrier"],
    ),
    (
        "semilin/matrices.py",
        " or (w is not None and w.tag is not a.tag):",
        ":",
        [SOLVER + "test_solution_check_guards_shape_and_carrier"],
    ),
    (  # force l = 1 in _integer_scaled
        "semilin/matrices.py",
        "    l = lcm(*{x.denominator for row in (*a.values, b.values)"
        " for x in row if x is not INF})",
        "    l = 1",
        [SOLVER + "test_answer_is_checked_once_against_the_callers_system[tropical-solution]"],
    ),
    (  # skip the division by l in _unscaled
        "semilin/matrices.py",
        "c.unscale(c.mul(c.inv(s), x), l)",
        "c.unscale(c.mul(c.inv(s), x), 1)",
        [SOLVER + "test_answer_check_matches_raw_reference[tropical]"],
    ),
    (
        "semilin/witness.py",
        "lam = o if s == z else c.inv(s)",
        "lam = o",
        ["tests/test_witness.py::test_kernel_witness_random_nonmembers"],
    ),
    (  # H = 1
        "semilin/witness.py",
        "    v_on_o = z if s == z else o",
        "    heavy = o\n    v_on_o = z if s == z else o",
        ["tests/test_witness.py::test_kernel_witness_second_example"],
    ),
    (  # the Bareiss divisor kept at 1
        "semilin/solver.py",
        "        prev = p\n",
        "        prev = 1\n",
        [SOLVER + "test_row_reduce_divides_exactly_on_wide_entries[True-7]"],
    ),
    (  # the refutation row normalised at the wrong index
        "semilin/solver.py",
        "lead = y[origin[i]]",
        "lead = y[i]",
        [SOLVER + "test_answer_check_matches_raw_reference[rational]"],
    ),
    (  # tropical add as max
        "semilin/semirings.py",
        "x if y is INF or x <= y else y",
        "x if y is INF or x >= y else y",
        ["tests/test_semirings.py::test_tropical_add_is_min"],
    ),
    (  # _dot starting from one
        "semilin/matrices.py",
        "return reduce(c.add, map(c.mul, xs, ys), c.zero)",
        "return reduce(c.add, map(c.mul, xs, ys), c.one)",
        ["tests/test_matrices.py::test_unit_matrix_is_neutral[tropical]"],
    ),
    (  # str in place of Decimal: Python caps int-to-str at 4,300 digits
        "semilin/semirings.py",
        "digits = str(Decimal(x.numerator))",
        "digits = str(x.numerator)",
        [CLI + "test_answers_beyond_the_int_to_str_digit_limit_render[solve-text]"],
    ),
    # --- builder coercion and the preimage's lam -----------------------------------
    (  # bools pass as 0/1
        "semilin/matrices.py",
        "elif type(x) is bool or not (isinstance(x, (int, Fraction)) or x is INF):",
        "elif not (isinstance(x, (int, Fraction)) or x is INF):",
        ["tests/test_semirings.py::test_exactness_discipline"],
    ),
    (  # Fraction(1) kept on the two-element carrier instead of the int 1
        "semilin/matrices.py",
        "x = c.zero if x == c.zero else c.one if x == c.one else x",
        "pass",
        ["tests/test_semirings.py::test_builders_coerce_non_strings_as_before"],
    ),
    (  # lam = p even when 1 + p = 1
        "semilin/witness.py",
        "lam = c.inv(p) if c.add(c.one, p) == c.one else p",
        "lam = p",
        [WITNESS + "test_preimage_zero_row_branch"],
    ),
    # --- the shape and carrier guards in front of the answer check -----------------
    (
        "semilin/matrices.py",
        "if a.tag is not b.tag or (w is not None and w.tag is not a.tag):",
        "if w is not None and w.tag is not a.tag:",
        [SOLVER + "test_membership_rejects_a_vector_of_another_carrier"],
    ),
    (
        "semilin/witness.py",
        "v.length != a.rows or b.length",
        "b.length",
        [WITNESS + "test_check_certificate_rejects_short_vectors[v]"],
    ),
    (
        "semilin/witness.py",
        " or b.length != a.rows:",
        ":",
        [WITNESS + "test_check_certificate_rejects_short_vectors[b]"],
    ),
    # --- the per-matrix boolean sweep ------------------------------------------------
    (  # no b ever in the image
        "semilin/classify.py",
        "image |= 1 << x",
        "image |= 0",
        [CLASSIFY + "test_exhaustive_report_matches_reference"],
    ),
    (  # the separated update skipped
        "semilin/classify.py",
        "separated |= hits[first.setdefault(key, u)] ^ hits[u]",
        "pass",
        [CLASSIFY + "test_exhaustive_report_matches_reference"],
    ),
    (  # every b separated: no violation is possible, and the reports stay the same
        "semilin/classify.py",
        "image = separated = 0",
        "image, separated = 0, -1",
        [CLASSIFY + "test_sweep_masks_match_oracles"],
    ),
    (  # hits seeded with u | b
        "semilin/classify.py",
        "if u & b)",
        "if u | b)",
        [CLASSIFY + "test_exhaustive_report_matches_reference"],
    ),
    (  # violations never emitted
        "semilin/classify.py",
        "if (bad >> b) & 1:",
        "if False:",
        [CLASSIFY + "test_exhaustive_violation_lines_ascend_in_b"],
    ),
    (  # violations in descending b
        "semilin/classify.py",
        "for b in range(1 << d):",
        "for b in reversed(range(1 << d)):",
        [CLASSIFY + "test_exhaustive_violation_lines_ascend_in_b"],
    ),
]


def _run_pytest(src: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True).returncode


def _copy_src(tmp: str) -> Path:
    copy = Path(tmp) / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _run_mutant(mutant: tuple[str, str, str, list[str]]) -> int:
    """The pytest exit code of the mutant's tests on a mutated copy of ``src/``."""
    path, old, new, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy = _copy_src(tmp)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(old, new), encoding="utf-8")
        return _run_pytest(copy, tests)


def main() -> int:
    problems = []
    sources = [f.read_text(encoding="utf-8") for f in SRC.rglob("*.py")]
    for path, old, _, _ in MUTANTS:
        count = sum(text.count(old) for text in sources)
        if count != 1 or old not in (SRC / path).read_text(encoding="utf-8"):
            problems.append(f"stale: {old!r} occurs {count} times in src/, not once in src/{path}")
    if not problems:
        tests = sorted({t for *_, named in MUTANTS for t in named})
        with tempfile.TemporaryDirectory() as tmp:
            code = _run_pytest(_copy_src(tmp), tests)
        if code != 0:
            problems.append(f"the named tests do not pass on unmutated src/ (pytest exit {code})")
    with ThreadPoolExecutor(max_workers=2) as pool:
        codes = pool.map(_run_mutant, [] if problems else MUTANTS)
        for i, ((path, old, new, _), code) in enumerate(zip(MUTANTS, codes)):
            verdict = "caught" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"mutant {i}: {path}: {old!r} -> {new!r}: {verdict}", flush=True)
            if code != 1:
                problems.append(f"mutant {i} survived")
    for problem in problems:
        print(problem)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
