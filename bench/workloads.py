"""Seeded workloads: the operations each benchmark run performs.

Solve inputs are drawn here from raw payloads with ``random.Random(seed)``,
never through ``semilin.sampling``, so a change to the program's own sampler
cannot change them.  Each workload's operations follow a fixed cycle of
classes (size x solvable-by-construction or not), so every seed gives the
same mix of classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random
from typing import Callable

from checker import (
    INF,
    Instance,
    check_exhaustive,
    check_randomized,
    check_solve,
    exhaustive_expectation,
    format_instance,
    mat_vec,
)

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "tropical-dense": "min-plus solve at d=n 48..64: scalar ops, mat_mul, normalize, "
    "residuation, kernel_witness and triple certificate checks; no elimination",
    "rational-dense": "rational solve at d=n 24..32: exact elimination dominates, "
    "scalar Element arithmetic is minor; mirror image of tropical-dense",
    "search-heavy": "boolean 4^d witness search (d=7..9) and the nonneg-rational grid "
    "search (d=3..8); the only workload with uncertified answers",
    "verify-suites": "randomized tropical/rational/boolean suites and the 3x3 boolean sweep: "
    "thousands of tiny systems, per-call overhead, sampling and classify",
}

# A timed run loops over a pool of POOL_CYCLES cycles, about as many as one
# run gets through, so few inputs repeat.  The warm-up is drawn from
# WARMUP_SEED, so set-up does the same work for every seed.  A traced run
# repeats the first TRACE_CYCLES cycles, so its counts per operation repeat
# exactly.
POOL_CYCLES = {"tropical-dense": 12, "rational-dense": 8, "search-heavy": 80, "verify-suites": 200}
WARMUP_SEED = 0
TRACE_CYCLES = {"tropical-dense": 1, "rational-dense": 1, "search-heavy": 6, "verify-suites": 10}
RANDOMIZED_TRIALS = 60
EXHAUSTIVE_MAX_DIM = 3


@dataclass(frozen=True)
class Op:
    """One ``run_command`` call and the check its answer must pass.

    ``check(code, text)`` raises ``checker.CheckError`` on a rejected answer
    and otherwise returns (uncertified, refutations): whether the answer
    carries nothing checkable, and how many kernel-pair refutations it holds.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[bool, int]]


@dataclass(frozen=True)
class Pool:
    ops: tuple[Op, ...]
    cycle: int  # operations per cycle of classes
    files: dict  # instance file path -> text, written during set-up


# --- raw generators ------------------------------------------------------------


def _tropical_entry(rng: Random):
    return INF if rng.random() < 0.125 else rng.randint(-9, 9)


def _rational_entry(rng: Random, low: int = -9):
    return Fraction(rng.randint(low, 9), rng.randint(1, 3))


def _matrix(entry, d: int, n: int) -> tuple[tuple, ...]:
    return tuple(tuple(entry() for _ in range(n)) for _ in range(d))


def tropical_instance(rng: Random, size: int, solvable: bool) -> Instance:
    entry = partial(_tropical_entry, rng)
    a = _matrix(entry, size, size)
    if solvable:
        return Instance("tropical", a, mat_vec("tropical", a, [entry() for _ in range(size)]), True)
    return Instance("tropical", a, tuple(entry() for _ in range(size)), None)


def rational_instance(rng: Random, size: int, solvable: bool) -> Instance:
    """Solvable: b := A·w.  Otherwise one row is a combination of the others
    and b breaks that relation, so the system is unsolvable by construction."""
    entry = partial(_rational_entry, rng)
    if solvable:
        a = _matrix(entry, size, size)
        return Instance("rational", a, mat_vec("rational", a, [entry() for _ in range(size)]), True)
    rows = [list(row) for row in _matrix(entry, size - 1, size)]
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
    dependent = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(size)]
    b = [entry() for _ in rows]
    implied = sum((c * x for c, x in zip(coeffs, b)), Fraction(0))
    b_dep = implied + rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 3))
    at = rng.randrange(size)
    rows.insert(at, dependent)
    b.insert(at, b_dep)
    return Instance("rational", tuple(map(tuple, rows)), tuple(b), False)


def boolean_instance(rng: Random, size: int, solvable: bool) -> Instance:
    bit = partial(rng.randint, 0, 1)
    a = _matrix(bit, size, size)
    if solvable:
        return Instance("boolean", a, mat_vec("boolean", a, [bit() for _ in range(size)]), True)
    return Instance("boolean", a, tuple(bit() for _ in range(size)), None)


def nonneg_instance(rng: Random, d: int, solvable: bool) -> Instance:
    entry = partial(_rational_entry, rng, 0)
    a = _matrix(entry, d, d + 2)
    if solvable:
        w = [entry() for _ in range(d + 2)]
        return Instance("nonneg-rational", a, mat_vec("nonneg-rational", a, w), True)
    return Instance("nonneg-rational", a, tuple(entry() for _ in range(d)), None)


# --- pools -----------------------------------------------------------------------


def _checked_solve(inst: Instance, code: int, text: str) -> tuple[bool, int]:
    kind = check_solve(inst, code, text)
    return kind == "uncertified", int(kind == "refutation")


def _checked_randomized(tag: str, trials: int, seed: int, code: int, text: str) -> tuple[bool, int]:
    return False, check_randomized(tag, trials, seed, code, text)


def _checked_exhaustive(max_dim: int, expected: dict, code: int, text: str) -> tuple[bool, int]:
    check_exhaustive(max_dim, expected, code, text)
    return False, 0


# (generator, size, solvable) per class, in cycle order.  Percentiles must not
# sit on the edge between two classes of different cost, or they jump from
# run to run: the dense workloads step through many sizes, so neighbouring
# classes overlap, and in search-heavy the 8x8 boolean refutations fill two
# slots of 19, so p90 falls inside that class.
_SOLVE_CLASSES = {
    "tropical-dense": [
        (tropical_instance, size, solvable) for size in range(48, 65, 2) for solvable in (True, False)
    ],
    "rational-dense": [
        (rational_instance, size, solvable) for size in range(24, 33) for solvable in (True, False)
    ],
    "search-heavy": [
        (boolean_instance, 7, True), (nonneg_instance, 3, True), (nonneg_instance, 4, False),
        (boolean_instance, 8, False), (nonneg_instance, 5, True), (nonneg_instance, 6, False),
        (boolean_instance, 9, True), (nonneg_instance, 7, True), (nonneg_instance, 8, False),
        (boolean_instance, 7, False), (nonneg_instance, 3, False), (nonneg_instance, 4, True),
        (boolean_instance, 8, True), (nonneg_instance, 5, False), (nonneg_instance, 6, True),
        (boolean_instance, 9, False), (nonneg_instance, 7, False), (nonneg_instance, 8, True),
        (boolean_instance, 8, False),
    ],
}

WORKLOADS = tuple(WHY)


def build_pool(workload: str, seed: int, workdir: Path, cycles: int | None = None) -> Pool:
    """The seeded operations of one workload; instance files go under ``workdir``.

    The first k cycles are the same whatever ``cycles`` is.
    """
    cycles = POOL_CYCLES[workload] if cycles is None else cycles
    rng = Random(f"{workload}/{seed}")
    ops, files = [], {}
    if workload == "verify-suites":
        expected = exhaustive_expectation(EXHAUSTIVE_MAX_DIM)
        for _ in range(cycles):
            for tag in ("tropical", "rational", "boolean"):
                s = rng.randrange(1 << 31)
                argv = ("verify", tag, "--trials", str(RANDOMIZED_TRIALS), "--seed", str(s), "--format", "kv")
                ops.append(Op(argv, partial(_checked_randomized, tag, RANDOMIZED_TRIALS, s)))
            argv = ("verify", "boolean", "--max-dim", str(EXHAUSTIVE_MAX_DIM), "--format", "kv")
            ops.append(Op(argv, partial(_checked_exhaustive, EXHAUSTIVE_MAX_DIM, expected)))
        return Pool(tuple(ops), 4, files)
    classes = _SOLVE_CLASSES[workload]
    for c in range(cycles):
        for k, (make, size, solvable) in enumerate(classes):
            inst = make(rng, size, solvable)
            path = str(workdir / f"{c:03d}-{k:02d}.inst")
            files[path] = format_instance(inst)
            ops.append(Op(("solve", path, "--format", "kv"), partial(_checked_solve, inst)))
    return Pool(tuple(ops), len(classes), files)
