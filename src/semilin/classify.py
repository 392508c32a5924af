"""Exactness classification and the desk-scale verification suites.

A semifield is left exact (every linear functional on a finitely generated
subsemimodule extends to the whole space) precisely when its descriptor flags
say it is a ring or idempotent.  The verdict for the remaining case carries
the canonical unsolvable probe system as a witness.

Two suites back the classification up empirically: an exhaustive sweep over
every small boolean system, and a seeded randomized run checking that exact
carriers always produce one verified Solution or one verified Refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Optional

from .errors import InvalidDescriptorError, ToolkitError, UnsupportedCarrierError
from .matrices import ColVec, Matrix
from .semirings import _CARRIERS, SemiringDescriptor, SemiringTag, descriptor
from .solver import SolveKind, membership_certified
from .sampling import random_system
from .witness import non_exactness_instance


class ExactnessReason(Enum):
    DIVISION_RING = "division-ring"
    IDEMPOTENT = "idempotent"
    NO_ABSORBING_E = "no-absorbing-e"


@dataclass(frozen=True)
class ExactnessVerdict:
    left_exact: bool
    reason: ExactnessReason
    witness: Optional[tuple[Matrix, ColVec]] = None


def _validate_descriptor(desc: SemiringDescriptor) -> None:
    if desc.is_idempotent and not desc.is_zero_sum_free:
        raise InvalidDescriptorError("idempotent carriers are zero-sum free")
    if desc.has_minus_one and desc.is_zero_sum_free:
        raise InvalidDescriptorError("1 + x = 0 contradicts zero-sum-freeness")
    if desc.has_minus_one and desc.is_idempotent:
        raise InvalidDescriptorError("1 + 1 = 1 plus an additive inverse of 1 forces 0 = 1")
    # in a semifield, an e with 1 + 1 + e = 1 exists iff it is a ring or idempotent
    if desc.exists_absorbing_e != (desc.has_minus_one or desc.is_idempotent):
        raise InvalidDescriptorError(
            "exists_absorbing_e must agree with has_minus_one or is_idempotent"
        )
    if desc.carrier_size == "two" and not desc.is_idempotent:
        raise InvalidDescriptorError("the only two-element semifield is idempotent")


def classify(desc: SemiringDescriptor) -> ExactnessVerdict:
    """Classify a semifield descriptor as left exact or not.

    Rings and idempotent semifields are left exact; everything else is not,
    and the verdict carries the probe system that no nonnegative-style
    carrier without an e satisfying 1 + 1 + e = 1 can solve.
    """
    _validate_descriptor(desc)
    if desc.has_minus_one:
        return ExactnessVerdict(True, ExactnessReason.DIVISION_RING)
    if desc.is_idempotent:
        return ExactnessVerdict(True, ExactnessReason.IDEMPOTENT)
    return ExactnessVerdict(
        False, ExactnessReason.NO_ABSORBING_E, witness=non_exactness_instance(desc.tag)
    )


# --- exhaustive sweep over small boolean systems ------------------------------


@dataclass(frozen=True)
class ShapeReport:
    d: int
    n: int
    systems: int
    members: int
    violations: tuple[str, ...]


@dataclass(frozen=True)
class ExhaustiveReport:
    d_max: int
    n_max: int
    shapes: tuple[ShapeReport, ...]
    total_systems: int
    total_violations: int


def _subset_ors(masks: list[int]) -> list[int]:
    """The OR of each subset u of ``masks`` (bit k of u picks masks[k]), at index u."""
    ors = [0]
    for m in masks:
        ors += [x | m for x in ors]
    return ors


def _sweep_masks(a_bits: int, d: int, n: int, hits: list[int]) -> tuple[int, int]:
    """(image, separated) of the d x n matrix with entry (i, j) at bit i*n + j of
    ``a_bits``: 2^d-bit masks of the b equal to some A·w, and of the b that some
    u, v with u·A = v·A separate, where ``hits[u]`` holds the b with u·b = 1."""
    rows = [(a_bits >> (i * n)) & ((1 << n) - 1) for i in range(d)]
    cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)]
    image = separated = 0
    for x in _subset_ors(cols):
        image |= 1 << x
    first: dict[int, int] = {}
    for u, key in enumerate(_subset_ors(rows)):
        separated |= hits[first.setdefault(key, u)] ^ hits[u]
    return image, separated


def boolean_exhaustive_check(d_max: int, n_max: int) -> ExhaustiveReport:
    """Verify kernel-inclusion implies membership for every small boolean system.

    For each shape d x n with d <= d_max, n <= n_max, enumerates all matrices
    and right-hand sides; for every non-member b it confirms some pair (u, v)
    has u·A = v·A but u·b != v·b.  Each matrix is decided once for all 2^d
    right-hand sides, the bits of one int, from the ORs of all subsets of its
    columns (its image) and rows (its left-kernel classes): O(2^n + 2^d) steps
    keep the full d = n = 3 sweep (4096 systems in that shape alone) fast.
    """
    if not (1 <= d_max <= 4 and 1 <= n_max <= 4):
        raise ValueError("exhaustive sweep is sized for dimensions 1..4")
    shapes = []
    for d in range(1, d_max + 1):
        hits = [sum(1 << b for b in range(1 << d) if u & b) for u in range(1 << d)]
        for n in range(1, n_max + 1):
            violations: list[str] = []
            members = 0
            for a_bits in range(1 << (d * n)):
                image, separated = _sweep_masks(a_bits, d, n, hits)
                members += image.bit_count()
                bad = ~(image | separated)  # non-members that no kernel pair separates
                for b in range(1 << d):
                    if (bad >> b) & 1:
                        violations.append(f"d={d} n={n} A=0b{a_bits:0{d * n}b} b=0b{b:0{d}b}")
            shapes.append(ShapeReport(d, n, 1 << (d * n + d), members, tuple(violations)))
    total = sum(s.systems for s in shapes)
    bad = sum(len(s.violations) for s in shapes)
    return ExhaustiveReport(d_max, n_max, tuple(shapes), total, bad)


# --- randomized dichotomy suite ----------------------------------------------


@dataclass(frozen=True)
class DichotomyReport:
    tag: SemiringTag
    trials: int
    seed: int
    solutions: int
    refutations: int
    failures: tuple[str, ...]


def _replay(trial: int, seed: int, a: Matrix, b: ColVec) -> str:
    """The head of a failure line: the trial and its instance, enough to replay it."""
    fmt = _CARRIERS[a.tag].format
    rows = "; ".join(" ".join(map(fmt, row)) for row in a.values)
    return f"trial {trial} (seed {seed}): A=[{rows}] b=[{' '.join(map(fmt, b.values))}]"


def randomized_dichotomy_suite(
    tag: SemiringTag | str, trials: int, seed: int
) -> DichotomyReport:
    """Draw random systems and demand one *verified* Solution or Refutation each.

    Half the draws are solvable by construction (b := A·w), half independent.
    ``membership_certified`` checks every answer against (A, b) before it
    returns and raises ``InternalInvariantError`` on a failed check; that
    error, like an Undecided outcome, is reported as a failure with enough
    context to replay it.
    """
    tag = SemiringTag(tag)
    if not classify(descriptor(tag)).left_exact:
        raise UnsupportedCarrierError("the dichotomy suite runs on exact carriers only")
    rng = Random(seed)
    solutions = refutations = 0
    failures: list[str] = []
    for trial in range(trials):
        a, b = random_system(tag, rng)
        try:
            result = membership_certified(a, b)
        except ToolkitError as exc:
            failures.append(f"{_replay(trial, seed, a, b)} raised {type(exc).__name__}: {exc}")
            continue
        if result.kind is SolveKind.SOLUTION:
            solutions += 1
        elif result.kind is SolveKind.REFUTATION:
            refutations += 1
        else:
            kind = result.kind.value
            failures.append(f"{_replay(trial, seed, a, b)} returned {kind} on an exact carrier")
    return DichotomyReport(tag, trials, seed, solutions, refutations, tuple(failures))
