"""Exactness classification and the two verification suites."""

from dataclasses import replace
from importlib import import_module
from random import Random

import pytest

from semilin import (
    ColVec,
    ExactnessReason,
    InvalidDescriptorError,
    Matrix,
    SemiringTag,
    SolveKind,
    UnsupportedCarrierError,
    boolean_exhaustive_check,
    classify,
    descriptor,
    membership_certified,
    non_exactness_instance,
    randomized_dichotomy_suite,
)
from semilin.classify import _sweep_masks
from semilin.sampling import random_col_vec, random_matrix
from tests.oracles import boolean_kernel_inclusion, boolean_member, boolean_sweep_reference

B = SemiringTag.BOOLEAN
T = SemiringTag.TROPICAL
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL


def test_classify_builtins():
    assert classify(descriptor(T)).reason is ExactnessReason.IDEMPOTENT
    assert classify(descriptor(B)).reason is ExactnessReason.IDEMPOTENT
    assert classify(descriptor(Q)).reason is ExactnessReason.DIVISION_RING
    verdict = classify(descriptor(QP))
    assert not verdict.left_exact
    assert verdict.reason is ExactnessReason.NO_ABSORBING_E
    assert verdict.witness == non_exactness_instance(QP)
    for tag in (B, T, Q):
        assert classify(descriptor(tag)).left_exact
        assert classify(descriptor(tag)).witness is None


@pytest.mark.parametrize(
    "changes",
    [
        {"is_idempotent": True, "is_zero_sum_free": False, "exists_absorbing_e": True},
        {"has_minus_one": True, "is_zero_sum_free": True},
        {"has_minus_one": True, "is_idempotent": True, "is_zero_sum_free": False},
        {"exists_absorbing_e": True},  # neither ring nor idempotent
    ],
)
def test_classify_rejects_inconsistent_descriptors(changes):
    base = descriptor(QP)
    with pytest.raises(InvalidDescriptorError):
        classify(replace(base, **changes))


def test_classify_rejects_two_element_non_idempotent():
    base = descriptor(QP)
    with pytest.raises(InvalidDescriptorError):
        classify(replace(base, carrier_size="two"))


# --- exhaustive sweep -------------------------------------------------------------


def test_exhaustive_one_by_one():
    report = boolean_exhaustive_check(1, 1)
    assert report.total_systems == 4
    assert report.total_violations == 0


def test_exhaustive_two_by_two_counts():
    report = boolean_exhaustive_check(2, 2)
    shape22 = next(s for s in report.shapes if (s.d, s.n) == (2, 2))
    assert shape22.systems == 64
    assert report.total_violations == 0


def test_exhaustive_rejects_large_dims():
    with pytest.raises(ValueError):
        boolean_exhaustive_check(5, 5)


def test_exhaustive_membership_counts_match_oracle():
    """The sweep's member tally must agree with direct enumeration."""
    report = boolean_exhaustive_check(2, 2)
    from itertools import product

    for shape in report.shapes:
        members = 0
        for bits in product((0, 1), repeat=shape.d * shape.n):
            rows = tuple(
                tuple(bits[i * shape.n + j] for j in range(shape.n))
                for i in range(shape.d)
            )
            a = Matrix(B, shape.d, shape.n, rows)
            for bbits in product((0, 1), repeat=shape.d):
                b = ColVec(B, tuple(bbits))
                members += boolean_member(a, b)
        assert members == shape.members


def test_exhaustive_report_matches_reference():
    """Every shape up to 3x3, violation lines included, as the per-(A, b) loops count it."""
    assert boolean_exhaustive_check(3, 3) == boolean_sweep_reference(3, 3)
    assert boolean_exhaustive_check(1, 3) == boolean_sweep_reference(1, 3)


def test_sweep_masks_match_oracles():
    """Per matrix, bit b of the image and separation masks is the oracles'
    verdict on b, members included: every violation count is 0, so a sweep
    that never flagged one would pass a report-only test."""
    for d in range(1, 4):
        hits = [sum(1 << b for b in range(1 << d) if u & b) for u in range(1 << d)]
        for n in range(1, 4):
            for a_bits in range(1 << (d * n)):
                image, separated = _sweep_masks(a_bits, d, n, hits)
                rows = tuple(
                    tuple((a_bits >> (i * n + j)) & 1 for j in range(n)) for i in range(d)
                )
                a = Matrix(B, d, n, rows)
                for b_mask in range(1 << d):
                    b = ColVec(B, tuple((b_mask >> i) & 1 for i in range(d)))
                    assert (image >> b_mask) & 1 == boolean_member(a, b)
                    assert (separated >> b_mask) & 1 == (not boolean_kernel_inclusion(a, b))


# members of each shape d x n, as the per-(A, b) loops of boolean_sweep_reference count them
_MEMBERS_UP_TO_4 = {
    (1, 1): 3, (1, 2): 7, (1, 3): 15, (1, 4): 31,
    (2, 1): 7, (2, 2): 39, (2, 3): 187, (2, 4): 831,
    (3, 1): 15, (3, 2): 187, (3, 3): 1977, (3, 4): 18943,
    (4, 1): 31, (4, 2): 831, (4, 3): 18943, (4, 4): 386463,
}  # fmt: skip


def test_exhaustive_max_dim_four_pinned():
    report = boolean_exhaustive_check(4, 4)
    assert report.total_systems == 1_157_324
    assert report.total_violations == 0
    assert {(s.d, s.n): s.members for s in report.shapes} == _MEMBERS_UP_TO_4
    for s in report.shapes:
        assert s.systems == 1 << (s.d * s.n + s.d)
        assert s.violations == ()


def test_exhaustive_violation_lines_ascend_in_b(monkeypatch):
    """With only b = 0 in each image and nothing separated, every other b is a
    violation, listed matrix by matrix and in ascending b within each."""
    # the package's ``classify`` attribute is the function, so patch the module itself
    module = import_module("semilin.classify")
    monkeypatch.setattr(module, "_sweep_masks", lambda a_bits, d, n, hits: (1, 0))
    report = boolean_exhaustive_check(2, 1)
    assert [(s.members, len(s.violations)) for s in report.shapes] == [(2, 2), (4, 12)]
    assert report.shapes[0].violations == ("d=1 n=1 A=0b0 b=0b1", "d=1 n=1 A=0b1 b=0b1")
    assert report.shapes[1].violations[:4] == (
        "d=2 n=1 A=0b00 b=0b01",
        "d=2 n=1 A=0b00 b=0b10",
        "d=2 n=1 A=0b00 b=0b11",
        "d=2 n=1 A=0b01 b=0b01",
    )
    assert report.total_violations == 14


# --- randomized dichotomy suite ------------------------------------------------------


@pytest.mark.parametrize("tag", [B, T, Q])
def test_randomized_suite_runs_clean(tag):
    report = randomized_dichotomy_suite(tag, 150, seed=5)
    assert report.failures == ()
    assert report.solutions + report.refutations == 150
    assert report.solutions > 0 and report.refutations > 0


def test_randomized_suite_rejects_nonneg():
    with pytest.raises(UnsupportedCarrierError):
        randomized_dichotomy_suite(QP, 10, seed=0)


def test_randomized_suite_deterministic():
    a = randomized_dichotomy_suite(T, 50, seed=9)
    b = randomized_dichotomy_suite(T, 50, seed=9)
    assert a == b


def test_solver_agrees_with_boolean_enumeration():
    """Randomized-suite style instances decided identically by the raw oracle."""
    rng = Random(301)
    for _ in range(120):
        d, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(B, d, n, rng)
        b = random_col_vec(B, d, rng)
        result = membership_certified(a, b)
        member = boolean_member(a, b)
        assert (result.kind is SolveKind.SOLUTION) == member
        if not member:
            # a separating pair exists exactly when inclusion fails
            assert not boolean_kernel_inclusion(a, b)
