"""Exactness classification and the two verification suites."""

from dataclasses import replace
from random import Random

import pytest

from semilin import (
    ExactnessReason,
    InvalidDescriptorError,
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
from semilin.sampling import random_col_vec, random_matrix
from tests.oracles import boolean_kernel_inclusion, boolean_member

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

    from semilin import ColVec, Matrix

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
