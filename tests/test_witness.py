"""Refutation constructions: preimage rows, the closed-form kernel pair, the probe.

The one builder behind ``kernel_witness`` and ``boolean_kernel_witness`` is
checked against two independent references in ``tests/oracles.py``: the 4^d
boolean pair search and the min-plus block construction.
"""

import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest

import semilin.witness
from semilin import (
    INF,
    MembershipDetectedError,
    NotApplicableError,
    SemiringTag,
    TagMismatchError,
    TooFewElementsError,
    alternative_ones_preimage,
    boolean_kernel_witness,
    check_certificate,
    col_vec,
    identity_matrix,
    is_row_stochastic,
    kernel_witness,
    carrier,
    mat_mul,
    matrix,
    non_exactness_instance,
    normalize,
    ones_row,
    principal_solution,
    row_vec,
    unscale_certificate,
    vec_add,
)
from semilin.sampling import random_column_stochastic, random_zero_one_col
from tests.oracles import (
    boolean_kernel_pair_reference,
    kernel_witness_reference,
    mat_mul_reference,
)

T = SemiringTag.TROPICAL
B = SemiringTag.BOOLEAN
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL


# --- alternative preimage of the all-ones row ---------------------------------


def test_preimage_from_row_sums():
    a = matrix(T, [[0, 0], [5, 3]])
    lam = alternative_ones_preimage(a)
    assert lam == row_vec(T, [0, -3])
    assert mat_mul(lam, a) == ones_row(T, 2)
    assert vec_add(ones_row(T, 2), lam) != ones_row(T, 2)


def test_preimage_zero_row_branch():
    a = matrix(T, [[0, 0], [INF, INF]])
    lam = alternative_ones_preimage(a)
    assert lam == row_vec(T, [0, -1])  # canonical element at the zero row
    assert mat_mul(lam, a) == ones_row(T, 2)


def test_preimage_guards():
    with pytest.raises(NotApplicableError):
        alternative_ones_preimage(identity_matrix(T, 2))  # row-stochastic
    with pytest.raises(NotApplicableError):
        alternative_ones_preimage(matrix(T, [[1, 2], [3, 4]]))  # not column-stochastic
    with pytest.raises(TooFewElementsError):
        alternative_ones_preimage(matrix(B, [[1], [1]]))


def test_preimage_random_instances():
    rng = Random(201)
    checked = 0
    while checked < 50:
        d, n = rng.randint(2, 5), rng.randint(1, 5)
        a = random_column_stochastic(
            T, d, n, rng, lambda r: INF if r.random() < 0.2 else Fraction(r.randint(-6, 6))
        )
        if is_row_stochastic(a):
            continue
        lam = alternative_ones_preimage(a)
        assert mat_mul(lam, a) == ones_row(T, n)
        assert vec_add(ones_row(T, d), lam) != ones_row(T, d)
        checked += 1


# --- kernel witness ---------------------------------------------------------------


def test_kernel_witness_rejects_non_binary_rhs():
    a = matrix(T, [[0], [0]])
    with pytest.raises(NotApplicableError):
        kernel_witness(a, col_vec(T, [3, 0]))


def test_kernel_witness_zero_rhs_detects_membership():
    a = matrix(T, [[0], [0]])
    with pytest.raises(MembershipDetectedError):
        kernel_witness(a, col_vec(T, [INF, INF]))


def test_kernel_witness_m_zero_example():
    # row 0 has no entry off the columns meeting Z = {1}: s_0 = inf, H = 0
    a = matrix(T, [[1, 2], [0, 0]])
    b = col_vec(T, [0, INF])
    u, v = kernel_witness(a, b)
    assert u == row_vec(T, [0, 0])
    assert v == row_vec(T, [INF, 0])
    assert mat_mul(u, a) == mat_mul(v, a) == row_vec(T, [0, 0])
    assert mat_mul(u, b) == Fraction(0)
    assert mat_mul(v, b) is INF
    assert check_certificate(a, b, u, v)


def test_kernel_witness_second_example():
    # H = min(0, 0 + 0 - 3, 0 + 2 - 0) = -3 dominates row 0 on both columns
    a = matrix(T, [[0, 2], [3, 0]])
    b = col_vec(T, [0, INF])
    u, v = kernel_witness(a, b)
    assert u == row_vec(T, [0, -3])
    assert v == row_vec(T, [INF, -3])
    assert mat_mul(u, a) == mat_mul(v, a) == row_vec(T, [0, -3])
    assert check_certificate(a, b, u, v)


def test_kernel_witness_k_equals_d():
    # b is all ones, so Z is empty: v is the ones row, u has s_1^-1 = -5 at the failing row
    a = matrix(T, [[0], [5]])
    b = col_vec(T, [0, 0])
    assert principal_solution(a, b) is None
    u, v = kernel_witness(a, b)
    assert u == row_vec(T, [0, -5])
    assert v == ones_row(T, 2)
    assert check_certificate(a, b, u, v)


def test_kernel_witness_detects_membership_via_q():
    # column 0 misses Z = {1} and row 0 sums to 0 there: b = A . indicator(column 0)
    a = matrix(T, [[0, 1], [INF, 0]])
    b = col_vec(T, [0, INF])
    with pytest.raises(MembershipDetectedError):
        kernel_witness(a, b)


def test_kernel_witness_random_nonmembers():
    rng = Random(202)
    produced = 0
    while produced < 60:
        d, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_column_stochastic(
            T, d, n, rng, lambda r: INF if r.random() < 0.25 else Fraction(r.randint(-6, 6))
        )
        b = random_zero_one_col(T, d, rng)
        if principal_solution(a, b) is not None:
            continue
        u, v = kernel_witness(a, b)
        assert check_certificate(a, b, u, v)
        # a valid pair never coexists with a solution
        assert principal_solution(a, b) is None
        produced += 1


def _scaled_tropical_systems(count: int, seed: int):
    """Column-stochastic (A, b) with b in {0,1}, then scaled by random invertible diagonals."""
    rng = Random(seed)
    for _ in range(count):
        d, n = rng.randint(1, 8), rng.randint(1, 8)
        a = random_column_stochastic(
            T, d, n, rng, lambda r: INF if r.random() < 0.25 else Fraction(r.randint(-9, 9))
        )
        b = random_zero_one_col(T, d, rng)
        c = carrier(T)
        rs = [c.random_nonzero(rng) for _ in range(d)]
        cs = [c.random_nonzero(rng) for _ in range(n)]
        scaled = tuple(
            tuple(c.mul(c.mul(rs[i], x), cs[j]) for j, x in enumerate(row))
            for i, row in enumerate(a.values)
        )
        yield matrix(T, scaled), col_vec(T, [c.mul(r, x) for r, x in zip(rs, b.values)])


def _raw_separates(a, b, u_raw, v_raw) -> bool:
    u, v = (row_vec(T, [INF if x == math.inf else x for x in w]) for w in (u_raw, v_raw))
    return mat_mul_reference(u, a) == mat_mul_reference(v, a) and (
        mat_mul_reference(u, b) != mat_mul_reference(v, b)
    )


def test_kernel_witness_matches_block_reference():
    """The closed form refutes exactly what residuation and the block construction refute.

    Each pair is checked on the normalized system and, mapped back through
    the row scaling, on the scaled one the solver would have been given.
    """
    refuted = members = 0
    for a, b in _scaled_tropical_systems(2000, 611):
        system = normalize(a, b)
        a_norm, b_norm = system.a_norm, system.b_norm
        reference = kernel_witness_reference(a_norm, b_norm)
        if principal_solution(a_norm, b_norm) is not None:
            assert reference is None
            with pytest.raises(MembershipDetectedError):
                kernel_witness(a_norm, b_norm)
            members += 1
            continue
        assert reference is not None and _raw_separates(a_norm, b_norm, *reference)
        u, v = kernel_witness(a_norm, b_norm)
        assert check_certificate(a_norm, b_norm, u, v)
        assert check_certificate(a, b, *unscale_certificate(system, u, v))
        refuted += 1
    assert refuted >= 500 and members >= 500


# --- boolean closed-form witness ----------------------------------------------------


def test_boolean_kernel_witness_example():
    a = matrix(B, [[1], [1]])
    b = col_vec(B, [1, 0])
    u, v = boolean_kernel_witness(a, b)
    # u = e_0 + 1_Z, v = 1_Z with Z = {1}, the rows where b is 0
    assert (u, v) == (row_vec(B, [1, 1]), row_vec(B, [0, 1]))
    assert check_certificate(a, b, u, v)


def test_boolean_kernel_witness_membership_detected():
    a = identity_matrix(B, 2)
    with pytest.raises(MembershipDetectedError):
        boolean_kernel_witness(a, col_vec(B, [1, 0]))


def _small_boolean_systems():
    """Every boolean system with d <= 3 rows and n <= 3 columns, zero columns included."""
    for d in range(1, 4):
        for n in range(4):
            for bits in product((0, 1), repeat=d * n + d):
                rows = [list(bits[i * n : (i + 1) * n]) for i in range(d)]
                yield matrix(B, rows), col_vec(B, bits[d * n :])


def _random_boolean_systems(count: int, seed: int):
    rng = Random(seed)
    for _ in range(count):
        d, n = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(d)]
        yield matrix(B, rows), col_vec(B, [rng.randint(0, 1) for _ in range(d)])


@pytest.mark.parametrize(
    "systems",
    [_small_boolean_systems, lambda: _random_boolean_systems(1000, 509)],
    ids=["every-d-n-up-to-3", "seeded-d-n-up-to-7"],
)
def test_boolean_kernel_witness_matches_exhaustive_search(systems):
    refuted = members = 0
    for a, b in systems():
        reference = boolean_kernel_pair_reference(a, b)
        if reference is None:
            with pytest.raises(MembershipDetectedError):
                boolean_kernel_witness(a, b)
            members += 1
        else:
            u, v = boolean_kernel_witness(a, b)
            assert check_certificate(a, b, u, v)
            refuted += 1
    assert refuted and members


def test_boolean_kernel_witness_does_no_exponential_work(monkeypatch):
    """At 10x10 the pair search made 2 * 2^10 products; the closed form only self-checks."""
    calls = 0
    original = semilin.witness.mat_mul

    def counting_mat_mul(x, y):
        nonlocal calls
        calls += 1
        return original(x, y)

    monkeypatch.setattr(semilin.witness, "mat_mul", counting_mat_mul)
    a = matrix(B, [[1] * 10] * 10)
    b = col_vec(B, [1] + [0] * 9)
    u, v = boolean_kernel_witness(a, b)
    assert calls <= 4
    assert check_certificate(a, b, u, v)


# --- the probe instance ---------------------------------------------------------------


def test_probe_instance_entries():
    a, b = non_exactness_instance(QP)
    assert a == matrix(QP, [[0, 1], [1, 1]])
    assert b == col_vec(QP, [2, 1])
    a_t, b_t = non_exactness_instance(T)
    assert b_t == col_vec(T, [0, 0])  # 1 + 1 = 1 here
    a_q, b_q = non_exactness_instance(Q)
    assert b_q == col_vec(Q, [2, 1])


def test_probe_instance_solvable_on_exact_carriers():
    from semilin import SolveKind, membership_certified

    for tag in (B, T, Q):
        a, b = non_exactness_instance(tag)
        assert membership_certified(a, b).kind is SolveKind.SOLUTION


def test_probe_grid_kernel_inclusion_nonneg():
    """Every grid pair in the left kernel of the probe matrix also fixes b."""
    a, b = non_exactness_instance(QP)
    grid = [Fraction(k, 2) for k in range(0, 7)]  # 0, 1/2, ..., 3
    pairs_in_kernel = 0
    for u_raw in product(grid, repeat=2):
        u = col_like_row(u_raw)
        for v_raw in product(grid, repeat=2):
            v = col_like_row(v_raw)
            if mat_mul(u, a) == mat_mul(v, a):
                pairs_in_kernel += 1
                assert mat_mul(u, b) == mat_mul(v, b)
    assert pairs_in_kernel >= 49  # at least the diagonal pairs


def col_like_row(values):
    return row_vec(QP, list(values))


def test_probe_unsolvable_on_nonneg_grid():
    a, b = non_exactness_instance(QP)
    grid = [Fraction(k, 4) for k in range(0, 17)]  # 0, 1/4, ..., 4
    for w_raw in product(grid, repeat=2):
        w = col_vec(QP, list(w_raw))
        assert mat_mul(a, w) != b


# --- certificate checking ---------------------------------------------------------------


def test_check_certificate_requires_separation():
    a = matrix(T, [[1, 2], [0, 0]])
    b = col_vec(T, [0, INF])
    u = row_vec(T, [0, 0])
    assert not check_certificate(a, b, u, u)
    assert check_certificate(a, b, u, row_vec(T, [-1, 0]))


def test_check_certificate_dimension_guard():
    a = matrix(T, [[1]])
    with pytest.raises(NotApplicableError):
        check_certificate(a, col_vec(T, [0]), row_vec(T, [0, 0]), row_vec(T, [0]))


@pytest.mark.parametrize("position", [1, 2, 3], ids=["b", "u", "v"])
def test_check_certificate_rejects_short_vectors(position):
    """A valid pair with one of b, u, v cut to its first entry raises instead
    of being compared on the prefix the other vectors share with it."""
    args = [matrix(B, [[1], [0]]), col_vec(B, [0, 1]), row_vec(B, [0, 1]), row_vec(B, [0, 0])]
    assert check_certificate(*args)
    args[position] = type(args[position])(B, args[position].values[:1])
    with pytest.raises(NotApplicableError):
        check_certificate(*args)


@pytest.mark.parametrize("position", range(4), ids=["a", "b", "u", "v"])
def test_check_certificate_rejects_mixed_carriers(position):
    """A valid rational pair with one container over the nonnegative rationals
    raises instead of being compared payload by payload."""
    args = [matrix(Q, [[1], [1]]), col_vec(Q, [1, 0]), row_vec(Q, [1, 0]), row_vec(Q, [0, 1])]
    nonneg = [matrix(QP, [[1], [1]]), col_vec(QP, [1, 0]), row_vec(QP, [1, 0]), row_vec(QP, [0, 1])]
    assert check_certificate(*args)
    args[position] = nonneg[position]
    with pytest.raises(TagMismatchError):
        check_certificate(*args)
