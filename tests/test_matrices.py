"""Matrix products, stochasticity predicates, and column-stochastic normalization."""

from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fractions import Fraction

from semilin import (
    INF,
    ColVec,
    DimensionMismatchError,
    Matrix,
    NotZeroSumFreeError,
    RowVec,
    SemiringTag,
    TagMismatchError,
    check_certificate,
    col_sums,
    col_vec,
    identity_matrix,
    is_column_stochastic,
    is_row_stochastic,
    carrier,
    mat_mul,
    matrix,
    membership_certified,
    normalize,
    row_sums,
    row_vec,
    transpose,
    SolveKind,
)
from semilin.sampling import (
    random_col_vec,
    random_monomial,
    random_row_vec,
    random_system,
)
from tests.oracles import mat_mul_reference, raw_rows, sums_reference
from tests.strategies import ZERO_SUM_FREE_TAGS, EXACT_TAGS, payloads, matrices, col_vecs

T = SemiringTag.TROPICAL
B = SemiringTag.BOOLEAN
Q = SemiringTag.RATIONAL


def test_boolean_row_selection():
    u = row_vec(B, [1, 0])
    a = matrix(B, [[1, 1], [0, 1]])
    assert mat_mul(u, a) == row_vec(B, [1, 1])


def test_tropical_row_product():
    u = row_vec(T, [0, 0])
    a = matrix(T, [[1, 2], [0, 0]])
    assert mat_mul(u, a) == row_vec(T, [0, 0])


@pytest.mark.parametrize("tag", [B, T, Q])
def test_unit_matrix_is_neutral(tag):
    a = matrix(tag, [[1, 0, 1], [0, 1, 1]])
    assert mat_mul(identity_matrix(tag, 2), a) == a
    assert mat_mul(a, identity_matrix(tag, 3)) == a


def test_mat_mul_mismatches():
    with pytest.raises(DimensionMismatchError):
        mat_mul(row_vec(T, [0]), matrix(T, [[1], [2]]))
    with pytest.raises(TagMismatchError):
        mat_mul(row_vec(B, [1]), matrix(T, [[1]]))
    with pytest.raises(TypeError):
        mat_mul(col_vec(T, [1]), col_vec(T, [1]))


def test_containers_take_no_lists():
    """A list would stay shared with the caller, who could then change the container."""
    values = [Fraction(1), Fraction(2)]
    with pytest.raises(TypeError):
        RowVec(T, values)
    with pytest.raises(TypeError):
        ColVec(T, values)
    with pytest.raises(TypeError):
        Matrix(T, 2, 2, (tuple(values), values))
    with pytest.raises(TypeError):
        Matrix(T, 1, 2, [tuple(values)])
    v = RowVec(T, tuple(values))
    values.append(Fraction(3))
    assert v.length == 2 and hash(v) == hash(row_vec(T, [1, 2]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Matrix("tropical", 1, 1, ((Fraction(1),),)),
        lambda: ColVec(T, ("1",)),
        lambda: ColVec(Q, (INF,)),
        lambda: RowVec(B, (True,)),
        lambda: RowVec(B, (Fraction(1),)),
        lambda: Matrix(T, 1, 2, ((Fraction(1), 3),)),
    ],
    ids=["str-tag", "token", "inf-rational", "true-boolean", "fraction-boolean", "int-tropical"],
)
def test_containers_reject_what_is_not_a_payload(build):
    with pytest.raises(TypeError):
        build()


def test_zero_column_matrix_product():
    a = Matrix(T, 2, 0, ((), ()))
    assert mat_mul(a, ColVec(T, ())) == col_vec(T, [INF, INF])


@pytest.mark.parametrize("tag", [B, T, Q])
@given(data=st.data())
@settings(max_examples=40)
def test_mat_mul_associative(tag, data):
    x = data.draw(matrices(tag, 3))
    y = data.draw(
        st.lists(
            st.lists(payloads(tag), min_size=2, max_size=2), min_size=x.cols, max_size=x.cols
        ).map(lambda rows: matrix(tag, rows))
    )
    z = data.draw(col_vecs(tag, 2))
    assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))


_RAW_DRAWS = {
    B: lambda rng: rng.randint(0, 1),
    T: lambda rng: INF if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
    SemiringTag.NONNEG_RATIONAL: lambda rng: Fraction(rng.randint(0, 9), rng.randint(1, 3)),
    Q: lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
}


@pytest.mark.parametrize("tag", list(SemiringTag))
def test_mat_mul_matches_raw_reference(tag):
    """Every operand pairing, with zero-column operands, against the raw-payload loop."""
    rng = Random(f"mat-mul-{tag.value}")

    def entries(count):
        return col_vec(tag, [_RAW_DRAWS[tag](rng) for _ in range(count)]).values

    def mat(d, n):
        return Matrix(tag, d, n, tuple(entries(n) for _ in range(d)))

    for k in range(150):
        d, n, m = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4)
        pairs = [
            (mat(d, n), ColVec(tag, entries(n))),
            (RowVec(tag, entries(d)), mat(d, n)),
            (RowVec(tag, entries(n)), ColVec(tag, entries(n))),
        ]
        if n > 0:
            pairs.append((mat(d, n), mat(n, m)))
        for x, y in pairs:
            assert raw_rows(mat_mul(x, y)) == mat_mul_reference(x, y), (x, y)
        a = pairs[0][0]
        if n > 0:
            assert raw_rows(transpose(a)) == [list(col) for col in zip(*raw_rows(a))]
            assert transpose(transpose(a)) == a
        sums = ([raw_rows(s)[0][0] for s in col_sums(a)], [raw_rows(s)[0][0] for s in row_sums(a)])
        assert sums == sums_reference(a), a
        seed = f"vec-{tag.value}-{k}"
        draws = random_row_vec(tag, n, Random(seed)).values
        assert random_col_vec(tag, n, Random(seed)).values == draws
        payloads_rng = Random(seed)
        assert draws == tuple(carrier(tag).random(payloads_rng) for _ in range(n))


def test_stochastic_predicates():
    a = matrix(T, [[0, 0], [5, 3]])
    assert is_column_stochastic(a)
    assert not is_row_stochastic(a)
    e = identity_matrix(T, 3)
    assert is_column_stochastic(e) and is_row_stochastic(e)
    assert is_column_stochastic(matrix(B, [[1], [1]]))


# --- normalization --------------------------------------------------------------


def test_normalize_tropical_example():
    a = matrix(T, [[2, 5], [1, INF]])
    b = col_vec(T, [3, 4])
    system = normalize(a, b)
    assert list(system.row_scale) == [3, 4]
    assert list(system.col_scale) == [-3, 2]
    assert system.a_norm == matrix(T, [[2, 0], [0, INF]])
    assert system.b_norm == col_vec(T, [0, 0])
    assert system.kept_columns == (0, 1)


def test_normalize_identity_scaling():
    a = matrix(T, [[0, 2], [3, 0]])
    b = col_vec(T, [0, 0])  # all ones of the carrier
    system = normalize(a, b)
    assert system.a_norm == a
    assert system.b_norm == b
    assert all(s == carrier(T).one for s in system.row_scale)
    assert all(s == carrier(T).one for s in system.col_scale)


def test_normalize_boolean_example():
    a = matrix(B, [[1], [1]])
    b = col_vec(B, [1, 0])
    system = normalize(a, b)
    assert system.a_norm == a
    assert system.b_norm == b
    assert list(system.row_scale) == [1, 1]
    assert list(system.col_scale) == [1]


def test_normalize_rejects_rational():
    with pytest.raises(NotZeroSumFreeError):
        normalize(matrix(Q, [[1]]), col_vec(Q, [1]))


def _diag(tag, entries):
    z = carrier(tag).zero
    size = len(entries)
    return matrix(tag, [[entries[i] if i == j else z for j in range(size)] for i in range(size)])


@pytest.mark.parametrize("tag", ZERO_SUM_FREE_TAGS)
@given(data=st.data())
@settings(max_examples=40)
def test_normalize_invariants_and_round_trip(tag, data):
    a = data.draw(matrices(tag, 3))
    b = data.draw(col_vecs(tag, a.rows))
    system = normalize(a, b)
    assert is_column_stochastic(system.a_norm)
    assert all(x in (carrier(tag).zero, carrier(tag).one) for x in system.b_norm.values)
    # C . a_norm . D recovers A restricted to kept columns, C . b_norm recovers b
    c = _diag(tag, list(system.row_scale))
    restored = mat_mul(c, system.a_norm)
    if system.a_norm.cols:
        restored = mat_mul(restored, _diag(tag, list(system.col_scale)))
    kept = Matrix(
        tag,
        a.rows,
        len(system.kept_columns),
        tuple(tuple(a.values[i][j] for j in system.kept_columns) for i in range(a.rows)),
    )
    assert restored == kept
    assert mat_mul(c, system.b_norm) == b


def test_inflate_solution_zeroes_dropped_columns():
    a = matrix(T, [[INF, 0], [INF, 3]])  # first column entirely zero
    b = col_vec(T, [2, 5])
    system = normalize(a, b)
    assert system.kept_columns == (1,)
    result = membership_certified(a, b)
    assert result.kind is SolveKind.SOLUTION
    assert result.w.values[0] == carrier(T).zero
    assert mat_mul(a, result.w) == b


# --- scaling invariance -----------------------------------------------------------


@pytest.mark.parametrize("tag", EXACT_TAGS)
def test_scaling_invariance_smoke(tag):
    rng = Random(2024)
    for _ in range(30):
        a, b = random_system(tag, rng, max_dim=4)
        c, c_inv = random_monomial(tag, a.rows, rng)
        d, _ = random_monomial(tag, a.cols, rng)
        scaled_a = mat_mul(mat_mul(c, a), d)
        scaled_b = mat_mul(c, b)
        base = membership_certified(a, b)
        scaled = membership_certified(scaled_a, scaled_b)
        assert base.kind is scaled.kind
        if base.kind is SolveKind.REFUTATION:
            u_mapped = mat_mul(base.u, c_inv)
            v_mapped = mat_mul(base.v, c_inv)
            assert check_certificate(scaled_a, scaled_b, u_mapped, v_mapped)
