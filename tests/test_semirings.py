"""Carrier arithmetic on raw payloads: frozen examples and the algebraic laws."""

from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from semilin import (
    INF,
    SemiringTag,
    TagMismatchError,
    TooFewElementsError,
    alternative_ones_preimage,
    carrier,
    col_vec,
    descriptor,
    mat_mul,
    matrix,
    row_vec,
    vec_add,
)
from tests.strategies import (
    ALL_TAGS,
    IDEMPOTENT_TAGS,
    ZERO_SUM_FREE_TAGS,
    nonzero_payloads,
    payloads,
)

T = SemiringTag.TROPICAL
B = SemiringTag.BOOLEAN
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL


def nat_geq(tag, p, q) -> bool:
    """Natural-order comparison: p >= q iff p + q = p."""
    return carrier(tag).add(p, q) == p


def test_tropical_add_is_min():
    assert carrier(T).add(Fraction(3), Fraction(5)) == Fraction(3)


def test_boolean_add_is_or():
    assert carrier(B).add(1, 1) == 1


def test_tropical_mul_is_plus():
    assert carrier(T).mul(Fraction(3), Fraction(5)) == Fraction(8)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_identities(tag):
    c = carrier(tag)
    (x,) = col_vec(tag, [1]).values
    assert c.add(x, c.zero) == x
    assert c.mul(x, c.zero) == c.zero
    assert c.mul(x, c.one) == x


def test_inv_examples():
    t = carrier(T)
    assert t.inv(Fraction(3)) == Fraction(-3)
    assert carrier(Q).inv(Fraction(2, 3)) == Fraction(3, 2)
    assert t.mul(Fraction(3), t.inv(Fraction(3))) == t.one


def test_nat_geq_examples():
    assert nat_geq(T, Fraction(2), Fraction(5))
    assert not nat_geq(T, Fraction(5), Fraction(2))
    assert nat_geq(B, 1, 0)


def test_element_not_below_one_canonical():
    """The lam of ``alternative_ones_preimage``'s zero-row branch: -1 on min-plus."""
    lam = alternative_ones_preimage(matrix(T, [[0, 0], [INF, INF]]))
    assert lam == row_vec(T, [0, -1])
    with pytest.raises(TooFewElementsError):
        alternative_ones_preimage(matrix(B, [[1], [1]]))


@pytest.mark.parametrize("tag", [T, QP, Q])
def test_element_not_below_one_contract(tag):
    """Every carrier with more than two elements has a lam with 1 + lam != 1: the
    least positive integer payload outside {0, 1}, or its inverse."""
    c = carrier(tag)
    p = Fraction(next(k for k in (1, 2) if k not in (c.zero, c.one)))
    lam = p if c.add(c.one, p) != c.one else c.inv(p)
    assert c.add(c.one, lam) != c.one


def test_cross_tag_arithmetic_rejected():
    with pytest.raises(TagMismatchError):
        mat_mul(row_vec(T, [1]), col_vec(Q, [1]))
    with pytest.raises(TagMismatchError):
        vec_add(row_vec(B, [1]), row_vec(T, [1]))


def test_exactness_discipline():
    with pytest.raises(TypeError):
        col_vec(T, [0.5])
    with pytest.raises(TypeError):
        row_vec(B, [True])
    with pytest.raises(ValueError):
        col_vec(QP, [-1])
    with pytest.raises(ValueError):
        col_vec(Q, [INF])
    with pytest.raises(ValueError):
        matrix(B, [[2]])


@pytest.mark.parametrize(
    "value",
    [Decimal("Infinity"), Decimal("1"), Decimal("0.5"), complex(1, 0), 1.0, float("inf"), None],
    ids=["decimal-infinity", "decimal-int", "decimal-half", "complex", "float", "float-inf", "none"],
)
def test_builders_reject_other_types_with_type_error(value):
    """Only ints, Fractions, INF and tokens are builder input; a Decimal infinity
    used to escape as OverflowError and a finite Decimal used to pass."""
    for build in (col_vec, row_vec, lambda tag, xs: matrix(tag, [xs])):
        with pytest.raises(TypeError):
            build(T, [value])


# --- token grammar ------------------------------------------------------------


@pytest.mark.parametrize(
    "tag,token,canonical",
    [
        (B, "0", "0"),
        (B, "1", "1"),
        (T, "inf", "inf"),
        (T, "-3", "-3"),
        (T, "1/2", "1/2"),
        (Q, "2/4", "1/2"),
        (Q, "+3", "3"),
        (QP, "0", "0"),
    ],
)
def test_parse_element_canonicalizes(tag, token, canonical):
    c = carrier(tag)
    assert c.format(c.parse(token)) == canonical


@pytest.mark.parametrize(
    "tag,token",
    [
        (B, "2"), (B, "inf"), (T, "x"), (Q, "1/0"), (QP, "-1"), (Q, "inf"),
        (Q, "0.5"), (T, "2.5e1"), (QP, "1_0"), (Q, "1e5000"),
    ],
)
def test_parse_element_rejects(tag, token):
    with pytest.raises(ValueError):
        carrier(tag).parse(token)


def test_builders_read_strings_with_the_token_grammar():
    """A string given to a builder is a token, read as the carrier's ``parse`` reads it."""
    assert matrix(T, [["inf"]]).values == ((INF,),)
    assert col_vec(T, [" 1/2 "]).values == (carrier(T).parse("1/2"),)
    assert col_vec(Q, ["-2/4"]).values == (Fraction(-1, 2),)
    (bit,) = col_vec(B, ["1"]).values
    assert bit == 1 and type(bit) is int
    for build in (
        lambda: col_vec(Q, ["1e3"]),
        lambda: col_vec(Q, ["1_0"]),
        lambda: col_vec(B, ["0.0"]),
        lambda: row_vec(T, ["1/0"]),
    ):
        with pytest.raises(ValueError):
            build()


def test_builders_coerce_non_strings_as_before():
    assert col_vec(T, [3]).values == (Fraction(3),)
    assert type(col_vec(T, [3]).values[0]) is Fraction
    assert col_vec(Q, [Fraction(2, 4)]).values == (Fraction(1, 2),)
    assert col_vec(T, [INF]).values == (carrier(T).zero,)
    (bit,) = col_vec(B, [Fraction(1)]).values
    assert bit == 1 and type(bit) is int


@pytest.mark.parametrize("tag", ALL_TAGS)
@given(data=st.data())
def test_format_parse_roundtrip(tag, data):
    c = carrier(tag)
    x = data.draw(payloads(tag))
    assert c.parse(c.format(x)) == x


# --- semiring axioms ----------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS)
@given(data=st.data())
def test_semiring_axioms(tag, data):
    k = carrier(tag)
    add, mul, zero = k.add, k.mul, k.zero
    a = data.draw(payloads(tag))
    b = data.draw(payloads(tag))
    c = data.draw(payloads(tag))
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert mul(a, zero) == zero
    assert mul(zero, a) == zero


@pytest.mark.parametrize("tag", IDEMPOTENT_TAGS)
@given(data=st.data())
def test_natural_order_laws(tag, data):
    add, mul = carrier(tag).add, carrier(tag).mul
    p = data.draw(payloads(tag))
    q = data.draw(payloads(tag))
    r = data.draw(payloads(tag))
    s = data.draw(payloads(tag))
    assert add(p, p) == p
    assert nat_geq(tag, p, p)
    if nat_geq(tag, p, q) and nat_geq(tag, q, r):
        assert nat_geq(tag, p, r)
    if nat_geq(tag, p, q) and nat_geq(tag, q, p):
        assert p == q
    if nat_geq(tag, p, r) and nat_geq(tag, q, s):
        assert nat_geq(tag, add(p, q), add(r, s))
        assert nat_geq(tag, mul(p, q), mul(r, s))


@pytest.mark.parametrize("tag", ZERO_SUM_FREE_TAGS)
@given(data=st.data())
def test_zero_sum_free(tag, data):
    c = carrier(tag)
    p = data.draw(payloads(tag))
    q = data.draw(payloads(tag))
    if c.add(p, q) == c.zero:
        assert p == c.zero and q == c.zero


@pytest.mark.parametrize("tag", ALL_TAGS)
@given(data=st.data())
def test_inv_involution(tag, data):
    c = carrier(tag)
    a = data.draw(nonzero_payloads(tag))
    assert c.inv(c.inv(a)) == a
    assert c.mul(a, c.inv(a)) == c.one


# --- descriptors ---------------------------------------------------------------


def test_builtin_descriptor_flags():
    b = descriptor(B)
    assert (b.is_idempotent, b.has_minus_one, b.is_zero_sum_free) == (True, False, True)
    assert b.exists_absorbing_e and b.carrier_size == "two"
    t = descriptor(T)
    assert (t.is_idempotent, t.has_minus_one, t.is_zero_sum_free) == (True, False, True)
    assert t.exists_absorbing_e and t.carrier_size == "infinite"
    qp = descriptor(QP)
    assert (qp.is_idempotent, qp.has_minus_one, qp.is_zero_sum_free) == (False, False, True)
    assert not qp.exists_absorbing_e
    q = descriptor(Q)
    assert (q.is_idempotent, q.has_minus_one, q.is_zero_sum_free) == (False, True, False)
    assert q.exists_absorbing_e


def test_descriptor_idempotent_implies_zero_sum_free():
    for tag in ALL_TAGS:
        d = descriptor(tag)
        assert (not d.is_idempotent) or d.is_zero_sum_free
        assert carrier(tag).descriptor is d
