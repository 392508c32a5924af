"""Carrier arithmetic: frozen examples and the algebraic laws."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from semilin import (
    INF,
    SemiringTag,
    TagMismatchError,
    TooFewElementsError,
    InvertZeroError,
    add,
    col_vec,
    descriptor,
    element,
    element_not_below_one,
    format_element,
    inv,
    matrix,
    mul,
    nat_geq,
    one,
    parse_element,
    row_vec,
    zero,
)
from tests.strategies import ALL_TAGS, IDEMPOTENT_TAGS, ZERO_SUM_FREE_TAGS, elements, nonzero_elements

T = SemiringTag.TROPICAL
B = SemiringTag.BOOLEAN
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL


def test_tropical_add_is_min():
    assert add(element(T, 3), element(T, 5)) == element(T, 3)


def test_boolean_add_is_or():
    assert add(element(B, 1), element(B, 1)) == element(B, 1)


def test_tropical_mul_is_plus():
    assert mul(element(T, 3), element(T, 5)) == element(T, 8)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_identities(tag):
    x = element(tag, 1)
    assert add(x, zero(tag)) == x
    assert mul(x, zero(tag)) == zero(tag)
    assert mul(x, one(tag)) == x


def test_inv_examples():
    assert inv(element(T, 3)) == element(T, -3)
    assert inv(element(Q, Fraction(2, 3))) == element(Q, Fraction(3, 2))
    assert mul(element(T, 3), inv(element(T, 3))) == one(T)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_inv_of_zero_raises(tag):
    with pytest.raises(InvertZeroError):
        inv(zero(tag))


def test_nat_geq_examples():
    assert nat_geq(element(T, 2), element(T, 5))
    assert not nat_geq(element(T, 5), element(T, 2))
    assert nat_geq(element(B, 1), element(B, 0))


def test_element_not_below_one_canonical():
    assert element_not_below_one(T) == element(T, -1)
    assert element_not_below_one(QP) == element(QP, 2)
    assert element_not_below_one(Q) == element(Q, 2)
    with pytest.raises(TooFewElementsError):
        element_not_below_one(B)


@pytest.mark.parametrize("tag", [T, QP, Q])
def test_element_not_below_one_contract(tag):
    lam = element_not_below_one(tag)
    assert add(one(tag), lam) != one(tag)


def test_cross_tag_arithmetic_rejected():
    with pytest.raises(TagMismatchError):
        add(element(T, 1), element(Q, 1))
    with pytest.raises(TagMismatchError):
        mul(element(B, 1), element(T, 1))


def test_exactness_discipline():
    with pytest.raises(TypeError):
        element(T, 0.5)
    with pytest.raises(TypeError):
        element(B, True)
    with pytest.raises(ValueError):
        element(QP, -1)
    with pytest.raises(ValueError):
        element(Q, INF)
    with pytest.raises(ValueError):
        element(B, 2)


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
    assert format_element(parse_element(tag, token)) == canonical


@pytest.mark.parametrize(
    "tag,token",
    [
        (B, "2"), (B, "inf"), (T, "x"), (Q, "1/0"), (QP, "-1"), (Q, "inf"),
        (Q, "0.5"), (T, "2.5e1"), (QP, "1_0"), (Q, "1e5000"),
    ],
)
def test_parse_element_rejects(tag, token):
    with pytest.raises(ValueError):
        parse_element(tag, token)


def test_builders_read_strings_with_the_token_grammar():
    """A string given to ``element`` or a builder is a token, read as ``parse_element`` reads it."""
    assert matrix(T, [["inf"]]).values == ((INF,),)
    assert element(T, " 1/2 ") == parse_element(T, "1/2")
    assert col_vec(Q, ["-2/4"]).values == (Fraction(-1, 2),)
    assert element(B, "1").value == 1 and type(element(B, "1").value) is int
    for build in (
        lambda: col_vec(Q, ["1e3"]),
        lambda: col_vec(Q, ["1_0"]),
        lambda: element(B, "0.0"),
        lambda: row_vec(T, ["1/0"]),
    ):
        with pytest.raises(ValueError):
            build()


def test_builders_coerce_non_strings_as_before():
    assert element(T, 3).value == Fraction(3)
    assert element(Q, Fraction(2, 4)).value == Fraction(1, 2)
    assert element(T, element(T, INF)) == zero(T)
    assert element(B, Fraction(1)).value == 1 and type(element(B, Fraction(1)).value) is int


@pytest.mark.parametrize("tag", ALL_TAGS)
@given(data=st.data())
def test_format_parse_roundtrip(tag, data):
    e = data.draw(elements(tag))
    assert parse_element(tag, format_element(e)) == e


# --- semiring axioms ----------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS)
@given(data=st.data())
def test_semiring_axioms(tag, data):
    a = data.draw(elements(tag))
    b = data.draw(elements(tag))
    c = data.draw(elements(tag))
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert mul(a, zero(tag)) == zero(tag)
    assert mul(zero(tag), a) == zero(tag)


@pytest.mark.parametrize("tag", IDEMPOTENT_TAGS)
@given(data=st.data())
def test_natural_order_laws(tag, data):
    p = data.draw(elements(tag))
    q = data.draw(elements(tag))
    r = data.draw(elements(tag))
    s = data.draw(elements(tag))
    assert add(p, p) == p
    assert nat_geq(p, p)
    if nat_geq(p, q) and nat_geq(q, r):
        assert nat_geq(p, r)
    if nat_geq(p, q) and nat_geq(q, p):
        assert p == q
    if nat_geq(p, r) and nat_geq(q, s):
        assert nat_geq(add(p, q), add(r, s))
        assert nat_geq(mul(p, q), mul(r, s))


@pytest.mark.parametrize("tag", ZERO_SUM_FREE_TAGS)
@given(data=st.data())
def test_zero_sum_free(tag, data):
    p = data.draw(elements(tag))
    q = data.draw(elements(tag))
    if add(p, q) == zero(tag):
        assert p == zero(tag) and q == zero(tag)


@pytest.mark.parametrize("tag", ALL_TAGS)
@given(data=st.data())
def test_inv_involution(tag, data):
    a = data.draw(nonzero_elements(tag))
    assert inv(inv(a)) == a
    assert mul(a, inv(a)) == one(tag)


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
