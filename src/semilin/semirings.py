"""The four built-in semifield carriers and their exact scalar arithmetic.

A scalar is an :class:`Element`: a carrier tag plus an exact payload (a bit
for the two-element carrier, a fraction or the distinguished infinity for the
min-plus carrier, a fraction for the rational carriers).  Floats are rejected
everywhere; every identity the algebra promises holds bit-exactly.

Elements are immutable values.  All operations here are pure and reentrant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Literal, Union

from .errors import (
    InternalInvariantError,
    InvertZeroError,
    TagMismatchError,
    TooFewElementsError,
)


class SemiringTag(str, Enum):
    """Names one of the built-in carriers."""

    BOOLEAN = "boolean"
    TROPICAL = "tropical"
    NONNEG_RATIONAL = "nonneg-rational"
    RATIONAL = "rational"


class _Infinity:
    """The tropical additive identity.  A singleton, equal only to itself."""

    __slots__ = ()
    _instance: "_Infinity | None" = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()

Payload = Union[int, Fraction, _Infinity]


@dataclass(frozen=True, slots=True)
class Element:
    """A scalar in one of the four carriers.

    Cross-tag arithmetic is rejected; construct values through
    :func:`element`, :func:`zero`, :func:`one` or :func:`parse_element`.
    """

    tag: SemiringTag
    value: Payload

    def __post_init__(self) -> None:
        tag, value = self.tag, self.value
        if tag is SemiringTag.BOOLEAN:
            if not (type(value) is int and value in (0, 1)):
                raise ValueError(f"boolean payload must be the int 0 or 1, got {value!r}")
        elif tag is SemiringTag.TROPICAL:
            if not (value is INF or type(value) is Fraction):
                raise ValueError(f"tropical payload must be a Fraction or inf, got {value!r}")
        else:
            if type(value) is not Fraction:
                raise ValueError(f"{tag.value} payload must be a Fraction, got {value!r}")
            if tag is SemiringTag.NONNEG_RATIONAL and value < 0:
                raise ValueError(f"nonneg-rational payload must be >= 0, got {value}")

    def __repr__(self) -> str:
        return f"Element({self.tag.value}, {format_element(self)})"


def element(tag: SemiringTag | str, value) -> Element:
    """Coerce an exact raw value into an Element of the given carrier.

    Accepts ints, Fractions, INF (tropical only) and Elements of the same
    tag.  Floats and bools are rejected: this toolkit is exact-only.
    """
    tag = SemiringTag(tag)
    if isinstance(value, Element):
        if value.tag is not tag:
            raise TagMismatchError(f"cannot reuse a {value.tag.value} element as {tag.value}")
        return value
    if isinstance(value, bool):
        raise TypeError("pass 0/1 ints, not bools")
    if isinstance(value, float):
        raise TypeError(f"floats are not exact; got {value!r}")
    if tag is SemiringTag.BOOLEAN:
        if value not in (0, 1):
            raise ValueError(f"boolean carrier holds exactly 0 and 1, got {value!r}")
        return Element(tag, int(value))
    if value is INF:
        if tag is not SemiringTag.TROPICAL:
            raise ValueError(f"inf is not a {tag.value} value")
        return Element(tag, INF)
    return Element(tag, Fraction(value))


def zero(tag: SemiringTag | str) -> Element:
    """Additive identity of the carrier (inf for tropical)."""
    tag = SemiringTag(tag)
    if tag is SemiringTag.BOOLEAN:
        return Element(tag, 0)
    if tag is SemiringTag.TROPICAL:
        return Element(tag, INF)
    return Element(tag, Fraction(0))


def one(tag: SemiringTag | str) -> Element:
    """Multiplicative identity of the carrier (the numeral 0 for tropical)."""
    tag = SemiringTag(tag)
    if tag is SemiringTag.BOOLEAN:
        return Element(tag, 1)
    if tag is SemiringTag.TROPICAL:
        return Element(tag, Fraction(0))
    return Element(tag, Fraction(1))


def _same_tag(a: Element, b: Element) -> SemiringTag:
    if a.tag is not b.tag:
        raise TagMismatchError(f"mixed carriers: {a.tag.value} and {b.tag.value}")
    return a.tag


def add(a: Element, b: Element) -> Element:
    """Carrier addition: or for boolean, min for tropical, + for rationals."""
    tag = _same_tag(a, b)
    if tag is SemiringTag.BOOLEAN:
        return Element(tag, a.value | b.value)
    if tag is SemiringTag.TROPICAL:
        if a.value is INF:
            return b
        if b.value is INF:
            return a
        return a if a.value <= b.value else b
    return Element(tag, a.value + b.value)


def mul(a: Element, b: Element) -> Element:
    """Carrier multiplication: and for boolean, + (inf absorbing) for tropical."""
    tag = _same_tag(a, b)
    if tag is SemiringTag.BOOLEAN:
        return Element(tag, a.value & b.value)
    if tag is SemiringTag.TROPICAL:
        if a.value is INF or b.value is INF:
            return Element(tag, INF)
        return Element(tag, a.value + b.value)
    return Element(tag, a.value * b.value)


def inv(a: Element) -> Element:
    """Multiplicative inverse; raises InvertZeroError on the additive identity."""
    if a == zero(a.tag):
        raise InvertZeroError(f"the {a.tag.value} additive identity has no inverse")
    if a.tag is SemiringTag.BOOLEAN:
        return a
    if a.tag is SemiringTag.TROPICAL:
        return Element(a.tag, -a.value)
    return Element(a.tag, 1 / a.value)


def nat_geq(p: Element, q: Element) -> bool:
    """Natural-order comparison: p >= q iff p + q = p.

    A genuine partial order on the idempotent carriers; on the rational
    carriers it is just the raw predicate (true only when q = 0).
    """
    _same_tag(p, q)
    return add(p, q) == p


def element_not_below_one(tag: SemiringTag | str) -> Element:
    """Return some lam with 1 + lam != 1.

    Exists whenever the carrier has at least three elements: pick a canonical
    a outside {0, 1}; if 1 + a != 1 take a, otherwise its inverse qualifies.
    The two-element carrier has no such lam.
    """
    tag = SemiringTag(tag)
    if tag is SemiringTag.BOOLEAN:
        raise TooFewElementsError("the boolean carrier has only two elements")
    if tag is SemiringTag.TROPICAL:
        candidate = element(tag, 1)
    else:
        candidate = element(tag, 2)
    lam = candidate if not nat_geq(one(tag), candidate) else inv(candidate)
    if add(one(tag), lam) == one(tag):
        raise InternalInvariantError("canonical element unexpectedly below one")
    return lam


CarrierSize = Literal["two", "infinite"]


@dataclass(frozen=True)
class SemiringDescriptor:
    """Axiom flags of a semifield carrier, the inputs to exactness classification.

    ``exists_absorbing_e`` records whether some e satisfies 1 + 1 + e = 1.
    """

    tag: SemiringTag
    is_idempotent: bool
    has_minus_one: bool
    is_zero_sum_free: bool
    exists_absorbing_e: bool
    carrier_size: CarrierSize


_DESCRIPTORS = {
    SemiringTag.BOOLEAN: SemiringDescriptor(
        SemiringTag.BOOLEAN,
        is_idempotent=True,
        has_minus_one=False,
        is_zero_sum_free=True,
        exists_absorbing_e=True,  # e = 1
        carrier_size="two",
    ),
    SemiringTag.TROPICAL: SemiringDescriptor(
        SemiringTag.TROPICAL,
        is_idempotent=True,
        has_minus_one=False,
        is_zero_sum_free=True,
        exists_absorbing_e=True,  # e = 1
        carrier_size="infinite",
    ),
    SemiringTag.NONNEG_RATIONAL: SemiringDescriptor(
        SemiringTag.NONNEG_RATIONAL,
        is_idempotent=False,
        has_minus_one=False,
        is_zero_sum_free=True,
        exists_absorbing_e=False,  # 1 + 1 + e >= 2 for every e >= 0
        carrier_size="infinite",
    ),
    SemiringTag.RATIONAL: SemiringDescriptor(
        SemiringTag.RATIONAL,
        is_idempotent=False,
        has_minus_one=True,
        is_zero_sum_free=False,
        exists_absorbing_e=True,  # e = -1
        carrier_size="infinite",
    ),
}


def descriptor(tag: SemiringTag | str) -> SemiringDescriptor:
    """Hard-coded descriptor of one of the four built-in carriers."""
    return _DESCRIPTORS[SemiringTag(tag)]


# --- token grammar, shared with the CLI instance format ---------------------
#
#   boolean            0 | 1
#   rational carriers  optional sign, integer or p/q (any p/q in, lowest terms out)
#   tropical           rational token, or `inf` for the additive identity
#
# Decimals, exponents and underscores are rejected, so the size of every
# number the solver meets is bounded by the length of the input text.

_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def format_element(e: Element) -> str:
    """Canonical token for an element."""
    if e.tag is SemiringTag.BOOLEAN:
        return str(e.value)
    if e.value is INF:
        return "inf"
    return str(e.value)


def parse_element(tag: SemiringTag | str, token: str) -> Element:
    """Parse one token of the grammar above; raises ValueError on bad tokens."""
    tag = SemiringTag(tag)
    token = token.strip()
    if tag is SemiringTag.BOOLEAN:
        if token == "0":
            return zero(tag)
        if token == "1":
            return one(tag)
        raise ValueError(f"boolean token must be 0 or 1, got {token!r}")
    if tag is SemiringTag.TROPICAL and token == "inf":
        return zero(tag)
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"bad {tag.value} token {token!r}: expected an integer or p/q")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {tag.value} token {token!r}: {exc}") from None
    if tag is SemiringTag.NONNEG_RATIONAL and value < 0:
        raise ValueError(f"nonneg-rational token must be >= 0, got {token!r}")
    return Element(tag, value)
