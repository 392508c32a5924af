"""The four built-in semifield carriers and their exact scalar arithmetic.

A scalar is a raw payload: a bit (int 0 or 1) for the two-element carrier, a
Fraction or the distinguished infinity ``INF`` for the min-plus carrier, a
Fraction for the rational carriers.  Floats are rejected everywhere; every
identity the algebra promises holds bit-exactly.

Everything that differs between carriers is one :class:`Carrier` record per
tag, returned by :func:`carrier`: raw-payload arithmetic, the payload check,
the token grammar, the samplers and the axiom flags.  That table is the only
place in the package that branches on the tag; every other function reads a
field.  All operations are pure and reentrant.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Literal, Union


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


def descriptor(tag: SemiringTag | str) -> SemiringDescriptor:
    """Hard-coded descriptor of one of the four built-in carriers."""
    return _CARRIERS[SemiringTag(tag)].descriptor


def carrier(tag: SemiringTag | str) -> Carrier:
    """The record of one of the four built-in carriers: its payloads and operations."""
    return _CARRIERS[SemiringTag(tag)]


# --- the carrier table ----------------------------------------------------------


@dataclass(frozen=True)
class Carrier:
    """One carrier's payloads and operations; all fields act on raw payloads.

    ``inv`` is never called on ``zero``; ``check`` is the payload invariant of
    the containers; ``unscale(x, l)`` is the payload x/l of an
    integer-scaled payload x (INF stays INF); ``parse`` takes a stripped token
    and raises ValueError on a bad one; ``random`` and ``random_nonzero`` are
    the samplers' draws, in a fixed RNG order so that seeded runs reproduce.
    """

    descriptor: SemiringDescriptor
    zero: Payload
    one: Payload
    add: Callable[[Payload, Payload], Payload]
    mul: Callable[[Payload, Payload], Payload]
    inv: Callable[[Payload], Payload]
    check: Callable[[object], bool]
    parse: Callable[[str], Payload]
    format: Callable[[Payload], str]
    random: Callable[[Random], Payload]
    random_nonzero: Callable[[Random], Payload]
    unscale: Callable[[Payload, int], Payload] = Fraction


# --- token grammar, shared with the CLI instance format ---------------------
#
#   boolean            0 | 1
#   rational carriers  optional sign, integer or p/q (any p/q in, lowest terms out)
#   tropical           rational token, or `inf` for the additive identity
#
# Decimals, exponents and underscores are rejected, so the size of every
# number the solver meets is bounded by the length of the input text.

_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_bit(token: str) -> int:
    if token not in ("0", "1"):
        raise ValueError(f"boolean token must be 0 or 1, got {token!r}")
    return int(token)


def _parse_fraction(tag: SemiringTag, token: str) -> Fraction:
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"bad {tag.value} token {token!r}: expected an integer or p/q")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {tag.value} token {token!r}: {exc}") from None


def _parse_nonneg(token: str) -> Fraction:
    value = _parse_fraction(SemiringTag.NONNEG_RATIONAL, token)
    if value < 0:
        raise ValueError(f"nonneg-rational token must be >= 0, got {token!r}")
    return value


def _format_fraction(x: Fraction) -> str:
    """Through Decimal, which has no digit cap: an answer can outgrow its input."""
    digits = str(Decimal(x.numerator))
    return digits if x.denominator == 1 else f"{digits}/{Decimal(x.denominator)}"


_CARRIERS = {
    SemiringTag.BOOLEAN: Carrier(
        SemiringDescriptor(
            SemiringTag.BOOLEAN,
            is_idempotent=True,
            has_minus_one=False,
            is_zero_sum_free=True,
            exists_absorbing_e=True,  # e = 1
            carrier_size="two",
        ),
        zero=0,
        one=1,
        add=operator.or_,
        mul=operator.and_,
        inv=lambda x: x,
        check=lambda v: type(v) is int and v in (0, 1),
        parse=_parse_bit,
        format=str,
        random=lambda rng: rng.randint(0, 1),
        random_nonzero=lambda rng: 1,
        unscale=lambda x, l: x,  # bits have denominator 1, so l is 1
    ),
    SemiringTag.TROPICAL: Carrier(
        SemiringDescriptor(
            SemiringTag.TROPICAL,
            is_idempotent=True,
            has_minus_one=False,
            is_zero_sum_free=True,
            exists_absorbing_e=True,  # e = 1
            carrier_size="infinite",
        ),
        zero=INF,
        one=Fraction(0),
        add=lambda x, y: y if x is INF else x if y is INF or x <= y else y,
        mul=lambda x, y: INF if x is INF or y is INF else x + y,
        inv=operator.neg,
        check=lambda v: v is INF or type(v) is Fraction,
        parse=lambda t: INF if t == "inf" else _parse_fraction(SemiringTag.TROPICAL, t),
        format=lambda x: "inf" if x is INF else _format_fraction(x),
        random=lambda rng: INF if rng.random() < 0.125 else Fraction(rng.randint(-9, 9)),
        random_nonzero=lambda rng: Fraction(rng.randint(-5, 5)),
        unscale=lambda x, l: x if x is INF else Fraction(x, l),
    ),
    SemiringTag.NONNEG_RATIONAL: Carrier(
        SemiringDescriptor(
            SemiringTag.NONNEG_RATIONAL,
            is_idempotent=False,
            has_minus_one=False,
            is_zero_sum_free=True,
            exists_absorbing_e=False,  # 1 + 1 + e >= 2 for every e >= 0
            carrier_size="infinite",
        ),
        zero=Fraction(0),
        one=Fraction(1),
        add=operator.add,
        mul=operator.mul,
        inv=lambda x: 1 / x,
        check=lambda v: type(v) is Fraction and v >= 0,
        parse=_parse_nonneg,
        format=_format_fraction,
        random=lambda rng: Fraction(rng.randint(0, 9), rng.randint(1, 3)),
        random_nonzero=lambda rng: Fraction(rng.randint(1, 5), rng.randint(1, 3)),
    ),
    SemiringTag.RATIONAL: Carrier(
        SemiringDescriptor(
            SemiringTag.RATIONAL,
            is_idempotent=False,
            has_minus_one=True,
            is_zero_sum_free=False,
            exists_absorbing_e=True,  # e = -1
            carrier_size="infinite",
        ),
        zero=Fraction(0),
        one=Fraction(1),
        add=operator.add,
        mul=operator.mul,
        inv=lambda x: 1 / x,
        check=lambda v: type(v) is Fraction,
        parse=partial(_parse_fraction, SemiringTag.RATIONAL),
        format=_format_fraction,
        random=lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
        random_nonzero=lambda rng: Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)
        ),
    ),
}
