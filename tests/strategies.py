"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import hypothesis.strategies as st

from semilin import INF, SemiringTag, carrier, col_vec, matrix, row_vec

ALL_TAGS = list(SemiringTag)
IDEMPOTENT_TAGS = [SemiringTag.BOOLEAN, SemiringTag.TROPICAL]
ZERO_SUM_FREE_TAGS = [
    SemiringTag.BOOLEAN,
    SemiringTag.TROPICAL,
    SemiringTag.NONNEG_RATIONAL,
]
EXACT_TAGS = [SemiringTag.BOOLEAN, SemiringTag.TROPICAL, SemiringTag.RATIONAL]


def payloads(tag: SemiringTag):
    """Raw payloads of the carrier: bits, Fractions and, for min-plus, INF."""
    if tag is SemiringTag.BOOLEAN:
        return st.sampled_from([0, 1])
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    if tag is SemiringTag.TROPICAL:
        return st.one_of(st.just(INF), fractions)
    if tag is SemiringTag.NONNEG_RATIONAL:
        return st.fractions(min_value=0, max_value=9, max_denominator=4)
    return fractions


def nonzero_payloads(tag: SemiringTag):
    return payloads(tag).filter(lambda x: x != carrier(tag).zero)


def dims(lo: int = 1, hi: int = 3):
    return st.integers(min_value=lo, max_value=hi)


def matrices(tag: SemiringTag, max_dim: int = 3):
    return dims(1, max_dim).flatmap(
        lambda d: dims(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(payloads(tag), min_size=n, max_size=n),
                min_size=d,
                max_size=d,
            ).map(lambda rows: matrix(tag, rows))
        )
    )


def col_vecs(tag: SemiringTag, length: int):
    return st.lists(payloads(tag), min_size=length, max_size=length).map(
        lambda xs: col_vec(tag, xs)
    )


def row_vecs(tag: SemiringTag, length: int):
    return st.lists(payloads(tag), min_size=length, max_size=length).map(
        lambda xs: row_vec(tag, xs)
    )
