"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import hypothesis.strategies as st

from semilin import INF, SemiringTag, col_vec, element, matrix, row_vec, zero

ALL_TAGS = list(SemiringTag)
IDEMPOTENT_TAGS = [SemiringTag.BOOLEAN, SemiringTag.TROPICAL]
ZERO_SUM_FREE_TAGS = [
    SemiringTag.BOOLEAN,
    SemiringTag.TROPICAL,
    SemiringTag.NONNEG_RATIONAL,
]
EXACT_TAGS = [SemiringTag.BOOLEAN, SemiringTag.TROPICAL, SemiringTag.RATIONAL]


def elements(tag: SemiringTag):
    if tag is SemiringTag.BOOLEAN:
        return st.sampled_from([0, 1]).map(lambda v: element(tag, v))
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    if tag is SemiringTag.TROPICAL:
        return st.one_of(st.just(INF), fractions).map(lambda v: element(tag, v))
    if tag is SemiringTag.NONNEG_RATIONAL:
        nonneg = st.fractions(min_value=0, max_value=9, max_denominator=4)
        return nonneg.map(lambda v: element(tag, v))
    return fractions.map(lambda v: element(tag, v))


def nonzero_elements(tag: SemiringTag):
    return elements(tag).filter(lambda e: e != zero(tag))


def dims(lo: int = 1, hi: int = 3):
    return st.integers(min_value=lo, max_value=hi)


def matrices(tag: SemiringTag, max_dim: int = 3):
    return dims(1, max_dim).flatmap(
        lambda d: dims(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(elements(tag), min_size=n, max_size=n),
                min_size=d,
                max_size=d,
            ).map(lambda rows: matrix(tag, rows))
        )
    )


def col_vecs(tag: SemiringTag, length: int):
    return st.lists(elements(tag), min_size=length, max_size=length).map(
        lambda xs: col_vec(tag, xs)
    )


def row_vecs(tag: SemiringTag, length: int):
    return st.lists(elements(tag), min_size=length, max_size=length).map(
        lambda xs: row_vec(tag, xs)
    )
