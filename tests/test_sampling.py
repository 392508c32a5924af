"""Pinned output of the seeded generators in ``semilin.sampling``.

The verification suites and the tests replay seeds, so the generators must
keep drawing from the RNG in the same order.  ``tests/golden_reports.json``
reaches only ``random_system``; these pins cover ``random_monomial`` (and
through it the carrier's ``random_nonzero``) and ``random_column_stochastic``
(fed by the carrier's ``random``), one seed per carrier.
"""

from __future__ import annotations

from random import Random

import pytest

from semilin import SemiringTag, carrier, format_instance, is_column_stochastic
from semilin.sampling import random_column_stochastic, random_monomial


def _draw(tag: SemiringTag) -> str:
    rng = Random(f"pin-{tag.value}")
    m, m_inv = random_monomial(tag, 4, rng)
    a = random_column_stochastic(tag, 3, 4, rng, carrier(tag).random)
    return format_instance(tag, m) + format_instance(tag, m_inv) + format_instance(tag, a)


PINNED = {
    SemiringTag.BOOLEAN: (
        "semiring boolean\n"
        "matrix 4 4\n"
        "0 0 0 1\n"
        "0 1 0 0\n"
        "1 0 0 0\n"
        "0 0 1 0\n"
        "semiring boolean\n"
        "matrix 4 4\n"
        "0 0 1 0\n"
        "0 1 0 0\n"
        "0 0 0 1\n"
        "1 0 0 0\n"
        "semiring boolean\n"
        "matrix 3 4\n"
        "0 0 0 0\n"
        "1 1 0 1\n"
        "1 1 1 1\n"
    ),
    SemiringTag.TROPICAL: (
        "semiring tropical\n"
        "matrix 4 4\n"
        "inf inf inf 1\n"
        "inf inf -1 inf\n"
        "5 inf inf inf\n"
        "inf 2 inf inf\n"
        "semiring tropical\n"
        "matrix 4 4\n"
        "inf inf -5 inf\n"
        "inf inf inf -2\n"
        "inf 1 inf inf\n"
        "-1 inf inf inf\n"
        "semiring tropical\n"
        "matrix 3 4\n"
        "0 0 8 8\n"
        "17 0 11 5\n"
        "18 8 0 0\n"
    ),
    SemiringTag.NONNEG_RATIONAL: (
        "semiring nonneg-rational\n"
        "matrix 4 4\n"
        "0 0 0 1/2\n"
        "0 0 5 0\n"
        "1 0 0 0\n"
        "0 2/3 0 0\n"
        "semiring nonneg-rational\n"
        "matrix 4 4\n"
        "0 0 1 0\n"
        "0 0 0 3/2\n"
        "0 1/5 0 0\n"
        "2 0 0 0\n"
        "semiring nonneg-rational\n"
        "matrix 3 4\n"
        "3/14 1/2 6/31 1/2\n"
        "4/7 0 16/31 1/2\n"
        "3/14 1/2 9/31 0\n"
    ),
    SemiringTag.RATIONAL: (
        "semiring rational\n"
        "matrix 4 4\n"
        "0 0 0 1\n"
        "-4/3 0 0 0\n"
        "0 1/2 0 0\n"
        "0 0 2/3 0\n"
        "semiring rational\n"
        "matrix 4 4\n"
        "0 -3/4 0 0\n"
        "0 0 2 0\n"
        "0 0 0 3/2\n"
        "1 0 0 0\n"
        "semiring rational\n"
        "matrix 3 4\n"
        "10/17 7/19 3/7 6/7\n"
        "6/17 6/19 1/7 -3/7\n"
        "1/17 6/19 3/7 4/7\n"
    ),
}


@pytest.mark.parametrize("tag", list(SemiringTag))
def test_seeded_generators_match_pins(tag):
    assert _draw(tag) == PINNED[tag]


def test_rational_column_stochastic_redraws_columns_summing_to_zero():
    """Seed 27 draws a rational column of nonzero entries that sums to 0."""
    tag = SemiringTag.RATIONAL
    a = random_column_stochastic(tag, 3, 3, Random(27), carrier(tag).random)
    assert is_column_stochastic(a)


def test_column_stochastic_without_rows_is_rejected_before_drawing():
    """No column of a matrix without rows can sum to one, so nothing is drawn."""
    rng = Random(1)
    state = rng.getstate()
    tag = SemiringTag.BOOLEAN
    with pytest.raises(ValueError, match="0x2"):
        random_column_stochastic(tag, 0, 2, rng, carrier(tag).random)
    assert rng.getstate() == state
