"""Seeded random instance generators for the verification suites.

All functions take an explicit ``random.Random`` so parallel or repeated runs
reproduce byte-identically.  Tropical entries are small integers with an
occasional infinity (probability 1/8) so zero-entry edge paths (zero columns,
zero rows, b_i = 0) get exercised.
"""

from __future__ import annotations

from functools import reduce
from random import Random

from .matrices import ColVec, Matrix, RowVec, mat_mul
from .semirings import _CARRIERS, SemiringTag


def random_matrix(tag: SemiringTag | str, d: int, n: int, rng: Random) -> Matrix:
    tag = SemiringTag(tag)
    return Matrix(tag, d, n, tuple(random_row_vec(tag, n, rng).values for _ in range(d)))


def random_row_vec(tag: SemiringTag | str, length: int, rng: Random) -> RowVec:
    tag = SemiringTag(tag)
    return RowVec(tag, tuple(_CARRIERS[tag].random(rng) for _ in range(length)))


def random_col_vec(tag: SemiringTag | str, length: int, rng: Random) -> ColVec:
    return ColVec(SemiringTag(tag), random_row_vec(tag, length, rng).values)


def random_zero_one_col(tag: SemiringTag | str, length: int, rng: Random) -> ColVec:
    """A column with entries drawn from {0, 1} of the carrier."""
    tag = SemiringTag(tag)
    c = _CARRIERS[tag]
    return ColVec(tag, tuple(c.one if rng.random() < 0.5 else c.zero for _ in range(length)))


def random_column_stochastic(
    tag: SemiringTag | str,
    d: int,
    n: int,
    rng: Random,
    entry,
) -> Matrix:
    """A column-stochastic matrix with entries drawn by ``entry(rng)``, a payload.

    Columns are redrawn until their sum is nonzero (over the rationals a
    column of nonzero entries can sum to 0), then scaled by the inverse of
    that sum, which makes each column sum exactly one.  A matrix without
    rows has no such column, so ``d < 1`` raises ValueError before any draw.
    """
    if d < 1:
        raise ValueError(f"a column-stochastic {d}x{n} matrix needs at least one row")
    tag = SemiringTag(tag)
    c = _CARRIERS[tag]
    columns = []
    for _ in range(n):
        while True:
            col = [entry(rng) for _ in range(d)]
            s = reduce(c.add, col)
            if s != c.zero:
                break
        s_inv = c.inv(s)
        columns.append([c.mul(x, s_inv) for x in col])
    return Matrix(tag, d, n, tuple(tuple(col[i] for col in columns) for i in range(d)))


def random_system(
    tag: SemiringTag | str, rng: Random, max_dim: int = 5
) -> tuple[Matrix, ColVec]:
    """A random system (A, b); half the time b := A·w so solvable cases occur."""
    tag = SemiringTag(tag)
    d = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    a = random_matrix(tag, d, n, rng)
    if rng.random() < 0.5:
        w = random_col_vec(tag, n, rng)
        b = mat_mul(a, w)
    else:
        b = random_col_vec(tag, d, rng)
    return a, b


def random_monomial(tag: SemiringTag | str, size: int, rng: Random) -> tuple[Matrix, Matrix]:
    """A random monomial matrix (permutation times nonzero diagonal) and its inverse.

    These are the constructively invertible matrices over any semifield.
    """
    tag = SemiringTag(tag)
    c = _CARRIERS[tag]
    perm = list(range(size))
    rng.shuffle(perm)
    diag = [c.random_nonzero(rng) for _ in range(size)]
    m_rows = [[c.zero] * size for _ in range(size)]
    inv_rows = [[c.zero] * size for _ in range(size)]
    for i in range(size):
        m_rows[i][perm[i]] = diag[i]
        inv_rows[perm[i]][i] = c.inv(diag[i])
    m = Matrix(tag, size, size, tuple(tuple(r) for r in m_rows))
    m_inv = Matrix(tag, size, size, tuple(tuple(r) for r in inv_rows))
    return m, m_inv
