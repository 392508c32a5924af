"""Constructive refutation objects for unsolvable systems.

A pair of row vectors (u, v) with u·A = v·A but u·b != v·b proves that b is
not of the form A·w: applying both sides to any candidate w gives
u·b = u·A·w = v·A·w = v·b, a contradiction.  This module builds such pairs
explicitly, for column-stochastic systems over the min-plus carrier and in
closed form over the two-element carrier, and validates any claimed pair.
It also provides the canonical 2x2 system that separates the exact carriers
from the nonnegative-rational one.

The constructions check their own postconditions and raise
InternalInvariantError on violation: a failure here is a bug, never a
property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    InternalInvariantError,
    MembershipDetectedError,
    NotApplicableError,
    TooFewElementsError,
    UnsupportedCarrierError,
)
from .matrices import (
    ColVec,
    Matrix,
    RowVec,
    is_column_stochastic,
    is_row_stochastic,
    mat_mul,
    ones_row,
    row_sums,
    vec_add,
)
from .semirings import (
    Element,
    SemiringTag,
    add,
    descriptor,
    element_not_below_one,
    inv,
    mul,
    one,
    zero,
)


def check_certificate(a: Matrix, b: ColVec, u: RowVec, v: RowVec) -> bool:
    """True iff (u, v) lies in the left kernel of A but separates b."""
    if u.length != a.rows or v.length != a.rows or b.length != a.rows:
        raise NotApplicableError("certificate/vector lengths must match the row count")
    return mat_mul(u, a) == mat_mul(v, a) and mat_mul(u, b) != mat_mul(v, b)


def alternative_ones_preimage(a: Matrix) -> RowVec:
    """A second preimage of the all-ones row under right-multiplication by A.

    For a column-stochastic A, the all-ones row maps to the all-ones row.
    When A is additionally *not* row-stochastic (and the carrier has at least
    three elements) there is another row L with L·A = (1,...,1) that is not
    below the all-ones row in the natural order: take the inverses of the row
    sums, or, when some row is entirely zero, keep ones everywhere except a
    single coordinate set to an element lam with 1 + lam != 1.
    """
    tag = a.tag
    desc = descriptor(tag)
    if desc.carrier_size == "two":
        raise TooFewElementsError("needs a carrier with at least three elements")
    if not desc.is_idempotent:
        raise UnsupportedCarrierError("defined over idempotent carriers only")
    if not is_column_stochastic(a):
        raise NotApplicableError("matrix must be column-stochastic")
    if is_row_stochastic(a):
        raise NotApplicableError("matrix is row-stochastic")

    z, o = zero(tag), one(tag)
    alphas = row_sums(a)
    if any(s == z for s in alphas):
        i = next(i for i, s in enumerate(alphas) if s == z)
        lam = element_not_below_one(tag)
        entries = tuple(lam if t == i else o for t in range(a.rows))
    else:
        entries = tuple(inv(s) for s in alphas)
    result = RowVec(tag, entries)

    ones_d = ones_row(tag, a.rows)
    if mat_mul(result, a) != ones_row(tag, a.cols):
        raise InternalInvariantError("preimage product is not the all-ones row")
    if vec_add(ones_d, result) == ones_d:
        raise InternalInvariantError("preimage is below the all-ones row")
    return result


@dataclass(frozen=True)
class BlockSplit:
    """Permuted block view of a column-stochastic system with a 0/1 side.

    The k rows where b is one come first.  Columns whose entries in the
    remaining rows are all zero form the Q side (m of them); the rest form
    the P/R side, so R keeps no all-zero column and the bottom-right block of
    the permuted matrix is identically zero.
    """

    k: int
    m: int
    row_order: tuple[int, ...]
    q_columns: tuple[int, ...]
    p_columns: tuple[int, ...]
    p_block: Matrix  # k x (n - m)
    q_block: Matrix  # k x m
    r_block: Optional[Matrix]  # (d - k) x (n - m), None when k = d


def block_split(a: Matrix, b: ColVec) -> BlockSplit:
    """Split a system along the ones of b; requires b in {0,1}^d with k >= 1."""
    tag = a.tag
    z, o = zero(tag), one(tag)
    if b.length != a.rows:
        raise NotApplicableError("vector length must match the row count")
    if any(e != z and e != o for e in b.entries):
        raise NotApplicableError("right-hand side must have 0/1 entries")
    ones_idx = [i for i in range(a.rows) if b.entries[i] == o]
    zeros_idx = [i for i in range(a.rows) if b.entries[i] == z]
    if not ones_idx:
        raise MembershipDetectedError("b is the zero vector, which equals A times zero")

    q_cols = tuple(
        j for j in range(a.cols) if all(a.entries[i][j] == z for i in zeros_idx)
    )
    p_cols = tuple(j for j in range(a.cols) if j not in set(q_cols))
    k = len(ones_idx)

    def _sub(row_idx, col_idx) -> tuple[tuple[Element, ...], ...]:
        return tuple(tuple(a.entries[i][j] for j in col_idx) for i in row_idx)

    p_block = Matrix(tag, k, len(p_cols), _sub(ones_idx, p_cols))
    q_block = Matrix(tag, k, len(q_cols), _sub(ones_idx, q_cols))
    r_block = (
        Matrix(tag, len(zeros_idx), len(p_cols), _sub(zeros_idx, p_cols))
        if zeros_idx
        else None
    )
    if r_block is not None:
        for c in range(r_block.cols):
            if all(e == z for e in r_block.col(c)):
                raise InternalInvariantError("R acquired an all-zero column")
    return BlockSplit(
        k=k,
        m=len(q_cols),
        row_order=tuple(ones_idx + zeros_idx),
        q_columns=q_cols,
        p_columns=p_cols,
        p_block=p_block,
        q_block=q_block,
        r_block=r_block,
    )


def kernel_witness(a: Matrix, b: ColVec) -> tuple[RowVec, RowVec]:
    """Build a kernel pair refuting A·w = b for a column-stochastic min-plus system.

    Preconditions: b has 0/1 entries and lies outside the right image of A
    (screen with principal_solution first).  The construction splits the
    system into blocks along the ones of b, takes L with L·Q = (1,...,1) and
    L not below the ones row (arbitrary such L when Q is empty), and pads
    both rows with a constant heavy enough to swamp the P and R blocks:
    p = 1 + sum of the entries of P and of L·P, r = 1 + sum of the inverses
    of the nonzero entries of R, and the padding value is p·r.  The returned
    pair satisfies u·A = v·A and u·b = 1 != v·b.

    Raises MembershipDetectedError when the block shape itself shows b to be
    solvable (b = 0, or Q row-stochastic).
    """
    tag = a.tag
    desc = descriptor(tag)
    if desc.carrier_size == "two":
        raise TooFewElementsError(
            "needs at least three elements; use boolean_kernel_witness instead"
        )
    if not desc.is_idempotent:
        raise UnsupportedCarrierError("defined over idempotent carriers only")
    if not is_column_stochastic(a):
        raise NotApplicableError("matrix must be column-stochastic")

    split = block_split(a, b)
    k, d = split.k, a.rows
    o = one(tag)

    if split.m == 0:
        lam = element_not_below_one(tag)
        big_lambda = RowVec(tag, (lam,) + (o,) * (k - 1))
    else:
        if is_row_stochastic(split.q_block):
            raise MembershipDetectedError(
                "Q is row-stochastic: b equals A times the indicator of the Q columns"
            )
        big_lambda = alternative_ones_preimage(split.q_block)

    p = o
    for row in split.p_block.entries:
        for e in row:
            p = add(p, e)
    for e in mat_mul(big_lambda, split.p_block).entries:
        p = add(p, e)

    r = o
    if split.r_block is not None:
        z = zero(tag)
        for row in split.r_block.entries:
            for e in row:
                if e != z:
                    r = add(r, inv(e))

    heavy = mul(p, r)
    u_permuted = [o] * k + [heavy] * (d - k)
    v_permuted = list(big_lambda.entries) + [heavy] * (d - k)

    u_entries = [o] * d
    v_entries = [o] * d
    for t, i in enumerate(split.row_order):
        u_entries[i] = u_permuted[t]
        v_entries[i] = v_permuted[t]
    u = RowVec(tag, tuple(u_entries))
    v = RowVec(tag, tuple(v_entries))

    if not check_certificate(a, b, u, v):
        raise InternalInvariantError(
            "constructed pair failed validation; kernel_witness has a bug"
        )
    return u, v


def boolean_kernel_witness(a: Matrix, b: ColVec) -> tuple[RowVec, RowVec]:
    """Build a kernel pair over the two-element carrier in O(d·n).

    Let Z be the rows where b is 0 and i the first row with b_i = 1 whose
    ones all lie in columns that meet Z.  Then u = e_i + 1_Z, v = 1_Z: A_i is
    below the join of the rows in Z, so u·A = v·A, while u·b = 1 != 0 = v·b.
    When no such row exists, the indicator of the columns missing Z solves
    A·w = b, so MembershipDetectedError is raised.
    """
    tag = a.tag
    if descriptor(tag).carrier_size != "two":
        raise UnsupportedCarrierError("the closed-form witness is boolean-only")
    if b.length != a.rows:
        raise NotApplicableError("vector length must match the row count")
    z, o = zero(tag), one(tag)
    z_rows = {k for k, e in enumerate(b.entries) if e == z}
    supports = [{j for j, x in enumerate(row) if x != z} for row in a.entries]
    meets_z = {j for k in z_rows for j in supports[k]}
    missed = [i for i, cols in enumerate(supports) if i not in z_rows and cols <= meets_z]
    if not missed:
        raise MembershipDetectedError("the indicator of the columns missing Z solves A·w = b")
    u = RowVec(tag, tuple(o if t in z_rows or t == missed[0] else z for t in range(a.rows)))
    v = RowVec(tag, tuple(o if t in z_rows else z for t in range(a.rows)))
    if not check_certificate(a, b, u, v):
        raise InternalInvariantError("closed-form boolean pair failed validation")
    return u, v


def non_exactness_instance(tag: SemiringTag | str) -> tuple[Matrix, ColVec]:
    """The canonical probe system A = [[0,1],[1,1]], b = (1+1, 1).

    Solvability of this system in a semifield forces an element e with
    1 + 1 + e = 1, while its left kernel always fixes b; over a carrier with
    no such e (the nonnegative rationals) it is therefore unsolvable yet
    admits no kernel-pair refutation, witnessing the failure of
    linear-functional extension.
    """
    tag = SemiringTag(tag)
    z, o = zero(tag), one(tag)
    a = Matrix(tag, 2, 2, ((z, o), (o, o)))
    b = ColVec(tag, (add(o, o), o))
    return a, b
