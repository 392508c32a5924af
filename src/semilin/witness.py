"""Constructive refutation objects for unsolvable systems.

A pair of row vectors (u, v) with u·A = v·A but u·b != v·b proves that b is
not of the form A·w: applying both sides to any candidate w gives
u·b = u·A·w = v·A·w = v·b, a contradiction.  Every idempotent carrier is
left exact, so every unsolvable normalized system over one has such a pair,
and this module builds it with one closed-form builder read off the row where
residuation fails; ``kernel_witness`` (min-plus) and
``boolean_kernel_witness`` are its public faces.  It also validates any
claimed pair and provides the canonical 2x2 system that separates the exact
carriers from the nonnegative-rational one.

The public constructions check their own postconditions and raise
InternalInvariantError on violation: a failure here is a bug, never a
property of the input.  The solver calls the builder unchecked, on the raw
rows of an integer-scaled copy, because it checks every answer against the
caller's original system itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import (
    InternalInvariantError,
    MembershipDetectedError,
    NotApplicableError,
    TagMismatchError,
    TooFewElementsError,
    UnsupportedCarrierError,
)
from .matrices import (
    ColVec,
    Matrix,
    RowVec,
    _image_sides,
    is_column_stochastic,
    is_row_stochastic,
    mat_mul,
    ones_row,
    vec_add,
)
from .semirings import _CARRIERS, Carrier, Payload, SemiringTag, descriptor


def check_certificate(a: Matrix, b: ColVec, u: RowVec, v: RowVec) -> bool:
    """True iff (u, v) lies in the left kernel of A but separates b, on integer images."""
    if u.length != a.rows or v.length != a.rows or b.length != a.rows:
        raise NotApplicableError("certificate/vector lengths must match the row count")
    if not a.tag is b.tag is u.tag is v.tag:
        raise TagMismatchError("mixed carriers in a certificate check")
    equations = [(col, col) for col in (*zip(*a.values), b.values)]
    *kernel, (ub, vb) = _image_sides(_CARRIERS[a.tag], u.values, v.values, equations)
    return all(p == q for p, q in kernel) and ub != vb


def alternative_ones_preimage(a: Matrix) -> RowVec:
    """A second preimage of the all-ones row under right-multiplication by A.

    For a column-stochastic A, the all-ones row maps to the all-ones row.
    When A is additionally *not* row-stochastic (and the carrier has at least
    three elements) there is another row L with L·A = (1,...,1) that is not
    below the all-ones row in the natural order: take the inverses of the row
    sums, or, when some row is entirely zero, keep ones everywhere except a
    single coordinate set to an element lam with 1 + lam != 1: a payload p
    outside {0, 1}, or p^-1 when 1 + p = 1 (both are below 1 only if p = 1).
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

    c = _CARRIERS[tag]
    alphas = [reduce(c.add, row, c.zero) for row in a.values]
    if c.zero in alphas:
        i = alphas.index(c.zero)
        p = Fraction(1)  # outside {0, 1} on min-plus, the one carrier that gets here
        lam = c.inv(p) if c.add(c.one, p) == c.one else p
        result = RowVec(tag, tuple(lam if t == i else c.one for t in range(a.rows)))
    else:
        result = RowVec(tag, tuple(map(c.inv, alphas)))

    ones_d = ones_row(tag, a.rows)
    if mat_mul(result, a) != ones_row(tag, a.cols):
        raise InternalInvariantError("preimage product is not the all-ones row")
    if vec_add(ones_d, result) == ones_d:
        raise InternalInvariantError("preimage is below the all-ones row")
    return result


def _closed_form_pair(c: Carrier, one: Payload, rows: list[list], rhs: list) -> tuple[list, list]:
    """Kernel pair of a normalized idempotent system on raw payloads, unchecked.

    The argument uses only the natural order p >= q iff p + q = p, a lattice
    with + as its join on any idempotent semifield, in which multiplication is
    monotone and inversion reverses the order; no chain is needed.  With Z
    the rows where b is 0, O the rows where it is 1 and m_j = sum of A_kj
    over k in Z, residuation gives 1 on the columns with m_j = 0 and 0 on the
    others, so it fails exactly at a row i in O with s_i = sum of A_ij over j
    with m_j = 0 different from 1.  Each such A_ij is below its column sum 1,
    so s_i < 1.  Take the first such i, lam = 1 if s_i = 0 and s_i^-1 > 1
    otherwise, and H = 1 + sum of lam·A_ij·m_j^-1 over j with m_j, A_ij != 0.
    Then v is H on Z and, on O, 0 if s_i = 0 and 1 otherwise; u is v with
    u_i = lam >= v_i, so u·A = v·A + lam·A_i and it suffices that
    lam·A_ij <= (v·A)_j on every column j with A_ij != 0.  If m_j != 0,
    (v·A)_j >= H·m_j >= lam·A_ij.  If m_j = 0, then s_i >= A_ij is nonzero,
    v is 1 on all of O and (v·A)_j >= sum of A_kj over k in O = 1 =
    lam·s_i >= lam·A_ij.  So u·A = v·A, while u·b = 1 != 0 = v·b or
    u·b = lam != 1 = v·b.  The arithmetic is the carrier's own; over the
    two-element carrier s_i = 0 and H = 1, which leaves u = e_i + 1_Z,
    v = 1_Z.  ``one`` is the carrier's one in the units of the payloads,
    which may be integer-scaled.

    Raises MembershipDetectedError when no row fails: residuation then solves
    A·w = b.
    """
    z, o = c.zero, one
    z_rows = [row for row, x in zip(rows, rhs) if x == z]
    m = [reduce(c.add, (row[j] for row in z_rows), z) for j in range(len(rows[0]))]
    for i, x in enumerate(rhs):
        if x != z:
            s = reduce(c.add, (y for y, mj in zip(rows[i], m) if mj == z), z)
            if s != o:
                break
    else:
        raise MembershipDetectedError("residuation solves A·w = b")
    lam = o if s == z else c.inv(s)
    heavy = reduce(
        c.add,
        (c.mul(c.mul(lam, x), c.inv(mj)) for x, mj in zip(rows[i], m) if x != z and mj != z),
        o,
    )
    v_on_o = z if s == z else o
    v = [heavy if x == z else v_on_o for x in rhs]
    return v[:i] + [lam] + v[i + 1 :], v


def _self_checked_pair(a: Matrix, b: ColVec) -> tuple[RowVec, RowVec]:
    c = _CARRIERS[a.tag]
    u, v = (RowVec(a.tag, tuple(w)) for w in _closed_form_pair(c, c.one, a.values, b.values))
    if not check_certificate(a, b, u, v):
        raise InternalInvariantError("closed-form kernel pair failed validation")
    return u, v


def kernel_witness(a: Matrix, b: ColVec) -> tuple[RowVec, RowVec]:
    """Build a kernel pair refuting A·w = b for a column-stochastic min-plus system.

    b must have 0/1 entries.  The pair is that of ``_closed_form_pair``,
    checked before it is returned: u·A = v·A and u·b != v·b.  Raises
    MembershipDetectedError when residuation solves the system (b = 0
    included).
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
    if b.length != a.rows:
        raise NotApplicableError("vector length must match the row count")
    c = _CARRIERS[tag]
    if any(x != c.zero and x != c.one for x in b.values):
        raise NotApplicableError("right-hand side must have 0/1 entries")
    return _self_checked_pair(a, b)


def boolean_kernel_witness(a: Matrix, b: ColVec) -> tuple[RowVec, RowVec]:
    """Build a kernel pair over the two-element carrier in O(d·n).

    Let Z be the rows where b is 0 and i the first row with b_i = 1 whose
    ones all lie in columns that meet Z.  Then u = e_i + 1_Z, v = 1_Z: A_i is
    below the join of the rows in Z, so u·A = v·A, while u·b = 1 != 0 = v·b.
    This is ``_closed_form_pair`` over the booleans, checked before it is
    returned.  When no such row exists, the indicator of the columns missing
    Z solves A·w = b, so MembershipDetectedError is raised.
    """
    if descriptor(a.tag).carrier_size != "two":
        raise UnsupportedCarrierError("the closed-form witness is boolean-only")
    if b.length != a.rows:
        raise NotApplicableError("vector length must match the row count")
    return _self_checked_pair(a, b)


def non_exactness_instance(tag: SemiringTag | str) -> tuple[Matrix, ColVec]:
    """The canonical probe system A = [[0,1],[1,1]], b = (1+1, 1).

    Solvability of this system in a semifield forces an element e with
    1 + 1 + e = 1, while its left kernel always fixes b; over a carrier with
    no such e (the nonnegative rationals) it is therefore unsolvable yet
    admits no kernel-pair refutation, witnessing the failure of
    linear-functional extension.
    """
    tag = SemiringTag(tag)
    c = _CARRIERS[tag]
    z, o = c.zero, c.one
    return Matrix(tag, 2, 2, ((z, o), (o, o))), ColVec(tag, (c.add(o, o), o))
