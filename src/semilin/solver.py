"""Certified membership decisions and linear-functional extension.

``membership_certified`` answers whether b lies in the right image of A and
backs the answer up: a Solution carries w with A·w = b recomputed exactly,
a Refutation carries a kernel pair (u, v) with u·A = v·A and u·b != v·b.
Both are checked in one place, ``_checked_solution`` / ``_checked_refutation``,
against the caller's original (A, b), on ints: each equation is scaled by the lcm
of its own denominators (``matrices._image_sides``), never the solver's copy.  A
failed check raises ``InternalInvariantError`` instead of returning.  That is the
only check on an emitted answer: the CLI and the verification suites repeat none.
Over the boolean, tropical and rational carriers exactly one of the two is
returned for every system.  Every stage reads the containers' raw payloads
(``values``).  The idempotent carriers:
[A | b] is scaled by the lcm l of its denominators (min-plus is homogeneous
under x -> l·x), residuated and, on failure, refuted by the closed-form
kernel pair of the failing row (``witness._residuate``,
``witness._closed_form_pair``), in one pass on ints and INF and in the
caller's coordinates: no normal form is built, and the answer is only divided
back by l.  The rational carriers are decided by exact elimination,
``_row_reduce``: fraction-free Gauss-Jordan on integer-scaled rows, which
also yields the refutation row and the null basis.  The nonnegative-rational
carrier admits a third outcome, NO_SOLUTION, for systems proved unsolvable
by exact elimination yet having no kernel pair, plus UNDECIDED when a
bounded search is inconclusive.

``extend_functional`` turns the same machinery into an extension engine for
functionals given by their values on the rows of a generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice, product
from math import lcm
from typing import Optional

from .errors import InternalInvariantError, UnsupportedCarrierError, ZeroColumnError
from .matrices import (
    ColVec,
    Matrix,
    RowVec,
    _check_system,
    _divided,
    _image_sides,
    _integer_scaled,
    unit_row,
    zeros_row,
)
from .semirings import _CARRIERS, descriptor
from .witness import _closed_form_pair, _residuate, check_certificate


class SolveKind(Enum):
    SOLUTION = "solution"
    REFUTATION = "refutation"
    NO_SOLUTION = "no-solution"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class CertifiedSolveResult:
    """Outcome of a membership query.

    kind=SOLUTION carries w, kind=REFUTATION carries the kernel pair (u, v);
    NO_SOLUTION and UNDECIDED occur only over the nonnegative rationals and
    carry a prose reason in ``detail``.
    """

    kind: SolveKind
    w: Optional[ColVec] = None
    u: Optional[RowVec] = None
    v: Optional[RowVec] = None
    detail: str = ""


class ExtensionKind(Enum):
    EXTENDED = "extended"
    ILL_POSED = "ill-posed"
    NOT_EXTENDABLE = "not-extendable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of extending a functional from the row space of G.

    EXTENDED carries the coefficient vector alpha with G·alpha = values, so
    psi(x) = sum_j x_j·alpha_j agrees with the functional on every generator.
    ILL_POSED carries a kernel pair showing the prescribed values are
    inconsistent or inextensible.
    """

    kind: ExtensionKind
    alpha: Optional[ColVec] = None
    u: Optional[RowVec] = None
    v: Optional[RowVec] = None
    detail: str = ""


def principal_solution(a: Matrix, b: ColVec) -> Optional[ColVec]:
    """Greatest candidate solution under the natural order, or None.

    Over an idempotent semifield the natural order (p >= q iff p + q = p) is
    a lattice, and A_ij·w_j <= b_i iff w_j <= A_ij^-1·b_i for A_ij != 0.  So
    the componentwise residual x_j = meet over rows i with A_ij != 0 of
    A_ij^-1·b_i is the greatest w with A·w <= b.  It dominates every
    solution, and since A·w is monotone in w, the system is solvable iff this
    candidate itself solves it.  A has to be free of all-zero columns
    (normalize first, or pre-strip).
    """
    _check_system(a, b)
    tag = a.tag
    if not descriptor(tag).is_idempotent:
        raise UnsupportedCarrierError("residuation needs an idempotent carrier")
    c = _CARRIERS[tag]
    for j, col in enumerate(zip(*a.values)):
        if all(x == c.zero for x in col):
            raise ZeroColumnError(f"column {j} is entirely zero; strip zero columns first")
    xhat, i, _ = _residuate(c, a.values, b.values)
    return None if i is not None else ColVec(tag, tuple(xhat))


# --- exact rational elimination ---------------------------------------------


def _row_reduce(
    a: list[list[Fraction]], b: list[Fraction]
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]], list[list[Fraction]]]:
    """Fraction-free (Bareiss) Gauss-Jordan over integer-scaled rows.

    Returns (particular_solution, refutation_row, null_basis).  Exactly one
    of the first two is not None.  The refutation row y satisfies y·A = 0 and
    y·b != 0, read off the transform at an inconsistent row.

    Each row of [A | b] is scaled by the lcm of its denominators and extended
    by a row of the identity, which tracks the transform.  Pivots are chosen
    as in textbook Gauss-Jordan (first nonzero at or below the current row).
    A pivot p replaces every other row by (p·row - row[c]·pivot_row) // prev,
    where prev is the previous pivot; every entry is then a minor of the
    scaled matrix, so every division is exact (Bareiss 1968).  All pivot rows
    end with the last pivot on their diagonal, and Fractions appear only in
    the returned values.  The refutation row is the transform row times the
    row scales, divided by its own entry at the inconsistent row: that is the
    unique left-kernel vector of A with coefficient 1 there and support on
    the pivot rows besides, so the answers equal those of elimination over
    Fractions.
    """
    d = len(a)
    n = len(a[0]) if a else 0
    scales = []
    m = []
    for i, row in enumerate(a):
        s = lcm(*(x.denominator for x in row), b[i].denominator)
        scales.append(s)
        m.append([x.numerator * (s // x.denominator) for x in (*row, b[i])] + [0] * d)
        m[i][n + 1 + i] = 1
    origin = list(range(d))

    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, d) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            origin[r], origin[pivot] = origin[pivot], origin[r]
        top = m[r]
        p = top[c]
        for i in range(d):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
        pivot_cols.append(c)
        r += 1
        if r == d:
            break

    for i in range(r, d):
        if m[i][n]:
            y = [t * s for t, s in zip(m[i][n + 1 :], scales)]
            lead = y[origin[i]]
            return None, [Fraction(x, lead) for x in y], []

    solution = [Fraction(0)] * n
    for idx, c in enumerate(pivot_cols):
        solution[c] = Fraction(m[idx][n], prev)
    free_cols = [c for c in range(n) if c not in set(pivot_cols)]
    null_basis = []
    for f in free_cols:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for idx, c in enumerate(pivot_cols):
            vec[c] = Fraction(-m[idx][f], prev)
        null_basis.append(vec)
    return solution, None, null_basis


def field_solve(a: Matrix, b: ColVec) -> CertifiedSolveResult:
    """Exact elimination over the rational carrier: Solution or Refutation."""
    _check_system(a, b)
    if not descriptor(a.tag).has_minus_one:
        raise UnsupportedCarrierError("field_solve is defined over the rational carrier")
    return _eliminate(a, b)


def _checked_solution(a: Matrix, b: ColVec, w: ColVec) -> CertifiedSolveResult:
    """The only way a SOLUTION is built: A·w = b is recomputed exactly, row by row on
    the integer images of ``_image_sides``, built here from the caller's a, b and w."""
    _check_system(a, b, w)
    c = _CARRIERS[a.tag]
    if any(p != q for p, q in _image_sides(c, w.values, (c.one,), zip(a.values, zip(b.values)))):
        raise InternalInvariantError("claimed solution does not reproduce b")
    return CertifiedSolveResult(SolveKind.SOLUTION, w=w)


def _checked_refutation(a: Matrix, b: ColVec, u: RowVec, v: RowVec) -> CertifiedSolveResult:
    """The only way a REFUTATION is built: (u, v) is checked against the original (A, b)."""
    if not check_certificate(a, b, u, v):
        raise InternalInvariantError("claimed kernel pair does not validate")
    return CertifiedSolveResult(SolveKind.REFUTATION, u=u, v=v)


# --- elimination, and bounded search over the nonnegative rationals ----------

_GRID_VALUES = [Fraction(k, 2) for k in range(-6, 7)]
_COARSE_VALUES = [Fraction(k) for k in range(-2, 3)]
_SEARCH_CAP = 40000


def _eliminate(a: Matrix, b: ColVec) -> CertifiedSolveResult:
    """Exact elimination over Q, answering in the rational carrier of (A, b).

    The rational refutation row splits into nonnegative u, v, so it is a
    valid certificate in either rational carrier.  A rational solution is an
    answer when every coordinate is an element of the carrier, which over
    the rationals always holds.  Over the nonnegative rationals, a unique
    rational solution with a negative coordinate proves unsolvability
    analytically (the probe instance family lands here) but admits no kernel
    pair, hence NO_SOLUTION without one.  With free variables, candidates on
    a small grid around the particular solution are tried; failure to find
    one is only UNDECIDED.
    """
    tag = a.tag
    in_carrier = _CARRIERS[tag].check
    solution, refutation_row, null_basis = _row_reduce(a.values, b.values)
    if refutation_row is not None:  # y = u - v, split into nonnegative parts
        u = RowVec(tag, tuple(x if x > 0 else Fraction(0) for x in refutation_row))
        v = RowVec(tag, tuple(-x if x < 0 else Fraction(0) for x in refutation_row))
        return _checked_refutation(a, b, u, v)
    assert solution is not None
    if all(map(in_carrier, solution)):
        return _checked_solution(a, b, ColVec(tag, tuple(solution)))
    if not null_basis:
        return CertifiedSolveResult(
            SolveKind.NO_SOLUTION,
            detail="the unique rational solution has a negative coordinate; "
            "no nonnegative solution exists (and no kernel pair can witness this)",
        )
    values = _GRID_VALUES if len(_GRID_VALUES) ** len(null_basis) <= _SEARCH_CAP else _COARSE_VALUES
    combos = islice(product(values, repeat=len(null_basis)), _SEARCH_CAP)
    tried = 0
    for combo in combos:
        tried += 1
        candidate = list(solution)
        for t, vec in zip(combo, null_basis):
            if t == 0:
                continue
            candidate = [x + t * y for x, y in zip(candidate, vec)]
        if all(map(in_carrier, candidate)):
            return _checked_solution(a, b, ColVec(tag, tuple(candidate)))
    return CertifiedSolveResult(
        SolveKind.UNDECIDED,
        detail=f"bounded search over {tried} candidates found no nonnegative solution",
    )


def membership_certified(a: Matrix, b: ColVec) -> CertifiedSolveResult:
    """Decide b in right-im A with a certificate, routed as the exactness theorem.

    A ring (has -1): exact elimination.  Idempotent: scale [A | b] by the
    lcm l of its denominators (l = 1 over the booleans), residuate, and on
    failure build the closed-form kernel pair of the failing row, the same
    formula on every idempotent carrier and in the caller's coordinates, so
    the answer maps back by a division by l alone; an all-zero A gets the
    simpler pair (e_i, 0).  All of this runs on raw payloads.  Neither (the
    nonnegative rationals): elimination plus a bounded search.  Every
    Solution and Refutation is checked against the caller's own (A, b), never
    the scaled copy, before it is returned, and that is the only check, so
    callers need not check it again.
    """
    _check_system(a, b)
    tag = a.tag
    desc = descriptor(tag)
    if desc.has_minus_one:
        return field_solve(a, b)
    if not desc.is_idempotent:
        return _eliminate(a, b)

    c = _CARRIERS[tag]
    l, rows, rhs = _integer_scaled(a, b)
    xhat, i, p = _residuate(c, rows, rhs)
    if i is None:
        return _checked_solution(a, b, ColVec(tag, _divided(c, l, xhat)))
    if all(x == c.zero for row in rows for x in row):
        u, v = unit_row(tag, a.rows, i), zeros_row(tag, a.rows)
    else:
        u, v = (RowVec(tag, _divided(c, l, w)) for w in _closed_form_pair(c, rows, rhs, i, p))
    return _checked_refutation(a, b, u, v)


def extend_functional(g: Matrix, values: ColVec) -> ExtensionResult:
    """Extend a functional defined on the rows of G by its values there.

    A Solution w of G·alpha = values yields psi(x) = sum_j x_j·alpha_j, which
    agrees with the functional on every generator; a Refutation yields the
    kernel pair showing the prescription is ill-posed or inextensible.
    """
    result = membership_certified(g, values)
    if result.kind is SolveKind.SOLUTION:
        return ExtensionResult(ExtensionKind.EXTENDED, alpha=result.w)
    if result.kind is SolveKind.REFUTATION:
        return ExtensionResult(ExtensionKind.ILL_POSED, u=result.u, v=result.v)
    if result.kind is SolveKind.NO_SOLUTION:
        return ExtensionResult(ExtensionKind.NOT_EXTENDABLE, detail=result.detail)
    return ExtensionResult(ExtensionKind.INCONCLUSIVE, detail=result.detail)
