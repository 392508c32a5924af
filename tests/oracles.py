"""Brute-force membership oracles, independent of the solver under test.

These work on raw payloads (bits, fractions, float infinity) with their own
scalar table, ``_RAW_SEMIRINGS``, and import no arithmetic from the package:
a bug in the carrier operations cannot hide a matching bug in the decision
procedures.  ``gauss_jordan_reference`` is textbook elimination over
Fractions, the reference for the solver's integer elimination;
``boolean_kernel_pair_reference`` is the 4^d pair search and
``kernel_witness_reference`` the min-plus block construction, the references
for the closed-form kernel pair.  ``solution_holds_reference`` and
``certificate_holds_reference`` validate an answer by the raw triple loop of
``mat_mul_reference``, the reference for the solver's integer-image answer
check.  ``boolean_sweep_reference`` is the exhaustive boolean sweep decided
one (A, b) at a time, the reference for the per-matrix bitmask sweep.
``idempotent_membership_reference`` is the solver's former unscaled pipeline
for the idempotent carriers (normalize, residuate by a natural-order meet,
the closed-form pair, map back), the reference for its integer-scaled raw
core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Optional

from semilin import (
    INF,
    ColVec,
    InternalInvariantError,
    Matrix,
    MembershipDetectedError,
    RowVec,
)
from semilin.classify import ExhaustiveReport, ShapeReport


def _raw(x) -> Fraction | float:
    """A payload with the tropical INF read as math.inf."""
    return math.inf if x is INF else x


def _payload(x):
    """The inverse of ``_raw``."""
    return INF if x == math.inf else x


def _plus(x, y):
    return x + y


def _times(x, y):
    return x * y


def _reciprocal(x):
    return 1 / x


# (zero, one, add, mul, inv) of each carrier on raw payloads, tropical infinity as
# math.inf; inv is never applied to zero
_RAW_SEMIRINGS = {
    "boolean": (0, 1, lambda x, y: x | y, lambda x, y: x & y, lambda x: x),
    "tropical": (math.inf, Fraction(0), min, _plus, lambda x: -x),
    "nonneg-rational": (Fraction(0), Fraction(1), _plus, _times, _reciprocal),
    "rational": (Fraction(0), Fraction(1), _plus, _times, _reciprocal),
}


def raw_rows(x) -> list[list]:
    """A Matrix, RowVec (1 x n), ColVec (n x 1) or scalar (1 x 1) as rows of raw payloads."""
    if isinstance(x, Matrix):
        rows = [list(row) for row in x.values]
    elif isinstance(x, RowVec):
        rows = [list(x.values)]
    elif isinstance(x, ColVec):
        rows = [[e] for e in x.values]
    else:
        rows = [[x]]
    return [[_raw(e) for e in row] for row in rows]


def mat_mul_reference(x, y) -> list[list]:
    """Textbook triple loop over raw payloads; the product as rows of raw payloads."""
    zero, _, add, mul, _ = _RAW_SEMIRINGS[x.tag.value]
    xs, ys = raw_rows(x), raw_rows(y)
    inner = len(xs[0]) if xs else 0
    cols = len(ys[0]) if ys else (1 if isinstance(y, ColVec) else 0)
    out = []
    for row in xs:
        out_row = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                acc = add(acc, mul(row[k], ys[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def solution_holds_reference(a: Matrix, b: ColVec, w: ColVec) -> bool:
    """A·w = b, by the raw triple loop; an answer of another carrier or shape does not hold."""
    if not (a.tag is b.tag is w.tag and w.length == a.cols and b.length == a.rows):
        return False
    return mat_mul_reference(a, w) == raw_rows(b)


def certificate_holds_reference(a: Matrix, b: ColVec, u: RowVec, v: RowVec) -> bool:
    """u·A = v·A and u·b != v·b, by the raw triple loop; a pair of another
    carrier or shape does not hold."""
    if not (a.tag is b.tag is u.tag is v.tag and u.length == v.length == b.length == a.rows):
        return False
    return mat_mul_reference(u, a) == mat_mul_reference(v, a) and (
        mat_mul_reference(u, b) != mat_mul_reference(v, b)
    )


def sums_reference(a: Matrix) -> tuple[list, list]:
    """(column sums, row sums) of a matrix, by plain folds over raw payloads."""
    zero, _, add, _, _ = _RAW_SEMIRINGS[a.tag.value]
    rows = raw_rows(a)
    return [reduce(add, col, zero) for col in zip(*rows)], [reduce(add, r, zero) for r in rows]


def tropical_member_grid(a: Matrix, b: ColVec, lo: int = -10, hi: int = 10) -> bool:
    """Does some w with coordinates in {inf} union [lo, hi] (step 1) solve A.w = b?

    Complete for column-normalized instances with entries in [0, hi] + inf
    and b in {0,1}: the residuated candidate then has every coordinate in
    {inf} union [-hi, 0], and a system is solvable iff that candidate solves it.
    """
    rows = raw_rows(a)
    target = [row[0] for row in raw_rows(b)]
    grid: list = [math.inf] + [Fraction(k) for k in range(lo, hi + 1)]
    for w in product(grid, repeat=a.cols):
        ok = True
        for i in range(a.rows):
            acc = math.inf
            for j in range(a.cols):
                val = rows[i][j] + w[j]
                if val < acc:
                    acc = val
            if acc != target[i]:
                ok = False
                break
        if ok:
            return True
    return False


def boolean_member(a: Matrix, b: ColVec) -> bool:
    """Does some w in {0,1}^n solve A.w = b, by plain bit enumeration?"""
    rows = raw_rows(a)
    target = [row[0] for row in raw_rows(b)]
    for bits in product((0, 1), repeat=a.cols):
        ok = True
        for i in range(a.rows):
            acc = 0
            for j in range(a.cols):
                acc |= rows[i][j] & bits[j]
            if acc != target[i]:
                ok = False
                break
        if ok:
            return True
    return False


def _boolean_images(a: Matrix, b: ColVec) -> list[tuple[tuple, tuple[int, ...], int]]:
    """(u, u.A, u.b) over raw bits for every u in {0,1}^d, in lexicographic order."""
    rows = raw_rows(a)
    target = [row[0] for row in raw_rows(b)]
    d, n = a.rows, a.cols
    images = []
    for u in product((0, 1), repeat=d):
        cols = tuple(
            max(u[i] & rows[i][j] for i in range(d)) if d else 0 for j in range(n)
        )
        bval = max(u[i] & target[i] for i in range(d)) if d else 0
        images.append((u, cols, bval))
    return images


def boolean_kernel_inclusion(a: Matrix, b: ColVec) -> bool:
    """Does u.A = v.A force u.b = v.b over all boolean row pairs?"""
    seen: dict[tuple, int] = {}
    for _, cols, bval in _boolean_images(a, b):
        if cols in seen:
            if seen[cols] != bval:
                return False
        else:
            seen[cols] = bval
    return True


def boolean_kernel_pair_reference(
    a: Matrix, b: ColVec
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lexicographically first boolean kernel pair separating b, by search.

    Scans all (u, v) in {0,1}^d x {0,1}^d in lexicographic order and returns
    the first pair of bit tuples with u.A = v.A and u.b != v.b.  None means
    every kernel pair fixes b, so b lies in the right image.
    """
    images = _boolean_images(a, b)
    for u, u_cols, u_b in images:
        for v, v_cols, v_b in images:
            if u_cols == v_cols and u_b != v_b:
                return u, v
    return None


def boolean_sweep_reference(d_max: int, n_max: int) -> ExhaustiveReport:
    """The exhaustive boolean sweep, one (A, b) at a time by two brute-force loops.

    For each shape d x n up to (d_max, n_max), every matrix (entry (i, j) at
    bit i*n + j) and every b (entry i at bit i): b is a member when one of the
    2^n bit vectors w solves A·w = b; a non-member is a violation when no two
    of the 2^d rows u, v have u·A = v·A and u·b != v·b.
    """
    shapes = []
    for d in range(1, d_max + 1):
        for n in range(1, n_max + 1):
            violations: list[str] = []
            members = 0
            for a_bits in range(1 << (d * n)):
                row_masks = [(a_bits >> (i * n)) & ((1 << n) - 1) for i in range(d)]
                col_masks = [
                    sum(((row_masks[i] >> j) & 1) << i for i in range(d)) for j in range(n)
                ]
                for b_mask in range(1 << d):
                    member = any(
                        all(
                            ((row_masks[i] & w) != 0) == bool((b_mask >> i) & 1)
                            for i in range(d)
                        )
                        for w in range(1 << n)
                    )
                    if member:
                        members += 1
                        continue
                    seen: dict[tuple[bool, ...], bool] = {}
                    inclusion_holds = True
                    for u in range(1 << d):
                        key = tuple((u & c) != 0 for c in col_masks)
                        b_bit = (u & b_mask) != 0
                        if key in seen:
                            if seen[key] != b_bit:
                                inclusion_holds = False
                                break
                        else:
                            seen[key] = b_bit
                    if inclusion_holds:
                        violations.append(
                            f"d={d} n={n} A=0b{a_bits:0{d * n}b} b=0b{b_mask:0{d}b}"
                        )
            shapes.append(
                ShapeReport(d, n, (1 << (d * n)) * (1 << d), members, tuple(violations))
            )
    total = sum(s.systems for s in shapes)
    bad = sum(len(s.violations) for s in shapes)
    return ExhaustiveReport(d_max, n_max, tuple(shapes), total, bad)


def kernel_witness_reference(a: Matrix, b: ColVec) -> Optional[tuple[list, list]]:
    """The min-plus block construction of a kernel pair, on raw payloads.

    For a column-stochastic A and b in {0,1}^d (numerals 0 and inf): put the
    k rows with b_i = 0 first, split the columns into Q (inf on every other
    row) and P, and let P, Q be the top blocks and R the bottom one.  Take L
    with L·Q = (0,...,0) not below the zeros row: the negated row minima of
    Q, or zeros with -1 at the first all-inf row of Q, or (-1, 0, ..., 0)
    when Q is empty.  Pad both rows with heavy = p + r below, where
    p = min(0, P, L·P) and r = min(0, -e over the finite e of R):
    u = (0, ..., 0, heavy, ...), v = (L, heavy, ...), in the original row
    order.  Returns None when b = inf or Q is row-stochastic, where b is
    A times the indicator of the Q columns.
    """
    rows = raw_rows(a)
    target = [row[0] for row in raw_rows(b)]
    top = [i for i, x in enumerate(target) if x == 0]
    bottom = [i for i, x in enumerate(target) if x == math.inf]
    if not top:
        return None
    q_cols = [j for j in range(a.cols) if all(rows[i][j] == math.inf for i in bottom)]
    p_cols = [j for j in range(a.cols) if j not in q_cols]
    q_minima = [min((rows[i][j] for j in q_cols), default=math.inf) for i in top]
    if not q_cols or math.inf in q_minima:
        lam_at = q_minima.index(math.inf) if q_cols else 0
        big_lambda = [-1 if t == lam_at else 0 for t in range(len(top))]
    elif all(x == 0 for x in q_minima):
        return None
    else:
        big_lambda = [-x for x in q_minima]
    p_entries = [rows[i][j] for i in top for j in p_cols]
    l_times_p = [min(x + rows[i][j] for x, i in zip(big_lambda, top)) for j in p_cols]
    p = min([0, *p_entries, *l_times_p])
    r = min([0, *(-rows[i][j] for i in bottom for j in p_cols if rows[i][j] != math.inf)])
    heavy = p + r
    u = [heavy] * a.rows
    v = [heavy] * a.rows
    for t, i in enumerate(top):
        u[i], v[i] = 0, big_lambda[t]
    return u, v


def gauss_jordan_reference(
    a: list[list[Fraction]], b: list[Fraction]
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]], list[list[Fraction]]]:
    """Gauss-Jordan over exact fractions with a tracked transform.

    Returns (particular_solution, refutation_row, null_basis).  Exactly one
    of the first two is not None.  The refutation row y satisfies y·A = 0 and
    y·b != 0, read off the transform at an inconsistent row.
    """
    d = len(a)
    n = len(a[0]) if a else 0
    m = [list(row) for row in a]
    rhs = list(b)
    transform = [[Fraction(int(i == t)) for t in range(d)] for i in range(d)]

    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, d) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
            transform[r], transform[pivot] = transform[pivot], transform[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        rhs[r] = rhs[r] / scale
        transform[r] = [x / scale for x in transform[r]]
        for i in range(d):
            if i == r or m[i][c] == 0:
                continue
            factor = m[i][c]
            m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
            rhs[i] = rhs[i] - factor * rhs[r]
            transform[i] = [x - factor * y for x, y in zip(transform[i], transform[r])]
        pivot_cols.append(c)
        r += 1
        if r == d:
            break

    for i in range(r, d):
        if rhs[i] != 0:
            return None, transform[i], []

    solution = [Fraction(0)] * n
    for idx, c in enumerate(pivot_cols):
        solution[c] = rhs[idx]
    free_cols = [c for c in range(n) if c not in set(pivot_cols)]
    null_basis = []
    for f in free_cols:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for idx, c in enumerate(pivot_cols):
            vec[c] = -m[idx][f]
        null_basis.append(vec)
    return solution, None, null_basis


# --- the unscaled idempotent pipeline ---------------------------------------------


@dataclass(frozen=True)
class _Normalized:
    a_norm: list[list]
    b_norm: list
    row_scale: list
    col_scale: list
    kept_columns: list[int]
    original_cols: int


def _normalize(ops, rows: list[list], rhs: list) -> _Normalized:
    z, o, add, mul, inv = ops
    d, n = len(rows), len(rows[0])
    kept = [j for j in range(n) if any(rows[i][j] != z for i in range(d))]
    beta = [rhs[i] if rhs[i] != z else o for i in range(d)]
    beta_inv = [inv(x) for x in beta]
    scaled_rows = [[mul(beta_inv[i], rows[i][j]) for j in kept] for i in range(d)]
    alpha = [reduce(add, (scaled_rows[i][c] for i in range(d)), z) for c in range(len(kept))]
    alpha_inv = [inv(x) for x in alpha]
    a_norm = [[mul(scaled_rows[i][c], alpha_inv[c]) for c in range(len(kept))] for i in range(d)]
    b_norm = [mul(beta_inv[i], rhs[i]) for i in range(d)]
    assert all(reduce(add, (row[c] for row in a_norm), z) == o for c in range(len(kept)))
    return _Normalized(a_norm, b_norm, beta, alpha, kept, n)


def _nat_meet(add, items: list):
    m = items[0]
    for x in items[1:]:
        if add(m, x) == m:  # m >= x in the natural order
            m = x
    return m


def _principal_solution(ops, rows: list[list], rhs: list) -> Optional[list]:
    z, _, add, mul, inv = ops
    xhat = [
        _nat_meet(add, [mul(inv(row[j]), x) for row, x in zip(rows, rhs) if row[j] != z])
        for j in range(len(rows[0]))
    ]
    image = [reduce(add, (mul(x, y) for x, y in zip(row, xhat)), z) for row in rows]
    return xhat if image == rhs else None


def _closed_form_pair(ops, rows: list[list], rhs: list) -> tuple[list, list]:
    z, o, add, mul, inv = ops
    z_rows = [row for row, x in zip(rows, rhs) if x == z]
    m = [reduce(add, (row[j] for row in z_rows), z) for j in range(len(rows[0]))]
    for i, x in enumerate(rhs):
        if x != z:
            s = reduce(add, (y for y, mj in zip(rows[i], m) if mj == z), z)
            if s != o:
                break
    else:
        raise MembershipDetectedError("residuation solves A·w = b")
    lam = o if s == z else inv(s)
    terms = (mul(mul(lam, x), inv(mj)) for x, mj in zip(rows[i], m) if x != z and mj != z)
    heavy = reduce(add, terms, o)
    v_on_o = z if s == z else o
    v = [heavy if x == z else v_on_o for x in rhs]
    return v[:i] + [lam] + v[i + 1 :], v


def idempotent_membership_reference(
    a: Matrix, b: ColVec
) -> tuple[str, Optional[ColVec], Optional[RowVec], Optional[RowVec]]:
    """(kind, w, u, v) of a boolean or min-plus system, on ``_RAW_SEMIRINGS`` and unscaled.

    The zero shortcuts, then normalize -> principal solution -> inflate, or
    the closed-form pair -> unscale, as the solver ran them before its
    integer-scaled raw core; answers are not checked here.
    """
    tag = a.tag
    ops = _RAW_SEMIRINGS[tag.value]
    z, o, _, mul, inv = ops
    rows = raw_rows(a)
    rhs = [row[0] for row in raw_rows(b)]

    def vec(kind, xs):
        return kind(tag, tuple(_payload(x) for x in xs))

    if all(x == z for x in rhs):
        return "solution", vec(ColVec, [z] * a.cols), None, None
    if all(x == z for row in rows for x in row):
        i = next(i for i, x in enumerate(rhs) if x != z)
        unit = [o if t == i else z for t in range(a.rows)]
        return "refutation", None, vec(RowVec, unit), vec(RowVec, [z] * a.rows)
    system = _normalize(ops, rows, rhs)
    xhat = _principal_solution(ops, system.a_norm, system.b_norm)
    if xhat is not None:
        full = [z] * system.original_cols
        for c, j in enumerate(system.kept_columns):
            full[j] = mul(inv(system.col_scale[c]), xhat[c])
        return "solution", vec(ColVec, full), None, None
    try:
        u_norm, v_norm = _closed_form_pair(ops, system.a_norm, system.b_norm)
    except MembershipDetectedError as exc:
        raise InternalInvariantError(f"residuation and the pair disagree: {exc}") from exc
    beta_inv = [inv(x) for x in system.row_scale]
    u, v = ([mul(x, s) for x, s in zip(w, beta_inv)] for w in (u_norm, v_norm))
    return "refutation", None, vec(RowVec, u), vec(RowVec, v)
