"""Dense matrices and oriented vectors over a single carrier.

Everything is immutable and row-major.  A container holds a tuple of raw
payloads, ``values``, checked once by the carrier's ``check``; ``matrix``,
``row_vec`` and ``col_vec`` coerce ints, Fractions, INF and tokens.  A
matrix has at least one row but may have zero columns (dropping all-zero
columns can empty it); the right image of a zero-column matrix is {0}.

The column-stochastic normal form lives here too, as the CLI's ``normalize``
prints it: any system A·w = b over a zero-sum-free carrier scales to one
whose columns sum to the multiplicative identity and whose right-hand side
is a 0/1 vector, and the scalings are invertible diagonals, so answers map
back exactly (``inflate_solution``, ``unscale_certificate``).  The solver
never builds it.  It decides an integer-scaled copy of an idempotent system
(``_integer_scaled``) instead: min-plus is homogeneous under x -> l·x for a
positive integer l, so scaling by the lcm of the denominators leaves only
ints and INF, and ``_divided`` maps the answer back by l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import filterfalse
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DimensionMismatchError,
    InternalInvariantError,
    NotZeroSumFreeError,
    TagMismatchError,
)
from .semirings import _CARRIERS, INF, Carrier, Payload, SemiringTag, descriptor


@dataclass(frozen=True)
class _Vec:
    """A vector of raw payloads."""

    tag: SemiringTag
    values: tuple[Payload, ...]

    def __post_init__(self) -> None:
        _check_payloads(self.tag, self.values)

    @property
    def length(self) -> int:
        return len(self.values)


class RowVec(_Vec):
    """A 1 x n row vector."""


class ColVec(_Vec):
    """An n x 1 column vector."""


@dataclass(frozen=True)
class Matrix:
    """A d x n matrix of raw payloads, d >= 1, n >= 0."""

    tag: SemiringTag
    rows: int
    cols: int
    values: tuple[tuple[Payload, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 0:
            raise DimensionMismatchError(f"bad shape {self.rows}x{self.cols}")
        _check_tuple(self.values)
        if len(self.values) != self.rows:
            raise DimensionMismatchError("row count does not match entries")
        for row in self.values:
            _check_payloads(self.tag, row)
            if len(row) != self.cols:
                raise DimensionMismatchError("ragged rows")


def _check_tuple(values: object) -> None:
    if type(values) is not tuple:  # a list would stay shared with, and mutable by, the caller
        raise TypeError(f"container values must be a tuple, got {type(values).__name__}")


def _check_payloads(tag: SemiringTag, values: tuple) -> None:
    """The one check of a container's payloads, against the carrier's own ``check``."""
    if type(tag) is not SemiringTag:  # a plain str would pass the table lookup
        raise TypeError(f"container tag must be a SemiringTag, got {tag!r}")
    _check_tuple(values)
    for x in filterfalse(_CARRIERS[tag].check, values):
        raise TypeError(f"not a {tag.value} payload: {x!r}")


def _coerced(tag: SemiringTag, values: Iterable) -> tuple[Payload, ...]:
    """The builders' input as payloads: ints, Fractions, INF and tokens, a token read
    as the instance format reads it.  Any other type (bool, float, Decimal, complex)
    raises TypeError; a value outside the carrier raises ValueError."""
    c = _CARRIERS[tag]
    out = []
    for x in values:
        if isinstance(x, str):
            x = c.parse(x.strip())
        elif type(x) is bool or not (isinstance(x, (int, Fraction)) or x is INF):
            raise TypeError(f"not an int, Fraction, INF or token: {x!r}")
        elif x is not INF:
            x = Fraction(x)
            # 0 and 1 take the carrier's own payloads: ints on the two-element carrier
            x = c.zero if x == c.zero else c.one if x == c.one else x
        if not c.check(x):
            raise ValueError(f"not a {tag.value} value: {x!r}")
        out.append(x)
    return tuple(out)


def matrix(tag: SemiringTag | str, rows: Sequence[Sequence]) -> Matrix:
    """Build a matrix, coercing its entries as ``_coerced`` does."""
    tag = SemiringTag(tag)
    data = tuple(_coerced(tag, row) for row in rows)
    if not data:
        raise DimensionMismatchError("a matrix needs at least one row")
    return Matrix(tag, len(data), len(data[0]), data)


def row_vec(tag: SemiringTag | str, values: Sequence) -> RowVec:
    tag = SemiringTag(tag)
    return RowVec(tag, _coerced(tag, values))


def col_vec(tag: SemiringTag | str, values: Sequence) -> ColVec:
    tag = SemiringTag(tag)
    return ColVec(tag, _coerced(tag, values))


def identity_matrix(tag: SemiringTag | str, size: int) -> Matrix:
    """Unit matrix: ones on the diagonal, zeros elsewhere."""
    tag = SemiringTag(tag)
    return Matrix(tag, size, size, tuple(unit_row(tag, size, i).values for i in range(size)))


def ones_row(tag: SemiringTag | str, length: int) -> RowVec:
    tag = SemiringTag(tag)
    return RowVec(tag, (_CARRIERS[tag].one,) * length)


def zeros_row(tag: SemiringTag | str, length: int) -> RowVec:
    tag = SemiringTag(tag)
    return RowVec(tag, (_CARRIERS[tag].zero,) * length)


def zeros_col(tag: SemiringTag | str, length: int) -> ColVec:
    tag = SemiringTag(tag)
    return ColVec(tag, (_CARRIERS[tag].zero,) * length)


def unit_row(tag: SemiringTag | str, length: int, index: int) -> RowVec:
    tag = SemiringTag(tag)
    c = _CARRIERS[tag]
    return RowVec(tag, tuple(c.one if j == index else c.zero for j in range(length)))


def transpose(a: Matrix) -> Matrix:
    if a.cols == 0:
        raise DimensionMismatchError("cannot transpose a zero-column matrix")
    return Matrix(a.tag, a.cols, a.rows, tuple(zip(*a.values)))


def vec_add(x: Union[RowVec, ColVec], y: Union[RowVec, ColVec]) -> Union[RowVec, ColVec]:
    """Entrywise sum of two same-oriented vectors."""
    if type(x) is not type(y):
        raise DimensionMismatchError("cannot add a row vector to a column vector")
    if x.tag is not y.tag:
        raise TagMismatchError("mixed carriers")
    if x.length != y.length:
        raise DimensionMismatchError(f"lengths {x.length} != {y.length}")
    return type(x)(x.tag, tuple(map(_CARRIERS[x.tag].add, x.values, y.values)))


def _dot(c: Carrier, xs: Iterable[Payload], ys: Iterable[Payload]) -> Payload:
    return reduce(c.add, map(c.mul, xs, ys), c.zero)


def _scaled(l: int, xs: Iterable[Payload]) -> list[Payload]:
    """l·x for each payload x whose denominator divides l, as an int; INF stays INF."""
    return [x if x is INF else x.numerator * (l // x.denominator) for x in xs]


def _image_sides(c: Carrier, xs, ys, equations) -> Iterator[tuple[Payload, Payload]]:
    """(φ(xs)·φ(r), φ(ys)·φ(s)) per equation (r, s) of xs·r = ys·s, for φ(p) = l·p with l the
    lcm of the finite denominators in the equation (INF stays INF).  φ is additive and
    φ(p)·φ(q) = φ(1)·φ(p·q), so the sides agree iff xs·r = ys·s; φ(xs), φ(ys) are reused."""
    (z,) = _scaled(1, (c.zero,))
    lv = lcm(*{p.denominator for p in (*xs, *ys) if p is not INF})
    images = _scaled(lv, xs), _scaled(lv, ys)
    for r, s in equations:
        k = lcm(lv, lcm(*{p.denominator for p in (*r, *s) if p is not INF})) // lv
        l = k * lv
        x, y = images if k == 1 else ([p if p is INF else p * k for p in im] for im in images)
        rl, sl = (_scaled(l, r),) * 2 if s is r else (_scaled(l, r), _scaled(l, s))
        yield reduce(c.add, map(c.mul, x, rl), z), reduce(c.add, map(c.mul, y, sl), z)


MatMulOperand = Union[Matrix, RowVec, ColVec]


def mat_mul(x: MatMulOperand, y: MatMulOperand) -> Union[Matrix, RowVec, ColVec, Payload]:
    """Semiring product of conformable operands.

    row * matrix -> row, matrix * col -> col, row * col -> scalar (a
    payload), matrix * matrix -> matrix.
    """
    if x.tag is not y.tag:
        raise TagMismatchError(f"mixed carriers: {x.tag.value} and {y.tag.value}")
    tag = x.tag
    c = _CARRIERS[tag]
    if isinstance(x, RowVec) and isinstance(y, Matrix):
        if x.length != y.rows:
            raise DimensionMismatchError(f"inner dims {x.length} != {y.rows}")
        return RowVec(tag, tuple(_dot(c, x.values, col) for col in zip(*y.values)))
    if isinstance(x, Matrix) and isinstance(y, ColVec):
        if x.cols != y.length:
            raise DimensionMismatchError(f"inner dims {x.cols} != {y.length}")
        return ColVec(tag, tuple(_dot(c, row, y.values) for row in x.values))
    if isinstance(x, RowVec) and isinstance(y, ColVec):
        if x.length != y.length:
            raise DimensionMismatchError(f"inner dims {x.length} != {y.length}")
        return _dot(c, x.values, y.values)
    if isinstance(x, Matrix) and isinstance(y, Matrix):
        if x.cols != y.rows:
            raise DimensionMismatchError(f"inner dims {x.cols} != {y.rows}")
        cols = list(zip(*y.values))
        data = tuple(tuple(_dot(c, row, col) for col in cols) for row in x.values)
        return Matrix(tag, x.rows, y.cols, data)
    raise TypeError(f"cannot multiply {type(x).__name__} by {type(y).__name__}")


def _sums(tag: SemiringTag, vectors: Iterable[Iterable[Payload]]) -> tuple[Payload, ...]:
    c = _CARRIERS[tag]
    return tuple(reduce(c.add, v, c.zero) for v in vectors)


def col_sums(a: Matrix) -> tuple[Payload, ...]:
    return _sums(a.tag, zip(*a.values))


def row_sums(a: Matrix) -> tuple[Payload, ...]:
    return _sums(a.tag, a.values)


def is_column_stochastic(a: Matrix) -> bool:
    """True iff every column sums to one (for min-plus: every column min is 0)."""
    o = _CARRIERS[a.tag].one
    return all(s == o for s in col_sums(a))


def is_row_stochastic(a: Matrix) -> bool:
    """True iff every row sums to one."""
    o = _CARRIERS[a.tag].one
    return all(s == o for s in row_sums(a))


@dataclass(frozen=True)
class NormalizedSystem:
    """Column-stochastic form of a system plus the scalings that undo it.

    ``a_norm = C^-1 · A' · D^-1`` and ``b_norm = C^-1 · b`` where A' is A
    restricted to ``kept_columns``, C = diag(row_scale), D = diag(col_scale).
    Both diagonals are invertible, so solutions and kernel-pair certificates
    for the normalized system map back to the original one.
    """

    a_norm: Matrix
    b_norm: ColVec
    row_scale: tuple[Payload, ...]
    col_scale: tuple[Payload, ...]
    kept_columns: tuple[int, ...]
    original_cols: int


def _check_system(a: Matrix, b: ColVec, w: ColVec | None = None) -> None:
    if a.tag is not b.tag or (w is not None and w.tag is not a.tag):
        raise TagMismatchError("matrix and vector carriers differ")
    if b.length != a.rows:
        raise DimensionMismatchError(f"matrix has {a.rows} rows, vector has {b.length}")
    if w is not None and w.length != a.cols:
        raise DimensionMismatchError(f"matrix has {a.cols} columns, solution has {w.length}")


def _integer_scaled(a: Matrix, b: ColVec) -> tuple[int, list[list], list]:
    """(l, A, b): an idempotent system times the lcm l of the finite
    denominators of [A | b], as raw payloads."""
    # a set, not a generator: a tuple built from a generator is resized, and
    # freed tuples of its length then pile up on the interpreter's free lists
    l = lcm(*{x.denominator for row in (*a.values, b.values) for x in row if x is not INF})
    return l, [_scaled(l, row) for row in a.values], _scaled(l, b.values)


def _divided(c: Carrier, l: int, xs: Iterable[Payload]) -> tuple[Payload, ...]:
    """x/l for each payload x of an answer to the integer-scaled system."""
    return tuple(c.unscale(x, l) for x in xs)


def _normalize_raw(c: Carrier, rows: list[list], rhs: list) -> tuple:
    """(a_norm, b_norm, row_scale, col_scale, kept_columns) of ``normalize``, raw."""
    z, one = c.zero, c.one
    kept = [j for j, col in enumerate(zip(*rows)) if any(x != z for x in col)]
    beta = [one if x == z else x for x in rhs]
    beta_inv = list(map(c.inv, beta))
    scaled = [[c.mul(s, row[j]) for j in kept] for s, row in zip(beta_inv, rows)]
    alpha = [reduce(c.add, col, z) for col in zip(*scaled)]
    if z in alpha:
        raise InternalInvariantError("zero column sum despite zero-sum-freeness")
    alpha_inv = list(map(c.inv, alpha))
    a_norm = tuple(tuple(map(c.mul, row, alpha_inv)) for row in scaled)
    b_norm = tuple(map(c.mul, beta_inv, rhs))
    if any(reduce(c.add, col, z) != one for col in zip(*a_norm)):
        raise InternalInvariantError("normalized matrix is not column-stochastic")
    if any(x != z and x != one for x in b_norm):
        raise InternalInvariantError("normalized right-hand side is not 0/1")
    return a_norm, b_norm, beta, alpha, kept


def _unscaled(c: Carrier, scales, at, size: int, values) -> tuple[Payload, ...]:
    """x_k·scales_k^-1 at position at[k] of a zero vector: a normalized
    solution (at = kept columns) or kernel-pair row back in the caller's units."""
    full = [c.zero] * size
    for k, s, x in zip(at, scales, values):
        full[k] = c.mul(c.inv(s), x)
    return tuple(full)


def normalize(a: Matrix, b: ColVec) -> NormalizedSystem:
    """Scale a system over a zero-sum-free carrier to column-stochastic form.

    Drops all-zero columns, scales row i by the inverse of b_i (or 1 where
    b_i = 0) and then each remaining column by the inverse of its sum; the
    sums are nonzero precisely because the carrier is zero-sum free.
    """
    _check_system(a, b)
    tag = a.tag
    if not descriptor(tag).is_zero_sum_free:
        raise NotZeroSumFreeError(f"the {tag.value} carrier is not zero-sum free")
    c = _CARRIERS[tag]
    a_norm, b_norm, beta, alpha, kept = _normalize_raw(c, a.values, b.values)
    a_norm = Matrix(tag, a.rows, len(kept), a_norm)
    return NormalizedSystem(
        a_norm, ColVec(tag, b_norm), tuple(beta), tuple(alpha), tuple(kept), a.cols
    )


def inflate_solution(system: NormalizedSystem, w_norm: ColVec) -> ColVec:
    """Map a normalized solution back: w = D^-1 · w_norm, dropped columns get 0."""
    tag = system.a_norm.tag
    if w_norm.tag is not tag:
        raise TagMismatchError("solution and system carriers differ")
    if w_norm.length != len(system.kept_columns):
        raise DimensionMismatchError("solution length does not match kept columns")
    kept, size = system.kept_columns, system.original_cols
    return ColVec(tag, _unscaled(_CARRIERS[tag], system.col_scale, kept, size, w_norm.values))


def unscale_certificate(
    system: NormalizedSystem, u_norm: RowVec, v_norm: RowVec
) -> tuple[RowVec, RowVec]:
    """Map a normalized kernel pair back: (u, v) = (u_norm · C^-1, v_norm · C^-1)."""
    tag = system.a_norm.tag
    d = len(system.row_scale)
    if u_norm.tag is not tag or v_norm.tag is not tag:
        raise TagMismatchError("certificate and system carriers differ")
    if u_norm.length != d or v_norm.length != d:
        raise DimensionMismatchError("certificate length does not match row count")
    c, scales = _CARRIERS[tag], system.row_scale
    u, v = (RowVec(tag, _unscaled(c, scales, range(d), d, w.values)) for w in (u_norm, v_norm))
    return u, v
