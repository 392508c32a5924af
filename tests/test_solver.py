"""Membership decisions: residuation, exact elimination, certificates, extension."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from random import Random

import pytest

import semilin.semirings
import semilin.solver
import semilin.witness
from semilin import (
    INF,
    DimensionMismatchError,
    ExtensionKind,
    InternalInvariantError,
    SemiringTag,
    SolveKind,
    TagMismatchError,
    UnsupportedCarrierError,
    ZeroColumnError,
    carrier,
    check_certificate,
    col_vec,
    extend_functional,
    field_solve,
    identity_matrix,
    mat_mul,
    matrix,
    membership_certified,
    principal_solution,
    row_vec,
    zeros_col,
)
from semilin.sampling import (
    random_col_vec,
    random_column_stochastic,
    random_matrix,
    random_system,
    random_zero_one_col,
)
from semilin.matrices import _normalize_raw
from semilin.solver import _checked_solution, _row_reduce
from semilin.witness import _closed_form_pair, _residuate
from tests.oracles import (
    boolean_member,
    certificate_holds_reference,
    gauss_jordan_reference,
    idempotent_membership_reference,
    solution_holds_reference,
    tropical_member_grid,
)

T = SemiringTag.TROPICAL
B = SemiringTag.BOOLEAN
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL


# --- principal solution ----------------------------------------------------------


def test_principal_solution_solvable():
    a = matrix(T, [[0, 2], [3, 0]])
    b = col_vec(T, [1, 0])
    assert principal_solution(a, b) == col_vec(T, [1, 0])


def test_principal_solution_unsolvable():
    a = matrix(T, [[0, 2], [3, 0]])
    b = col_vec(T, [0, INF])
    assert principal_solution(a, b) is None
    # the candidate itself would be (inf, inf), which maps to (inf, inf) != b


def test_principal_solution_zero_rhs():
    a = matrix(T, [[0, 2], [3, 0]])
    b = col_vec(T, [INF, INF])
    w = principal_solution(a, b)
    assert w is not None and mat_mul(a, w) == b


def test_principal_solution_guards():
    with pytest.raises(UnsupportedCarrierError):
        principal_solution(matrix(Q, [[1]]), col_vec(Q, [1]))
    with pytest.raises(ZeroColumnError):
        principal_solution(matrix(T, [[INF, 0], [INF, 0]]), col_vec(T, [0, 0]))


def test_principal_solution_completeness_tropical():
    """Returns a vector iff b is in the right image, against the grid oracle."""
    rng = Random(101)
    entry = lambda r: INF if r.random() < 0.2 else _finite(T, r, 0, 10)
    checked_member = checked_nonmember = 0
    for _ in range(80):
        d, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_column_stochastic(T, d, n, rng, entry)
        b = random_zero_one_col(T, d, rng)
        got = principal_solution(a, b) is not None
        expected = tropical_member_grid(a, b)
        assert got == expected
        checked_member += got
        checked_nonmember += not got
    assert checked_member and checked_nonmember


def _finite(tag, rng, lo, hi):
    x = rng.randint(lo, hi)
    return x if tag is B else Fraction(x)


def test_principal_solution_completeness_boolean():
    rng = Random(102)
    for _ in range(80):
        d, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_column_stochastic(B, d, n, rng, lambda r: _finite(B, r, 0, 1))
        b = random_zero_one_col(B, d, rng)
        assert (principal_solution(a, b) is not None) == boolean_member(a, b)


@pytest.mark.parametrize("tag", [B, T])
def test_principal_solution_maximality(tag):
    """If solvable, the residuated candidate dominates every sampled solution."""
    rng = Random(103)
    for _ in range(60):
        d, n = rng.randint(1, 4), rng.randint(1, 4)
        entry = (lambda r: _finite(B, r, 0, 1)) if tag is B else (
            lambda r: INF if r.random() < 0.15 else _finite(T, r, -5, 5)
        )
        a = random_column_stochastic(tag, d, n, rng, entry)
        w = random_col_vec(tag, n, rng)
        b = mat_mul(a, w)
        xhat = principal_solution(a, b)
        assert xhat is not None
        assert mat_mul(a, xhat) == b
        add = carrier(tag).add
        assert all(add(x, y) == x for x, y in zip(xhat.values, w.values))  # xhat >= w


# --- rational elimination ---------------------------------------------------------


def test_field_solve_identity():
    a = identity_matrix(Q, 2)
    b = col_vec(Q, [3, 4])
    result = field_solve(a, b)
    assert result.kind is SolveKind.SOLUTION and result.w == b


def test_field_solve_refutation():
    a = matrix(Q, [[1], [1]])
    b = col_vec(Q, [1, 0])
    result = field_solve(a, b)
    assert result.kind is SolveKind.REFUTATION
    assert certificate_holds_reference(a, b, result.u, result.v)
    assert all(x >= 0 for x in result.u.values)
    assert all(x >= 0 for x in result.v.values)


def test_field_solve_probe_instance():
    a = matrix(Q, [[0, 1], [1, 1]])
    b = col_vec(Q, [2, 1])
    result = field_solve(a, b)
    assert result.kind is SolveKind.SOLUTION
    assert result.w == col_vec(Q, [-1, 2])


def test_field_solve_random_dichotomy():
    rng = Random(104)
    kinds = set()
    for _ in range(120):
        a, b = random_system(Q, rng, max_dim=4)
        result = field_solve(a, b)
        kinds.add(result.kind)
        if result.kind is SolveKind.SOLUTION:
            assert mat_mul(a, result.w) == b
        else:
            assert result.kind is SolveKind.REFUTATION
            assert certificate_holds_reference(a, b, result.u, result.v)
    assert kinds == {SolveKind.SOLUTION, SolveKind.REFUTATION}


def _plant_dependent_rows(rng, a, count):
    """Overwrite `count` rows of a with rational combinations of two other rows."""
    for i in rng.sample(range(len(a)), count):
        j, k = rng.choice(range(len(a))), rng.choice(range(len(a)))
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]


def _image(a, w):
    return [sum((x * y for x, y in zip(row, w)), Fraction(0)) for row in a]


def test_row_reduce_matches_fraction_reference():
    """Integer elimination returns the very triple that elimination over Fractions does."""
    rng = Random(301)
    seen = set()
    for _ in range(2000):
        d, n = rng.randint(1, 10), rng.randint(0, 10)
        a = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(d)
        ]
        for j in rng.sample(range(n), rng.randint(0, n // 3)):
            for row in a:
                row[j] = Fraction(0)
        if d > 1:
            _plant_dependent_rows(rng, a, rng.randint(0, d // 2))
        if rng.random() < 0.5:
            b = _image(a, [Fraction(rng.randint(-4, 4), rng.randint(1, 7)) for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(d)]
        got = _row_reduce(a, b)
        assert got == gauss_jordan_reference(a, b), (a, b)
        seen.add((got[1] is not None, bool(got[2])))
    assert seen == {(True, False), (False, False), (False, True)}


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@pytest.mark.parametrize("rank", [12, 7])
@pytest.mark.parametrize("solvable", [True, False])
def test_row_reduce_divides_exactly_on_wide_entries(rank, solvable):
    """12x12 systems with 70-bit numerators over distinct primes: a lossy // would show."""
    rng = Random(302 + rank + solvable)
    for _ in range(3):
        basis = [
            [Fraction(rng.randint(-(2**70), 2**70), rng.choice(_PRIMES)) for _ in range(12)]
            for _ in range(rank)
        ]
        a = basis + [
            _image(list(zip(*basis)), [Fraction(rng.randint(-5, 5)) for _ in basis])
            for _ in range(12 - rank)
        ]
        rng.shuffle(a)
        if solvable:
            b = _image(a, [Fraction(rng.randint(-(2**70), 2**70), p) for p in _PRIMES[:12]])
        else:
            b = [Fraction(rng.randint(-(2**70), 2**70), rng.choice(_PRIMES)) for _ in range(12)]
        assert _row_reduce(a, b) == gauss_jordan_reference(a, b)
        qa, qb = matrix(Q, a), col_vec(Q, b)
        result = field_solve(qa, qb)
        if result.kind is SolveKind.SOLUTION:
            assert mat_mul(qa, result.w) == qb
        else:
            assert rank < 12 and not solvable
            assert certificate_holds_reference(qa, qb, result.u, result.v)


# --- membership with certificates ---------------------------------------------------


def test_membership_tropical_refutation_example():
    a = matrix(T, [[1, 2], [0, 0]])
    b = col_vec(T, [0, INF])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.REFUTATION
    # Z = {1} meets both columns, so s_0 = inf: u = e_0 + H·1_Z, v = H·1_Z with H = 0
    assert result.u == row_vec(T, [0, 0])
    assert result.v == row_vec(T, [INF, 0])
    assert certificate_holds_reference(a, b, result.u, result.v)


def test_membership_boolean_refutation_example():
    a = matrix(B, [[1], [1]])
    b = col_vec(B, [1, 0])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.REFUTATION
    # the closed-form pair u = e_0 + 1_Z, v = 1_Z with Z = {1}
    assert result.u == row_vec(B, [1, 1])
    assert result.v == row_vec(B, [0, 1])
    assert certificate_holds_reference(a, b, result.u, result.v)


@pytest.mark.parametrize(
    "a, b",
    [
        (matrix(T, [[1, 2], [0, 0]]), col_vec(T, [0, INF])),
        (matrix(T, [[0], [5]]), col_vec(T, [3, 1])),
        (matrix(B, [[1], [1]]), col_vec(B, [1, 0])),
    ],
    ids=["tropical-s-inf", "tropical-s-finite", "boolean"],
)
def test_refutation_is_checked_exactly_once(monkeypatch, a, b):
    """_checked_refutation is the one check; the solver skips the wrappers' self-checks."""
    calls = 0

    def counting_check(*args):
        nonlocal calls
        calls += 1
        return check_certificate(*args)

    monkeypatch.setattr(semilin.solver, "check_certificate", counting_check)
    monkeypatch.setattr(semilin.witness, "check_certificate", counting_check)
    assert membership_certified(a, b).kind is SolveKind.REFUTATION
    assert calls == 1


TROPICAL_L6 = matrix(T, [["1/2", "1/3"], [0, "5/6"]])


@pytest.mark.parametrize(
    "a, b, kind",
    [
        (TROPICAL_L6, col_vec(T, ["1/2", 0]), SolveKind.SOLUTION),
        (TROPICAL_L6, col_vec(T, ["1/2", INF]), SolveKind.REFUTATION),
        (matrix(B, [[1, 0], [1, 1]]), col_vec(B, [1, 1]), SolveKind.SOLUTION),
        (matrix(B, [[1], [1]]), col_vec(B, [1, 0]), SolveKind.REFUTATION),
    ],
    ids=["tropical-solution", "tropical-refutation", "boolean-solution", "boolean-refutation"],
)
def test_answer_is_checked_once_against_the_callers_system(monkeypatch, a, b, kind):
    """The solver computes on an integer-scaled copy (l = 6 for the tropical
    cases) but checks each answer once, on the caller's own a and b."""
    calls = []
    for name in ("_checked_solution", "_checked_refutation"):

        def spy(*args, real=getattr(semilin.solver, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semilin.solver, name, spy)
    assert membership_certified(a, b).kind is kind
    assert len(calls) == 1
    assert calls[0][0] is a and calls[0][1] is b


# --- the one answer check against the raw-loop reference ------------------------------


def test_solution_check_guards_shape_and_carrier():
    """A zip-truncated check would pass a short w (or b) on its prefix, and a
    payload-only one a w of another carrier; each raises instead."""
    a, b = matrix(T, [[0, 5]]), col_vec(T, [0])
    for w in (col_vec(T, [0]), col_vec(T, [0, 5, 0])):
        with pytest.raises(DimensionMismatchError):
            _checked_solution(a, b, w)
    with pytest.raises(DimensionMismatchError):
        _checked_solution(matrix(T, [[0], [1]]), col_vec(T, [0]), col_vec(T, [0]))
    with pytest.raises(TagMismatchError):
        _checked_solution(matrix(Q, [[1]]), col_vec(Q, [1]), col_vec(QP, [1]))
    result = _checked_solution(matrix(Q, [[1]]), col_vec(Q, [1]), col_vec(Q, [1]))
    assert result.kind is SolveKind.SOLUTION


def test_membership_rejects_a_vector_of_another_carrier():
    """A tropical A with a rational b of the same payloads raises instead of
    being solved as one tropical system."""
    with pytest.raises(TagMismatchError):
        membership_certified(matrix(T, [[0, 5]]), col_vec(Q, [0]))


_PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _check_draw(tag, rng: Random, den, size=None):
    """(A, b, w) over ``tag``: entries k/den() (bits over the booleans, inf at
    1/5 over min-plus), w drawn alike, and b := A·w for half the draws.  Over
    the nonnegative rationals n <= d, which keeps the solver's bounded search
    over free variables short."""
    d = rng.randint(1, 6)
    d, n = size or (d, rng.randint(1, d if tag is QP else 6))

    def entry():
        if tag is B:
            return rng.randint(0, 1)
        if tag is T and rng.random() < 0.2:
            return INF
        return Fraction(rng.randint(0 if tag is QP else -9, 9), den())

    a = matrix(tag, [[entry() for _ in range(n)] for _ in range(d)])
    w = col_vec(tag, [entry() for _ in range(n)])
    b = mat_mul(a, w) if rng.random() < 0.5 else col_vec(tag, [entry() for _ in range(d)])
    return a, b, w


def _corrupted(rng: Random, a, b, vec):
    """vec with one finite entry moved by 1/l (a bit flipped over the booleans),
    l the lcm of the denominators in a, b and vec, and over min-plus vec with
    one finite entry set to inf."""
    finite = [j for j, x in enumerate(vec.values) if x is not INF]
    if not finite:
        return []
    l = math.lcm(*(x.denominator for x in chain(*a.values, b.values, vec.values) if x is not INF))
    j = rng.choice(finite)
    x = vec.values[j]
    moved = [1 - x] if vec.tag is B else [x + Fraction(1, l)] + ([INF] if vec.tag is T else [])
    return [type(vec)(vec.tag, vec.values[:j] + (y,) + vec.values[j + 1 :]) for y in moved]


def _accepts_solution(a, b, w) -> bool:
    try:
        _checked_solution(a, b, w)
    except InternalInvariantError:
        return False
    return True


@pytest.mark.parametrize("tag", [B, T, QP, Q])
def test_answer_check_matches_raw_reference(tag):
    """``_checked_solution`` and ``check_certificate`` accept and reject exactly
    what the raw triple loop does: solver answers, planted solutions and their
    corruptions, on integer, k/6 and k/7, and distinct-prime-denominator systems."""
    rng = Random(919)
    draws = [_check_draw(tag, rng, lambda: 1) for _ in range(150)]
    if tag is not B:
        draws += [_check_draw(tag, rng, lambda: rng.choice((6, 7))) for _ in range(150)]
        for _ in range(4):
            primes = iter(_PRIMES)
            draws.append(_check_draw(tag, rng, lambda: next(primes), size=(5, rng.randint(3, 6))))
    seen = Counter()
    for a, b, w in draws:
        result = membership_certified(a, b)
        for w0 in [w] + ([result.w] if result.kind is SolveKind.SOLUTION else []):
            for x in (w0, *_corrupted(rng, a, b, w0)):
                holds = solution_holds_reference(a, b, x)
                assert _accepts_solution(a, b, x) == holds, (a, b, x)
                seen["solution", holds] += 1
        if result.kind is SolveKind.REFUTATION:
            u, v = result.u, result.v
            pairs = [(u, v), (u, u), (v, v)]
            pairs += [(x, v) for x in _corrupted(rng, a, b, u)]
            pairs += [(u, x) for x in _corrupted(rng, a, b, v)]
            for p, q in pairs:
                holds = certificate_holds_reference(a, b, p, q)
                assert check_certificate(a, b, p, q) == holds, (a, b, p, q)
                seen["pair", holds] += 1
    assert min(seen[k] for k in product(("solution", "pair"), (True, False))) >= 20, seen


def _min_plus(rows, w):
    return [min((x + y for x, y in zip(row, w) if INF not in (x, y)), default=INF) for row in rows]


def _tropical_draw(rng: Random):
    """d, n <= 9, denominators from {1, 2, 3, 6, 7}, inf at 1/5, with planted
    all-inf columns and rows and inf entries of b; b := A·w for half the draws."""
    d, n = rng.randint(1, 9), rng.randint(1, 9)

    def entry():
        if rng.random() < 0.2:
            return INF
        return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 6, 7)))

    rows = [[entry() for _ in range(n)] for _ in range(d)]
    if rng.random() < 0.25:
        j = rng.randrange(n)
        for row in rows:
            row[j] = INF
    if rng.random() < 0.25:
        rows[rng.randrange(d)] = [INF] * n
    if rng.random() < 0.5:
        b = _min_plus(rows, [entry() for _ in range(n)])
    else:
        b = [entry() for _ in range(d)]
        if rng.random() < 0.25:
            b[rng.randrange(d)] = INF
    return matrix(T, rows), col_vec(T, b)


def _boolean_draw(rng: Random):
    d, n = rng.randint(1, 9), rng.randint(1, 9)
    rows = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(d)]
    if rng.random() < 0.5:
        w = [rng.randint(0, 1) for _ in range(n)]
        b = [int(any(x & y for x, y in zip(row, w))) for row in rows]
    else:
        b = [rng.randint(0, 1) for _ in range(d)]
    return matrix(B, rows), col_vec(B, b)


def test_raw_core_matches_element_reference():
    """The integer-scaled raw core returns exactly the unscaled reference pipeline's answers."""
    rng = Random(707)
    draws = [_tropical_draw(rng) for _ in range(2000)] + [_boolean_draw(rng) for _ in range(1000)]
    kinds = {}
    scaled = 0
    for a, b in draws:
        result = membership_certified(a, b)
        got = (result.kind.value, result.w, result.u, result.v)
        assert got == idempotent_membership_reference(a, b), (a, b)
        kinds[a.tag, got[0]] = kinds.get((a.tag, got[0]), 0) + 1
        scaled += any(x is not INF and x.denominator > 1 for x in chain(*a.values))
    assert min(kinds.values()) >= 200 and len(kinds) == 4
    assert scaled >= 1500


def test_raw_core_matches_element_reference_at_benchmark_sizes():
    """The same agreement at d = n in 48..64, entries -9..9 and inf at 1/8; half
    the right-hand sides are A·w, the others random."""
    rng = Random(4864)
    entry = lambda: INF if rng.random() < 0.125 else Fraction(rng.randint(-9, 9))
    kinds = Counter()
    for k in range(12):
        size = rng.randint(48, 64)
        rows = [[entry() for _ in range(size)] for _ in range(size)]
        b = _min_plus(rows, [entry() for _ in range(size)]) if k % 2 else [entry() for _ in rows]
        a, b = matrix(T, rows), col_vec(T, b)
        result = membership_certified(a, b)
        got = (result.kind.value, result.w, result.u, result.v)
        assert got == idempotent_membership_reference(a, b), (a, b)
        kinds[got[0]] += 1
    assert kinds["solution"] >= 4 and kinds["refutation"] >= 4, kinds


def _zero_rich_draw(tag, rng: Random):
    """A boolean or min-plus system, d, n <= 7, with a zero row, a zero column and
    a zero entry of b each planted in a third of the draws; b := A·w for half."""
    c = carrier(tag)
    d, n = rng.randint(1, 7), rng.randint(1, 7)

    def entry():
        if tag is B:
            return rng.randint(0, 1)
        return INF if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    rows = [[entry() for _ in range(n)] for _ in range(d)]
    if rng.random() < 1 / 3:
        rows[rng.randrange(d)] = [c.zero] * n
    if rng.random() < 1 / 3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = c.zero
    a = matrix(tag, rows)
    b = list(mat_mul(a, col_vec(tag, [entry() for _ in range(n)])).values)
    if rng.random() < 0.5:
        b = [entry() for _ in range(d)]
    if rng.random() < 1 / 3:
        b[rng.randrange(d)] = c.zero
    return a, col_vec(tag, b)


@pytest.mark.parametrize("tag", [B, T])
def test_raw_stages_never_invert_zero(monkeypatch, tag):
    """``Carrier.inv`` is never to be called on zero, and the carriers disagree on
    what it does there.  With an ``inv`` that raises on zero in the carrier table,
    draws with zero rows, zero columns and zeros in b still get the reference's answers."""
    c = carrier(tag)

    def inv(x):
        if x == c.zero:
            raise AssertionError("inv called on zero")
        return c.inv(x)

    monkeypatch.setitem(semilin.semirings._CARRIERS, tag, replace(c, inv=inv))
    rng = Random(2525)
    seen = Counter()
    for _ in range(300):
        a, b = _zero_rich_draw(tag, rng)
        result = membership_certified(a, b)
        got = (result.kind.value, result.w, result.u, result.v)
        assert got == idempotent_membership_reference(a, b), (a, b)
        seen[got[0]] += 1
        seen["zero row"] += any(all(x == c.zero for x in row) for row in a.values)
        seen["zero column"] += any(all(x == c.zero for x in col) for col in zip(*a.values))
        seen["zero in b"] += c.zero in b.values
    assert min(seen.values()) >= 40 and len(seen) == 5, seen


# --- a non-chain idempotent carrier ---------------------------------------------------
#
# Z^2 under componentwise min and +, with INF as zero: idempotent, but (0, 1) and
# (1, 0) are incomparable, so the raw stages run beyond the chains of the built-in
# carriers.  The stages read only zero, one, add, mul and inv of the record; its
# other fields stay min-plus's and go unused.


def _z2_add(x, y):
    if x is INF or y is INF:
        return y if x is INF else x
    return (min(x[0], y[0]), min(x[1], y[1]))


def _z2_mul(x, y):
    return INF if x is INF or y is INF else (x[0] + y[0], x[1] + y[1])


_Z2 = replace(carrier(T), one=(0, 0), add=_z2_add, mul=_z2_mul, inv=lambda x: (-x[0], -x[1]))


def _z2_dot(xs, ys) -> tuple:
    """xs·ys by the test's own loops: a min-plus dot product per component, INF as inf."""
    lifted = [[(math.inf, math.inf) if x is INF else x for x in v] for v in (xs, ys)]
    return tuple(min((x[k] + y[k] for x, y in zip(*lifted)), default=math.inf) for k in (0, 1))


def test_raw_stages_decide_a_non_chain_idempotent_carrier():
    """Residuation and the closed-form pair over Z^2, on the unnormalized
    system, zero A and zero b included: every answer checks."""
    rng = Random(4242)
    entry = lambda: INF if rng.random() < 0.3 else (rng.randint(-3, 3), rng.randint(-3, 3))
    solutions = pairs = unattained = 0
    for _ in range(400):
        d, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[entry() for _ in range(n)] for _ in range(d)]
        if rng.random() < 0.5:
            w = [entry() for _ in range(n)]
            rhs = [INF if math.inf in p else p for p in (_z2_dot(row, w) for row in rows)]
        else:
            rhs = [entry() for _ in range(d)]
        a_norm = _normalize_raw(_Z2, rows, rhs)[0]
        # a column sum of one that no single entry attains exists only off a chain
        unattained += any((0, 0) not in col for col in zip(*a_norm))
        xhat, i, p = _residuate(_Z2, rows, rhs)
        if i is None:
            assert [_z2_dot(row, xhat) for row in rows] == [_z2_dot([x], [(0, 0)]) for x in rhs]
            solutions += 1
        else:
            u, v = _closed_form_pair(_Z2, rows, rhs, i, p)
            assert all(_z2_dot(u, col) == _z2_dot(v, col) for col in zip(*rows))
            assert _z2_dot(u, rhs) != _z2_dot(v, rhs)
            pairs += 1
    assert solutions >= 20 and pairs >= 20 and unattained >= 20, (solutions, pairs, unattained)


@pytest.mark.parametrize("tag", [B, T, Q])
def test_membership_identity_returns_b(tag):
    rng = Random(105)
    for _ in range(10):
        b = random_col_vec(tag, 3, rng)
        result = membership_certified(identity_matrix(tag, 3), b)
        assert result.kind is SolveKind.SOLUTION
        assert result.w == b


@pytest.mark.parametrize("tag", [B, T])
def test_membership_zero_rhs_and_zero_matrix(tag):
    a = matrix(tag, [[0, 0], [0, 0]]) if tag is B else matrix(tag, [[INF, INF], [INF, INF]])
    b = zeros_col(tag, 2)
    result = membership_certified(a, b)
    assert result.kind is SolveKind.SOLUTION
    b2 = col_vec(tag, [1, 0] if tag is B else [0, INF])
    result2 = membership_certified(a, b2)
    assert result2.kind is SolveKind.REFUTATION
    assert certificate_holds_reference(a, b2, result2.u, result2.v)


@pytest.mark.parametrize("tag", [B, T, Q])
def test_membership_generated_instances_solve(tag):
    rng = Random(106)
    for _ in range(60):
        d, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(tag, d, n, rng)
        w = random_col_vec(tag, n, rng)
        b = mat_mul(a, w)
        result = membership_certified(a, b)
        assert result.kind is SolveKind.SOLUTION
        assert mat_mul(a, result.w) == b


@pytest.mark.parametrize("tag", [B, T, Q])
def test_membership_dichotomy_and_soundness(tag):
    rng = Random(107)
    for _ in range(80):
        a, b = random_system(tag, rng)
        result = membership_certified(a, b)
        assert result.kind in (SolveKind.SOLUTION, SolveKind.REFUTATION)
        if result.kind is SolveKind.REFUTATION:
            assert certificate_holds_reference(a, b, result.u, result.v)
            for _ in range(5):
                w = random_col_vec(tag, a.cols, rng)
                assert mat_mul(a, w) != b


def test_membership_tropical_agrees_with_grid_oracle():
    rng = Random(108)
    entry = lambda r: INF if r.random() < 0.2 else _finite(T, r, 0, 10)
    for _ in range(60):
        d, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_column_stochastic(T, d, n, rng, entry)
        b = random_zero_one_col(T, d, rng)
        result = membership_certified(a, b)
        assert (result.kind is SolveKind.SOLUTION) == tropical_member_grid(a, b)


# --- nonnegative rationals -----------------------------------------------------------


def test_nonneg_probe_instance_no_solution():
    a = matrix(QP, [[0, 1], [1, 1]])
    b = col_vec(QP, [2, 1])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.NO_SOLUTION
    assert "unique rational solution" in result.detail


def test_nonneg_refutation_comes_from_elimination():
    a = matrix(QP, [[1], [1]])
    b = col_vec(QP, [1, 0])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.REFUTATION
    assert certificate_holds_reference(a, b, result.u, result.v)


def test_nonneg_solution_with_free_variables():
    a = matrix(QP, [[1, 1]])
    b = col_vec(QP, [1])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.SOLUTION
    assert mat_mul(a, result.w) == b


def test_nonneg_undecided_when_search_exhausts():
    a = matrix(QP, [[0, 0, 1], [1, 1, 1]])
    b = col_vec(QP, [2, 1])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.UNDECIDED
    assert "bounded search" in result.detail


def test_nonneg_grid_search_recovers_shifted_solution():
    # the particular solution (free variables at 0) is (-1, 2, 0); shifting the
    # free variable by 1 lands on the nonnegative solution (0, 1, 1)
    a = matrix(QP, [[1, 1, 0], [1, 2, 1]])
    b = col_vec(QP, [1, 3])
    result = membership_certified(a, b)
    assert result.kind is SolveKind.SOLUTION
    assert mat_mul(a, result.w) == b


# --- functional extension -------------------------------------------------------------


def test_extend_functional_tropical_example():
    g = matrix(T, [[0, 2], [3, 0]])
    values = col_vec(T, [1, 0])
    result = extend_functional(g, values)
    assert result.kind is ExtensionKind.EXTENDED
    assert result.alpha == col_vec(T, [1, 0])


def test_extend_functional_boolean_ill_posed():
    g = matrix(B, [[1], [1]])
    values = col_vec(B, [1, 0])
    result = extend_functional(g, values)
    assert result.kind is ExtensionKind.ILL_POSED
    assert certificate_holds_reference(g, values, result.u, result.v)


@pytest.mark.parametrize("tag", [B, T, Q])
def test_extend_functional_consistent_prescriptions(tag):
    rng = Random(109)
    for _ in range(40):
        d, n = rng.randint(1, 4), rng.randint(1, 4)
        g = random_matrix(tag, d, n, rng)
        w = random_col_vec(tag, n, rng)
        values = mat_mul(g, w)
        result = extend_functional(g, values)
        assert result.kind is ExtensionKind.EXTENDED
        assert mat_mul(g, result.alpha) == values


def test_extend_functional_nonneg_outcomes():
    g, values = matrix(QP, [[0, 1], [1, 1]]), col_vec(QP, [2, 1])
    assert extend_functional(g, values).kind is ExtensionKind.NOT_EXTENDABLE
    g2, values2 = matrix(QP, [[0, 0, 1], [1, 1, 1]]), col_vec(QP, [2, 1])
    assert extend_functional(g2, values2).kind is ExtensionKind.INCONCLUSIVE
