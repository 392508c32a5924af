"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts.  Every tolerance and count is pinned here; the randomized parts are
seeded, so reruns are byte-for-byte reproducible.
"""

import time
from fractions import Fraction
from itertools import product
from random import Random

from semilin import (
    INF,
    ColVec,
    ExactnessReason,
    ExtensionKind,
    SemiringTag,
    SolveKind,
    alternative_ones_preimage,
    boolean_exhaustive_check,
    classify,
    descriptor,
    element,
    extend_functional,
    format_instance,
    is_row_stochastic,
    kernel_witness,
    mat_mul,
    membership_certified,
    non_exactness_instance,
    ones_row,
    parse_instance,
    principal_solution,
    randomized_dichotomy_suite,
    row_vec,
    vec_add,
)
from semilin.cli import run_command
from semilin.sampling import (
    random_col_vec,
    random_column_stochastic,
    random_matrix,
    random_monomial,
    random_system,
    random_zero_one_col,
)
from tests.oracles import certificate_holds_reference, tropical_member_grid

B = SemiringTag.BOOLEAN
T = SemiringTag.TROPICAL
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_boolean_exhaustive():
    """Kernel inclusion implies membership for every boolean system, d,n <= 3."""
    t0 = time.monotonic()
    report = boolean_exhaustive_check(3, 3)
    elapsed = time.monotonic() - t0
    shape33 = next(s for s in report.shapes if (s.d, s.n) == (3, 3))
    ok = (
        report.total_violations == 0
        and shape33.systems == 4096
        and len(shape33.violations) == 0
        and elapsed < 5.0
    )
    _verdict(
        "criterion-1 boolean-exhaustive",
        ok,
        f"{report.total_systems} systems (4096 at 3x3), "
        f"{report.total_violations} violations, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_tropical_dichotomy():
    """1000 seeded tropical systems: exactly one verified outcome each."""
    t0 = time.monotonic()
    report = randomized_dichotomy_suite(T, trials=1000, seed=42)
    elapsed = time.monotonic() - t0
    ok = (
        report.failures == ()
        and report.solutions + report.refutations == 1000
        and elapsed < 10.0
    )
    _verdict(
        "criterion-2 tropical-dichotomy",
        ok,
        f"{report.solutions} solutions + {report.refutations} refutations = 1000, "
        f"{len(report.failures)} failures, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_ones_preimage_construction():
    """500 column-stochastic, non-row-stochastic matrices: L.A = ones, L not below ones."""
    rng = Random(1003)
    checked = 0
    failures = 0
    while checked < 500:
        d, n = rng.randint(2, 5), rng.randint(1, 5)
        a = random_column_stochastic(
            T,
            d,
            n,
            rng,
            lambda r: element(T, INF) if r.random() < 0.2 else element(T, r.randint(-9, 9)),
        )
        if is_row_stochastic(a):
            continue
        lam = alternative_ones_preimage(a)
        if mat_mul(lam, a) != ones_row(T, n):
            failures += 1
        if vec_add(ones_row(T, d), lam) == ones_row(T, d):
            failures += 1
        checked += 1
    _verdict(
        "criterion-3 ones-preimage",
        failures == 0,
        f"{checked} instances, {failures} failures",
    )


def test_criterion_4_kernel_witness_construction():
    """500 non-member instances witness-refuted; small cases cross-checked on a grid."""
    rng = Random(1004)
    produced = 0
    failures = 0
    while produced < 500:
        d, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_column_stochastic(
            T,
            d,
            n,
            rng,
            lambda r: element(T, INF) if r.random() < 0.25 else element(T, r.randint(-9, 9)),
        )
        b = random_zero_one_col(T, d, rng)
        if principal_solution(a, b) is not None:
            continue
        u, v = kernel_witness(a, b)
        if not certificate_holds_reference(a, b, u, v):
            failures += 1
        produced += 1

    # cross-check against the brute-force grid oracle on d, n <= 3 instances
    # with integer entries in [0, 10]; candidate coordinates in {inf} u [-10, 10]
    rng2 = Random(1044)
    cross = 0
    mismatches = 0
    members = nonmembers = 0
    while cross < 100:
        d, n = rng2.randint(1, 3), rng2.randint(1, 3)
        a = random_column_stochastic(
            T,
            d,
            n,
            rng2,
            lambda r: element(T, INF) if r.random() < 0.25 else element(T, r.randint(0, 10)),
        )
        b = random_zero_one_col(T, d, rng2)
        oracle_member = tropical_member_grid(a, b, lo=-10, hi=10)
        result = membership_certified(a, b)
        if (result.kind is SolveKind.SOLUTION) != oracle_member:
            mismatches += 1
        if result.kind is SolveKind.REFUTATION and not certificate_holds_reference(
            a, b, result.u, result.v
        ):
            mismatches += 1
        members += oracle_member
        nonmembers += not oracle_member
        cross += 1
    ok = failures == 0 and mismatches == 0 and members > 0 and nonmembers > 0
    _verdict(
        "criterion-4 kernel-witness",
        ok,
        f"{produced} witnesses validated ({failures} failures); "
        f"{cross} grid cross-checks ({members} members/{nonmembers} non), "
        f"{mismatches} mismatches",
    )


def test_criterion_5_nonneg_rationals_not_exact():
    """The probe system: unsolvable over nonneg rationals, yet kernel-inclusive."""
    a, b = non_exactness_instance(QP)

    grid_w = [Fraction(k, 4) for k in range(0, 17)]  # 0, 1/4, ..., 4
    grid_solutions = sum(
        mat_mul(a, ColVec(QP, (element(QP, x).value, element(QP, y).value))) == b
        for x in grid_w
        for y in grid_w
    )

    analytic = membership_certified(a, b).kind is SolveKind.NO_SOLUTION

    grid_uv = [Fraction(k, 2) for k in range(0, 7)]  # 0, 1/2, ..., 3
    inclusion_violations = 0
    kernel_pairs = 0
    for u_raw in product(grid_uv, repeat=2):
        u = row_vec(QP, list(u_raw))
        ua = mat_mul(u, a)
        ub = mat_mul(u, b)
        for v_raw in product(grid_uv, repeat=2):
            v = row_vec(QP, list(v_raw))
            if ua == mat_mul(v, a):
                kernel_pairs += 1
                if ub != mat_mul(v, b):
                    inclusion_violations += 1

    verdict = classify(descriptor(QP))
    classifier_ok = (
        not verdict.left_exact
        and verdict.reason is ExactnessReason.NO_ABSORBING_E
        and verdict.witness == (a, b)
    )

    ok = (
        grid_solutions == 0
        and analytic
        and inclusion_violations == 0
        and kernel_pairs > 0
        and classifier_ok
    )
    _verdict(
        "criterion-5 nonneg-not-exact",
        ok,
        f"0 grid solutions (found {grid_solutions}), analytic no-solution={analytic}, "
        f"kernel inclusion holds on {kernel_pairs} grid pairs "
        f"({inclusion_violations} violations), classifier witness attached={classifier_ok}",
    )


def test_criterion_6_scaling_invariance():
    """200 trials: verdict kind invariant under monomial scalings, certificates map."""
    rng = Random(1006)
    tags = [B, T, Q]
    failures = 0
    mapped = 0
    for trial in range(200):
        tag = tags[trial % 3]
        a, b = random_system(tag, rng, max_dim=4)
        c, c_inv = random_monomial(tag, a.rows, rng)
        d, _ = random_monomial(tag, a.cols, rng)
        scaled_a = mat_mul(mat_mul(c, a), d)
        scaled_b = mat_mul(c, b)
        base = membership_certified(a, b)
        scaled = membership_certified(scaled_a, scaled_b)
        if base.kind is not scaled.kind:
            failures += 1
            continue
        if base.kind is SolveKind.REFUTATION:
            u_mapped = mat_mul(base.u, c_inv)
            v_mapped = mat_mul(base.v, c_inv)
            if not certificate_holds_reference(scaled_a, scaled_b, u_mapped, v_mapped):
                failures += 1
            else:
                mapped += 1
    _verdict(
        "criterion-6 scaling-invariance",
        failures == 0 and mapped > 0,
        f"200 trials, {failures} failures, {mapped} certificates mapped and validated",
    )


def test_criterion_7_extension_engine():
    """200 consistent prescriptions per carrier extend with exact agreement."""
    failures = 0
    per_tag = {}
    for tag in (B, T, Q):
        rng = Random(1007)
        count = 0
        for _ in range(200):
            d, n = rng.randint(1, 5), rng.randint(1, 5)
            g = random_matrix(tag, d, n, rng)
            w = random_col_vec(tag, n, rng)
            values = mat_mul(g, w)
            result = extend_functional(g, values)
            if result.kind is not ExtensionKind.EXTENDED:
                failures += 1
            elif mat_mul(g, result.alpha) != values:
                failures += 1
            else:
                count += 1
        per_tag[tag.value] = count
    ok = failures == 0 and all(v == 200 for v in per_tag.values())
    _verdict(
        "criterion-7 extension-engine",
        ok,
        f"{per_tag} extended exactly, {failures} failures",
    )


def test_criterion_8_field_branch():
    """200 rational systems: verified Solution or Refutation, never Undecided."""
    report = randomized_dichotomy_suite(Q, trials=200, seed=1008)
    ok = report.failures == () and report.solutions + report.refutations == 200
    _verdict(
        "criterion-8 field-branch",
        ok,
        f"{report.solutions} solutions + {report.refutations} refutations = 200, "
        f"{len(report.failures)} failures",
    )


def test_criterion_9_cli_round_trip(tmp_path):
    """100 generated instance files: byte-identical round-trip, exit codes match."""
    rng = Random(1009)
    failures = 0
    kinds_seen = set()
    for i in range(100):
        tag = [B, T, Q, QP][i % 4]
        a, b = random_system(tag, rng, max_dim=4)
        text = format_instance(tag, a, b)
        tag2, a2, b2 = parse_instance(text)
        if (tag2, a2, b2) != (tag, a, b) or format_instance(tag2, a2, b2) != text:
            failures += 1
            continue
        path = tmp_path / f"case{i}.inst"
        path.write_text(text, encoding="utf-8")
        code, report = run_command(["solve", str(path)])
        kind = report.splitlines()[0]
        kinds_seen.add(kind)
        expected = {"SOLUTION": 0, "UNDECIDED": 0, "REFUTATION": 1, "NO-SOLUTION": 1}
        if kind not in expected or code != expected[kind]:
            failures += 1
    ok = failures == 0 and "SOLUTION" in kinds_seen and "REFUTATION" in kinds_seen
    _verdict(
        "criterion-9 cli-round-trip",
        ok,
        f"100 files round-tripped byte-identically, outcomes seen: "
        f"{sorted(kinds_seen)}, {failures} failures",
    )
