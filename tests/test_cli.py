"""Instance format round-trips, command dispatch, exit codes, determinism."""

from pathlib import Path
from random import Random

import pytest

from semilin import (
    INF,
    ParseError,
    SemiringTag,
    col_vec,
    format_instance,
    matrix,
    parse_instance,
)
from semilin.cli import USAGE, run_command
from semilin.sampling import random_system

T = SemiringTag.TROPICAL
B = SemiringTag.BOOLEAN
Q = SemiringTag.RATIONAL
QP = SemiringTag.NONNEG_RATIONAL

DATA = Path(__file__).parent / "data"

REFUTED_INSTANCE = """\
semiring tropical
matrix 2 2
1 2
0 0
vector 2
0 inf
"""

BOOLEAN_INSTANCE = """\
semiring boolean
matrix 2 1
1
1
vector 2
1 0
"""


def test_parse_tropical_instance():
    tag, a, b = parse_instance(REFUTED_INSTANCE)
    assert tag is T
    assert a == matrix(T, [[1, 2], [0, 0]])
    assert b == col_vec(T, [0, INF])


def test_parse_boolean_instance():
    tag, a, b = parse_instance(BOOLEAN_INSTANCE)
    assert tag is B
    assert a == matrix(B, [[1], [1]])
    assert b == col_vec(B, [1, 0])


def test_parse_matrix_only_instance():
    tag, a, b = parse_instance("semiring rational\nmatrix 1 2\n3 -1/2\n")
    assert tag is Q and b is None
    assert a == matrix(Q, [[3, "-1/2"]])


@pytest.mark.parametrize(
    "text,line",
    [
        ("semiring maxplus\nmatrix 1 1\n0\n", 1),
        ("semiring tropical\nmatrix 1\n0\n", 2),
        ("semiring tropical\nmatrix 1 2\n0\n", 3),
        ("semiring tropical\nmatrix 1 1\nx\n", 3),
        ("semiring tropical\nmatrix 2 2\n0 x\nx 0\n", 3),
        ("semiring tropical\nmatrix 1 1\n0\nvector 2\n0 0\n", 4),
        ("semiring tropical\nmatrix 1 1\n0\nvector 1\n0\njunk\n", 6),
        ("semiring boolean\nmatrix 1 1\n2\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == line


def test_parse_truncated_input():
    with pytest.raises(ParseError):
        parse_instance("semiring tropical\nmatrix 2 2\n1 2\n")


def test_format_round_trips_canonically():
    rng = Random(401)
    for _ in range(40):
        for tag in SemiringTag:
            a, b = random_system(tag, rng, max_dim=4)
            text = format_instance(tag, a, b)
            tag2, a2, b2 = parse_instance(text)
            assert (tag2, a2, b2) == (tag, a, b)
            assert format_instance(tag2, a2, b2) == text


@pytest.mark.parametrize(
    "tag, pool",
    [(T, [INF, 0, "1/6", "-5/7", 3]), (Q, [0, "-1/2", "2/3", 7])],
    ids=["tropical", "rational"],
)
def test_round_trip_with_repeated_tokens(tag, pool):
    rng = Random(403)
    rows = [[rng.choice(pool) for _ in range(12)] for _ in range(12)]
    a, b = matrix(tag, rows), col_vec(tag, [rng.choice(pool) for _ in range(12)])
    text = format_instance(tag, a, b)
    assert len(set(text.split())) < 20  # every token repeats
    assert parse_instance(text) == (tag, a, b)


def test_zero_column_matrix_round_trips():
    from semilin import Matrix

    a = Matrix(T, 2, 0, ((), ()))
    text = format_instance(T, a, col_vec(T, [0, INF]))
    tag2, a2, b2 = parse_instance(text)
    assert a2 == a and b2 == col_vec(T, [0, INF])


# --- commands -------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_refutation_exit_code(tmp_path):
    path = _write(tmp_path, "refuted.inst", REFUTED_INSTANCE)
    code, report = run_command(["solve", path])
    assert code == 1
    assert report.splitlines() == ["REFUTATION", "u = 0 0", "v = inf 0"]


def test_solve_solution_exit_code(tmp_path):
    path = _write(tmp_path, "id.inst", "semiring boolean\nmatrix 1 1\n1\nvector 1\n1\n")
    code, report = run_command(["solve", path])
    assert code == 0
    assert report.splitlines()[0] == "SOLUTION"


def test_solve_kv_format(tmp_path):
    path = _write(tmp_path, "refuted.inst", REFUTED_INSTANCE)
    code, report = run_command(["solve", path, "--format", "kv"])
    assert code == 1
    assert report.splitlines() == ["kind refutation", "u 0 0", "v inf 0"]


def test_witness_reports_membership(tmp_path):
    path = _write(tmp_path, "id.inst", "semiring tropical\nmatrix 1 1\n0\nvector 1\n5\n")
    code, report = run_command(["witness", path])
    assert code == 0
    assert report.splitlines() == ["MEMBERSHIP-DETECTED", "w = 5"]


def test_witness_prints_certificate(tmp_path):
    path = _write(tmp_path, "refuted.inst", REFUTED_INSTANCE)
    code, report = run_command(["witness", path])
    assert code == 1
    assert report.splitlines()[0] == "REFUTATION"


def test_normalize_command(tmp_path):
    path = _write(tmp_path, "n.inst", "semiring tropical\nmatrix 2 2\n2 5\n1 inf\nvector 2\n3 4\n")
    code, report = run_command(["normalize", path])
    assert code == 0
    lines = report.splitlines()
    assert "row scale = 3 4" in lines
    assert "col scale = -3 2" in lines
    assert "2 0" in lines and "0 inf" in lines


def test_normalize_matrix_only_uses_zero_vector(tmp_path):
    path = _write(tmp_path, "m.inst", "semiring boolean\nmatrix 2 2\n1 0\n0 1\n")
    code, report = run_command(["normalize", path])
    assert code == 0
    assert "vector 2" in report


def test_normalize_rational_rejected(tmp_path):
    path = _write(tmp_path, "q.inst", "semiring rational\nmatrix 1 1\n1\nvector 1\n1\n")
    code, report = run_command(["normalize", path])
    assert code == 2
    assert "zero-sum free" in report


def test_extend_command(tmp_path):
    path = _write(tmp_path, "g.inst", "semiring tropical\nmatrix 2 2\n0 2\n3 0\nvector 2\n1 0\n")
    code, report = run_command(["extend", path])
    assert code == 0
    assert report.splitlines() == ["EXTENDED", "alpha = 1 0"]


def test_extend_ill_posed(tmp_path):
    path = _write(tmp_path, "g.inst", BOOLEAN_INSTANCE)
    code, report = run_command(["extend", path])
    assert code == 1
    assert report.splitlines()[0] == "ILL-POSED"


def test_extend_not_extendable(tmp_path):
    path = _write(tmp_path, "probe.inst", "semiring nonneg-rational\nmatrix 2 2\n0 1\n1 1\nvector 2\n2 1\n")
    code, report = run_command(["extend", path])
    assert code == 1
    assert report.splitlines()[0] == "NOT-EXTENDABLE"


@pytest.mark.parametrize("fmt", ["text", "kv"])
@pytest.mark.parametrize("command", ["solve", "witness", "extend"])
def test_answers_beyond_the_int_to_str_digit_limit_render(tmp_path, command, fmt):
    """4,000-digit tokens parse; the answer 10^8000 exceeds Python's default
    int-to-str limit of 4,300 digits and must still be printed in full."""
    big = "1" + "0" * 4000
    path = _write(tmp_path, "big.inst", f"semiring rational\nmatrix 1 1\n1/{big}\nvector 1\n{big}\n")
    code, report = run_command([command, path, "--format", fmt])
    assert code == 0
    assert report.splitlines()[-1].split()[-1] == "1" + "0" * 8000


def test_classify_command():
    code, report = run_command(["classify", "nonneg-rational"])
    assert code == 0
    assert report.splitlines()[0] == "NOT LEFT EXACT (no e with 1+1+e=1)"
    assert "witness" in report
    code, report = run_command(["classify", "tropical"])
    assert code == 0
    assert report == "LEFT EXACT (idempotent: 1+1=1)"
    code, report = run_command(["classify", "rational"])
    assert report == "LEFT EXACT (division ring)"


def test_verify_boolean_exhaustive():
    code, report = run_command(["verify", "boolean", "--max-dim", "2"])
    assert code == 0
    assert "total: 92 systems, 0 violations" in report


def test_verify_randomized_kv():
    code, report = run_command(["verify", "tropical", "--trials", "60", "--seed", "3", "--format", "kv"])
    assert code == 0
    lines = dict(line.split(" ", 1) for line in report.splitlines())
    assert lines["trials"] == "60"
    assert lines["failures"] == "0"
    assert int(lines["solutions"]) + int(lines["refutations"]) == 60


def test_exhaustive_violation_exits_three(monkeypatch):
    """A sweep that finds a violation is a suite failure; both reports list the bad shape."""
    from semilin.classify import ExhaustiveReport, ShapeReport

    shapes = (ShapeReport(1, 1, 4, 3, ()), ShapeReport(1, 2, 8, 6, ("d=1 n=2 A=0b01 b=0b1",)))
    report = ExhaustiveReport(2, 2, shapes, 12, 1)
    monkeypatch.setattr("semilin.cli.boolean_exhaustive_check", lambda d, n: report)
    code, text = run_command(["verify", "boolean", "--max-dim", "2"])
    assert code == 3
    assert text.splitlines() == [
        "VERIFY boolean exhaustive (d, n <= 2)",
        "shape 1x1: 4 systems, 3 solvable, 0 violations",
        "shape 1x2: 8 systems, 6 solvable, 1 violations",
        "total: 12 systems, 1 violations",
        "VIOLATION d=1 n=2 A=0b01 b=0b1",
    ]
    code, kv = run_command(["verify", "boolean", "--max-dim", "2", "--format", "kv"])
    assert code == 3
    assert kv.splitlines() == [
        "mode exhaustive",
        "tag boolean",
        "max-dim 2",
        "total-systems 12",
        "violations 1",
        "shape 1x1 systems 4 members 3 violations 0",
        "shape 1x2 systems 8 members 6 violations 1",
    ]


def test_reports_are_deterministic():
    argv = ["verify", "rational", "--trials", "40", "--seed", "12"]
    assert run_command(argv) == run_command(argv)


USAGE_ERRORS = [
    ([], "error: missing command"),
    (["frobnicate"], "error: unknown command 'frobnicate'"),
    (["solve"], "error: 'solve' takes exactly one instance file"),
    (["solve", "a", "b"], "error: 'solve' takes exactly one instance file"),
    (
        ["solve", "/nonexistent/file.inst"],
        "error: cannot read /nonexistent/file.inst: "
        "[Errno 2] No such file or directory: '/nonexistent/file.inst'",
    ),
    (["classify", "octonions"], "error: unknown semiring 'octonions'"),
    (
        ["verify", "tropical", "--max-dim", "3"],
        "error: --max-dim applies to the boolean exhaustive sweep only",
    ),
    (["verify", "tropical", "--trials", "abc"], "error: --trials needs an integer value"),
    (["solve", "x", "--format", "yaml"], "error: --format needs 'text' or 'kv'"),
    (
        ["verify", "boolean", "--max-dim", "5"],
        "error: --max-dim: exhaustive sweep is sized for dimensions 1..4",
    ),
    (
        ["verify", "boolean", "--max-dim", "0"],
        "error: --max-dim: exhaustive sweep is sized for dimensions 1..4",
    ),
    (["verify", "boolean", "--seed", "7"], "error: --seed applies to the randomized suite only"),
    (["verify", "tropical", "--trials", "-3"], "error: --trials needs a positive integer"),
    (["verify", "tropical", "--trials", "0"], "error: --trials needs a positive integer"),
    (
        ["solve", str(DATA / "exponent_token.inst")],
        "error: line 5: bad rational token '1e5000': expected an integer or p/q",
    ),
    (
        ["normalize", str(DATA / "no_columns_no_vector.inst")],
        "error: line 2: a matrix with no columns needs a vector block",
    ),
    (
        ["solve", str(DATA / "shape_underscore.inst")],
        "error: line 2: matrix dimensions must be unsigned integers",
    ),
    (
        ["solve", str(DATA / "shape_plus_sign.inst")],
        "error: line 2: matrix dimensions must be unsigned integers",
    ),
    (
        ["solve", str(DATA / "shape_arabic_indic_digit.inst")],
        "error: line 2: matrix dimensions must be unsigned integers",
    ),
    (
        ["solve", str(DATA / "vector_length_underscore.inst")],
        "error: line 4: vector length must be an unsigned integer",
    ),
    (
        ["solve", str(DATA / "vector_length_plus_sign.inst")],
        "error: line 4: vector length must be an unsigned integer",
    ),
    (["verify", "tropical", "--trials", "1_0"], "error: --trials needs an integer value"),
    (["verify", "tropical", "--seed", "+2"], "error: --seed needs an integer value"),
    (["verify", "tropical", "--seed", "1_2"], "error: --seed needs an integer value"),
    (["verify", "tropical", "--trials", "\u0662"], "error: --trials needs an integer value"),
    (["verify", "boolean", "--max-dim", "\u0662"], "error: --max-dim needs an integer value"),
    (["verify", "tropical", "--seed"], "error: --seed needs an integer value"),
    (["solve", "x", "--format"], "error: --format needs 'text' or 'kv'"),
    (["solve", "x", "--verbose"], "error: unknown option --verbose"),
    (["normalize", "x", "--trials", "5"], "error: 'normalize' takes no numeric options"),
    (["classify"], "error: 'classify' takes exactly one semiring name"),
    (["classify", "tropical", "--seed", "1"], "error: 'classify' takes exactly one semiring name"),
    (["verify"], "error: 'verify' takes exactly one semiring name"),
    (["verify", "octonions"], "error: unknown semiring 'octonions'"),
]


@pytest.mark.parametrize(
    "argv, first_line", USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))]
)
def test_usage_errors_exit_two(argv, first_line):
    code, report = run_command(argv)
    assert code == 2
    # instance parse errors name their line and print no usage text
    tail = "" if first_line.startswith("error: line ") else "\n" + USAGE
    assert report == first_line + tail


def test_non_utf8_instance_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.inst"
    path.write_bytes(b"semiring tropical\nmatrix 1 1\n\xff\nvector 1\n0\n")
    code, report = run_command(["solve", str(path)])
    assert code == 2
    assert report.startswith(f"error: cannot read {path}: ")


def test_solve_requires_vector(tmp_path):
    path = _write(tmp_path, "m.inst", "semiring tropical\nmatrix 1 1\n0\n")
    code, report = run_command(["solve", path])
    assert code == 2
    assert "vector" in report


def test_exit_codes_match_report_kinds(tmp_path):
    rng = Random(402)
    for i in range(30):
        tag = list(SemiringTag)[i % 4]
        a, b = random_system(tag, rng, max_dim=3)
        path = _write(tmp_path, f"case{i}.inst", format_instance(tag, a, b))
        code, report = run_command(["solve", path])
        kind = report.splitlines()[0]
        expected = {"SOLUTION": 0, "UNDECIDED": 0, "REFUTATION": 1, "NO-SOLUTION": 1}[kind]
        assert code == expected


# --- the solver's answer check is the only guard on a printed answer -------------

SOLVABLE_INSTANCE = "semiring tropical\nmatrix 2 2\n0 2\n3 0\nvector 2\n1 0\n"


@pytest.fixture
def corrupted_answers(monkeypatch):
    """Make the tropical/boolean path hand wrong answers to the solver's final check.

    The corruption sits in the map back by l, the last step the solver takes
    on every answer to the integer-scaled system, just before the check.
    """
    import semilin.solver as solver

    def zeros(c, l, xs):
        # w = 0 does not reproduce b; u = v = 0 does not separate it
        return tuple(c.zero for _ in xs)

    monkeypatch.setattr(solver, "_divided", zeros)


@pytest.mark.parametrize(
    "instance", [SOLVABLE_INSTANCE, REFUTED_INSTANCE], ids=["solution", "refutation"]
)
@pytest.mark.parametrize("command", ["solve", "witness", "extend"])
def test_corrupted_answer_exits_three(tmp_path, corrupted_answers, command, instance):
    path = _write(tmp_path, "case.inst", instance)
    for fmt in ("text", "kv"):
        code, report = run_command([command, path, "--format", fmt])
        assert code == 3
        assert report.startswith("internal invariant violation: ")


def test_corrupted_answer_is_a_suite_failure(corrupted_answers):
    code, report = run_command(["verify", "tropical", "--trials", "40", "--seed", "1"])
    assert code == 3
    lines = report.splitlines()
    failures = int(next(line for line in lines if line.startswith("failures: ")).split()[1])
    assert failures > 0
    assert " raised InternalInvariantError: " in lines[-1]
    assert next(line for line in lines if line.startswith("FAILURE ")) == (
        "FAILURE trial 0 (seed 1): A=[-7 6 6 -3 inf; inf 4 -9 -1 -2] b=[inf -9] "
        "raised InternalInvariantError: claimed solution does not reproduce b"
    )
    # the kv report carries the same lines under lowercase keys
    argv = ["verify", "tropical", "--trials", "40", "--seed", "1", "--format", "kv"]
    code, report = run_command(argv)
    assert code == 3
    lines = report.splitlines()
    assert lines[:7] == [
        "mode randomized",
        "tag tropical",
        "trials 40",
        "seed 1",
        "solutions 0",
        "refutations 0",
        f"failures {failures}",
    ]
    assert len(lines) == 7 + failures
    assert lines[7] == (
        "failure trial 0 (seed 1): A=[-7 6 6 -3 inf; inf 4 -9 -1 -2] b=[inf -9] "
        "raised InternalInvariantError: claimed solution does not reproduce b"
    )
