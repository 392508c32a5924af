"""Tests of the benchmark's own parts: checker, tracer, metric table, exit codes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checker import (  # noqa: E402
    CheckError,
    Instance,
    check_exhaustive,
    check_randomized,
    check_solve,
    exhaustive_expectation,
    format_instance,
)
from semilin.cli import run_command  # noqa: E402


def _answer(tmp_path: Path, inst) -> tuple[int, str]:
    path = tmp_path / "system.inst"
    path.write_text(format_instance(inst), encoding="utf-8")
    return run_command(["solve", str(path), "--format", "kv"])


def _replace_line(text: str, key: str, edit) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split()[0] == key:
            head, *tokens = line.split()
            lines[i] = " ".join([head] + edit(tokens))
    return "\n".join(lines)


def _bump_first(tokens: list[str]) -> list[str]:
    return ["-100"] + tokens[1:]


@pytest.fixture
def tropical_solution(tmp_path):
    inst = workloads.tropical_instance(Random(1), 6, solvable=True)
    return inst, *_answer(tmp_path, inst)


@pytest.fixture
def tropical_refutation(tmp_path):
    rng = Random(2)
    while True:
        inst = workloads.tropical_instance(rng, 6, solvable=False)
        code, text = _answer(tmp_path, inst)
        if text.startswith("kind refutation"):
            return inst, code, text


def test_checker_accepts_real_answers(tropical_solution, tropical_refutation):
    assert check_solve(*tropical_solution) == "solution"
    assert check_solve(*tropical_refutation) == "refutation"


def test_checker_flags_w_with_one_entry_changed(tropical_solution):
    inst, code, text = tropical_solution
    with pytest.raises(CheckError, match="A·w != b"):
        check_solve(inst, code, _replace_line(text, "w", _bump_first))


def test_checker_flags_u_with_one_entry_changed(tropical_refutation):
    inst, code, text = tropical_refutation
    with pytest.raises(CheckError):
        check_solve(inst, code, _replace_line(text, "u", _bump_first))


def test_checker_flags_wrong_kind(tropical_solution, tropical_refutation):
    inst, code, text = tropical_refutation
    with pytest.raises(CheckError, match="solvable by construction"):
        check_solve(dataclasses.replace(inst, truth=True), code, text)
    with pytest.raises(CheckError, match="no 'w' line"):
        check_solve(inst, 0, text.replace("kind refutation", "kind solution"))
    inst, code, text = tropical_solution
    with pytest.raises(CheckError, match="exit code"):
        check_solve(inst, 1, text)
    with pytest.raises(CheckError, match="exit code"):
        check_solve(inst, 3, "internal invariant violation: boom")


def test_rational_answers_respect_known_truth(tmp_path):
    inst = workloads.rational_instance(Random(3), 5, solvable=False)
    assert inst.truth is False
    assert check_solve(inst, *_answer(tmp_path, inst)) == "refutation"
    inst = workloads.rational_instance(Random(3), 5, solvable=True)
    code, text = _answer(tmp_path, inst)
    assert check_solve(inst, code, text) == "solution"
    with pytest.raises(CheckError, match="unsolvable by construction"):
        check_solve(dataclasses.replace(inst, truth=False), code, text)


def test_uncheckable_answers_are_uncertified_not_failed():
    inst = workloads.nonneg_instance(Random(4), 3, solvable=False)
    assert check_solve(inst, 0, "kind undecided\ndetail bounded search") == "uncertified"
    assert check_solve(inst, 1, "kind no-solution\ndetail negative coordinate") == "uncertified"
    solvable = dataclasses.replace(inst, truth=True)
    with pytest.raises(CheckError, match="solvable by construction"):
        check_solve(solvable, 1, "kind no-solution\ndetail negative coordinate")


def test_no_solution_with_order_certificate_is_checked():
    # the probe system [[0,1],[1,1]], b = (2,1): u·A >= v·A and u·b < v·b
    probe = Instance("nonneg-rational", ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))),
                     (Fraction(2), Fraction(1)), None)
    assert check_solve(probe, 1, "kind no-solution\nu 0 1\nv 1 0") == "order-refutation"
    with pytest.raises(CheckError):
        check_solve(probe, 1, "kind no-solution\nu 1 0\nv 0 1")


def test_randomized_report_checks():
    code, text = run_command(["verify", "tropical", "--trials", "20", "--seed", "5", "--format", "kv"])
    assert check_randomized("tropical", 20, 5, code, text) >= 0
    with pytest.raises(CheckError, match="seed"):
        check_randomized("tropical", 20, 6, code, text)
    with pytest.raises(CheckError, match="failures"):
        check_randomized("tropical", 20, 5, code, text.replace("failures 0", "failures 1"))
    bad = _replace_line(text, "solutions", lambda t: [str(int(t[0]) + 1)])
    with pytest.raises(CheckError, match="!= 20"):
        check_randomized("tropical", 20, 5, code, bad)


def test_exhaustive_report_checks():
    expected = exhaustive_expectation(2)
    assert sum(systems for systems, _ in expected.values()) == 4 + 8 + 16 + 64
    code, text = run_command(["verify", "boolean", "--max-dim", "2", "--format", "kv"])
    check_exhaustive(2, expected, code, text)
    wrong = {**expected, (1, 1): (4, expected[(1, 1)][1] + 1)}
    with pytest.raises(CheckError, match="shape counts"):
        check_exhaustive(2, wrong, code, text)


def test_tracer_rebinds_every_reference_and_counts_checks(tmp_path, tropical_refutation):
    import semilin.matrices
    import semilin.solver
    import semilin.witness

    original = semilin.matrices.mat_mul
    t = tracer.Tracer()
    for _ in range(2):  # installed once per pass, as a traced run does
        with t:
            for module in (semilin.matrices, semilin.solver, semilin.witness, semilin):
                assert module.mat_mul is not original
            semilin.cli.run_command(["solve", str(tmp_path / "system.inst"), "--format", "kv"])
        for module in (semilin.matrices, semilin.solver, semilin.witness, semilin):
            assert module.mat_mul is original
    totals = t.span_totals()
    # per solve: kernel_witness self-check, _checked_refutation, CLI re-validation
    assert totals["witness.check_certificate"]["calls"] == 6
    assert totals["cli.run_command"]["calls"] == 2
    assert t.count("semirings.add") > 0 and t.absent == []


def test_tracer_counts_mat_mul_inside_boolean_witness(tmp_path):
    rng = Random(6)
    text = ""
    while not text.startswith("kind refutation"):
        _, text = _answer(tmp_path, workloads.boolean_instance(rng, 3, solvable=False))
    t = tracer.Tracer()
    for _ in range(2):
        with t:
            run_command(["solve", str(tmp_path / "system.inst"), "--format", "kv"])
    totals = t.span_totals()
    # the search multiplies every candidate row by A and by b: 2 * 2^3 per call
    assert totals["witness.boolean_kernel_witness"]["mat_mul_calls"] == 2 * 16


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    monkeypatch.setitem(tracer.SPANNED, "witness", ("check_certificate", "no_such_function"))
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["witness.no_such_function"]


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def _bench_copy(tmp_path: Path, fake_cli: str | None) -> Path:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if fake_cli is not None:
        pkg = tmp_path / "src" / "semilin"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "cli.py").write_text(fake_cli, encoding="utf-8")
    return tmp_path


def _run_bench(root: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", "search-heavy", "--seed", "1"]
    return subprocess.run(cmd + ["--seconds", "1", "--trace", "0"], cwd=root, capture_output=True, text=True, timeout=120)


def test_command_exits_nonzero_when_an_answer_is_rejected(tmp_path):
    wrong = "import time\ndef run_command(argv):\n    time.sleep(0.001)\n    return 0, 'kind solution\\nw 0'\n"
    done = _run_bench(_bench_copy(tmp_path, wrong))
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] > 0


def test_command_fails_without_the_program(tmp_path):
    done = _run_bench(_bench_copy(tmp_path, None))
    assert done.returncode == 2 and done.stdout == ""
