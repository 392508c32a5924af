"""Golden reports: every command's (exit code, report) must stay byte-identical.

``golden_reports.json`` holds a transcript of ``run_command`` over fixed
instances of every carrier (solve / witness / normalize / extend, both
formats), the four ``classify`` verdicts and the ``verify`` suites.  The
instance texts are stored in the transcript itself, so the comparison does
not depend on the samplers staying the same.

A change that alters a report on purpose regenerates the transcript with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_reports.json

and says in its description which reports changed and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from random import Random

from semilin import SemiringTag, format_instance
from semilin.cli import run_command
from semilin.sampling import random_system

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

INSTANCE_COMMANDS = ("solve", "witness", "normalize", "extend")
FORMATS = ("text", "kv")

HAND_PICKED = {
    "tropical-refuted": "semiring tropical\nmatrix 2 2\n1 2\n0 0\nvector 2\n0 inf\n",
    "tropical-zero-b": "semiring tropical\nmatrix 2 2\n1 2\n0 0\nvector 2\ninf inf\n",
    "tropical-zero-a": "semiring tropical\nmatrix 2 2\ninf inf\ninf inf\nvector 2\ninf 3\n",
    "tropical-zero-column": (
        "semiring tropical\nmatrix 2 3\n2 inf 5\n1 inf inf\nvector 2\n3 4\n"
    ),
    "tropical-no-columns": "semiring tropical\nmatrix 2 0\nvector 2\n0 inf\n",
    "tropical-matrix-only": "semiring tropical\nmatrix 2 2\n2 5\n1 inf\n",
    "boolean-refuted": "semiring boolean\nmatrix 2 1\n1\n1\nvector 2\n1 0\n",
    "rational-refuted": "semiring rational\nmatrix 2 2\n1 1\n2 2\nvector 2\n1 3\n",
    "nonneg-probe": "semiring nonneg-rational\nmatrix 2 2\n0 1\n1 1\nvector 2\n2 1\n",
    "nonneg-no-solution": (
        "semiring nonneg-rational\nmatrix 2 2\n1 7/2\n4 4\nvector 2\n1/3 5/2\n"
    ),
    "nonneg-undecided": (
        "semiring nonneg-rational\nmatrix 2 4\n1 3 2 3\n1 9 4 7/3\nvector 2\n7/2 2\n"
    ),
}

SUITE_ARGVS = (
    *(["classify", tag] for tag in ("boolean", "tropical", "rational", "nonneg-rational")),
    *(
        ["verify", tag, "--trials", "25", "--seed", "5"]
        for tag in ("boolean", "tropical", "rational")
    ),
    ["verify", "boolean", "--max-dim", "2"],
    ["verify", "boolean", "--max-dim", "1"],
    ["verify", "nonneg-rational"],
)


def _instances() -> dict[str, str]:
    instances = dict(HAND_PICKED)
    for tag in SemiringTag:
        rng = Random(f"golden-{tag.value}")
        for k in range(6):
            a, b = random_system(tag, rng, max_dim=4)
            instances[f"{tag.value}-random-{k}"] = format_instance(tag, a, b)
    return instances


def _run(argv: list[str], instance: str | None, directory: Path) -> tuple[int, str]:
    if instance is None:
        return run_command(argv)
    path = directory / "system.inst"
    path.write_text(instance, encoding="utf-8")
    return run_command([argv[0], str(path), *argv[1:]])


def transcript(directory: Path) -> dict:
    """Run every golden case; instance files are written to ``directory``."""
    instances = _instances()
    cases = [
        ([command, "--format", fmt], name)
        for name in instances
        for command in INSTANCE_COMMANDS
        for fmt in FORMATS
    ]
    cases += [(argv + ["--format", fmt], None) for argv in SUITE_ARGVS for fmt in FORMATS]
    reports = []
    for argv, name in cases:
        code, report = _run(argv, None if name is None else instances[name], directory)
        reports.append({"argv": argv, "instance": name, "code": code, "report": report})
    return {"instances": instances, "reports": reports}


def test_reports_match_golden_transcript(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in golden["reports"]:
        name = case["instance"]
        instance = None if name is None else golden["instances"][name]
        got = _run(case["argv"], instance, tmp_path)
        assert got == (case["code"], case["report"]), (case["argv"], name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(transcript(Path(tmp)), sys.stdout, indent=1, ensure_ascii=False)
        sys.stdout.write("\n")
