"""semilin benchmark: certified-answer latency per carrier, with layer traces.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Writes the workload's seeded instance files under ``.bench_out/<workload>/``,
then runs the workload in a fresh child process (``bench/child.py``) plus
``SETUP_RUNS - 1`` set-up-only children.  Load is closed-loop: one client,
one process, one thread.  Every answer is checked by ``bench/checker.py``.

Prints run metadata and a human-readable table, then as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1
when any answer is rejected and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
RUN_BUDGET_S = 170

# name -> (unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = {
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
    "throughput_ops_s": ("ops/s", "higher"),
    "certified_rate": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "cli.parse_instance.ms": ("ms/op", "lower"),
    "cli.self_ms": ("ms/op", "lower"),
    "solver.field_solve.self_ms": ("ms/op", "lower"),
    "solver.principal_solution.self_ms": ("ms/op", "lower"),
    "solver.membership_certified.self_ms": ("ms/op", "lower"),
    "matrices.mat_mul.calls": ("calls/op", "lower"),
    "matrices.mat_mul.ms": ("ms/op", "lower"),
    "matrices.normalize.self_ms": ("ms/op", "lower"),
    "witness.check_certificate.calls": ("calls/op", "lower"),
    "witness.check_certificate.ms": ("ms/op", "lower"),
    "witness.checks_per_refutation": ("calls", "lower"),
    "witness.kernel_witness.self_ms": ("ms/op", "lower"),
    "witness.boolean_kernel_witness.ms": ("ms/op", "lower"),
    "witness.boolean_kernel_witness.mat_mul_calls": ("calls/op", "lower"),
    "semirings.add.calls": ("calls/op", "lower"),
    "semirings.mul.calls": ("calls/op", "lower"),
    "semirings.inv.calls": ("calls/op", "lower"),
    "semirings.zero.calls": ("calls/op", "lower"),
    "semirings.add.ns": ("ns", "lower"),
    "semirings.mul.ns": ("ns", "lower"),
    "sampling.random_system.calls": ("calls/op", "lower"),
    "sampling.random_system.ms": ("ms/op", "lower"),
    "classify.randomized_dichotomy_suite.self_ms": ("ms/op", "lower"),
    "classify.boolean_exhaustive_check.ms": ("ms/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _child(args, mode: str, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    cmd += ["--out", str(out), "--cal-ms", str(calib.measure_ms()), "--spawn-ns"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            cmd + [str(time.monotonic_ns())],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran out of time") from None
    if done.returncode != 0:
        raise BenchError(f"{mode} child exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "semilin" / "__init__.py").is_file():
        raise BenchError(f"no semilin sources under {ROOT / 'src'}")
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for pool in (
        workloads.build_pool(args.workload, workloads.WARMUP_SEED, out / "warmup", cycles=1),
        workloads.build_pool(args.workload, args.seed, out / "pool"),
    ):
        for path, text in pool.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")

    children = [_child(args, "trace" if args.trace else "measure", out, deadline)]
    children += [_child(args, "setup", out, deadline) for _ in range(SETUP_RUNS - 1)]
    main = children[0]
    setups = sorted(c["setup_s"] for c in children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    uncertified_rate = None if args.trace else main["uncertified"] / main["ops"]
    if args.trace:
        metrics = main["layer_metrics"]
        units = PER_LAYER
    else:
        metrics = {
            "latency_ms_p50": main["p50_ms"],
            "latency_ms_p90": main["p90_ms"],
            "throughput_ops_s": main["throughput"],
            "certified_rate": 1 - uncertified_rate,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["rss_mb"],
        }
        units = END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    record = {
        "meta": metadata(args),
        "samples": main["ops"],
        "setup_runs_s": setups,
        "raw": main.get("raw"),
        "error_rate": failed / attempted,
        "uncertified_rate": uncertified_rate,
        "errors": [e for c in children for e in c["errors"]],
        "absent_layers": main.get("absent_layers", []),
        "passes": main.get("passes"),
        "spans": main.get("spans"),
        "latencies_ms": main.get("latencies_ms"),
        "result": line,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return line, record


def report(line: dict, record: dict) -> list[str]:
    """Human-readable lines printed before the JSON result line."""
    meta = record["meta"]
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
    n = record["samples"]
    if meta["trace"]:
        lines.append(f"# per operation over {n} traced operations ({record['passes']} passes, {record['spans']} spans)")
        if record["absent_layers"]:
            lines.append(f"# absent layers: {' '.join(record['absent_layers'])}")
    else:
        lines.append(f"# {n} timed operations; setup runs (s): {record['setup_runs_s']}")
    for name, m in line["metrics"].items():
        lines.append(f"{name:46s} {m['value']:>14.6g} {m['unit']}")
    if not meta["trace"]:
        lines.append(f"{'error_rate':46s} {record['error_rate']:>14.6g} ratio")
        lines.append(f"{'uncertified_rate':46s} {record['uncertified_rate']:>14.6g} ratio")
    lines += [f"# rejected: {e}" for e in record["errors"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        line, record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(line, record)))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
