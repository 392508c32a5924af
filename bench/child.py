"""One benchmark child process: import semilin, warm up, then measure or trace.

Started by ``bench/run.py``; prints one JSON object on stdout.  Modes:

- ``setup``: import semilin and run the warm-up, report the set-up time;
- ``measure``: then run the workload's operations closed-loop (one at a
  time, each after the previous answer is back) for ``--seconds``, and check
  every answer afterwards;
- ``trace``: then alternate an untraced and a traced pass over the same
  operations until ``--seconds`` is used, and report per-layer figures.

Set-up time runs from the parent's spawn (``--spawn-ns``, CLOCK_MONOTONIC,
which is system-wide on Linux) to the end of the warm-up, minus the time
this file spends building its own inputs.  Every time reported is scaled to
reference speed by ``calib`` (the raw wall times are reported too).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calib
import workloads
from checker import CheckError
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so that at least ten samples lie beyond p90
WARMUP_OPS = 2


@dataclass
class Tally:
    """Checked answers: attempted, failed, uncertified and refutations."""

    attempted: int = 0
    failed: int = 0
    uncertified: int = 0
    refutations: int = 0
    errors: list = field(default_factory=list)

    def check(self, op: workloads.Op, code, text: str) -> None:
        self.attempted += 1
        try:
            if code is None:
                raise CheckError(f"raised {text}")
            uncertified, refutations = op.check(code, text)
        except (CheckError, LookupError, ValueError) as exc:  # the latter two: a malformed report
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(op.argv)}: {exc}")
            return
        self.uncertified += uncertified
        self.refutations += refutations


def _call(cli, argv) -> tuple:
    try:
        return cli.run_command(list(argv))
    except Exception:  # a crashing operation is a failed answer; keep measuring
        return None, traceback.format_exc()


def _timed(cli, op) -> tuple[int, object, str]:
    t0 = time.perf_counter_ns()
    code, text = _call(cli, op.argv)
    return time.perf_counter_ns() - t0, code, text


def measure(cli, pool: workloads.Pool, seconds: int) -> dict:
    """Closed loop over the pool for ``seconds`` (and at least MIN_OPS operations).

    Answers are checked afterwards.  Percentiles and throughput use the
    calibrated times; the raw wall-time figures are kept alongside.
    """
    answers, raw = [], []
    scaler = calib.Scaler()
    start = time.perf_counter_ns()
    deadline = start + seconds * 1_000_000_000
    now = start
    while now < deadline or len(raw) < MIN_OPS:
        op = pool.ops[len(answers) % len(pool.ops)]
        ns, code, text = _timed(cli, op)
        raw.append(ns)
        scaler.add(ns)
        answers.append((op, code, text))
        now = time.perf_counter_ns()
    scaler.flush()
    tally = Tally()
    for answer in answers:
        tally.check(*answer)
    scaled = scaler.scaled
    return {
        "tally": tally,
        "ops": len(raw),
        "p50_ms": statistics.median(scaled) / 1e6,
        "p90_ms": _p90(scaled) / 1e6,
        "throughput": len(scaled) / (sum(scaled) / 1e9),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {
            "p50_ms": statistics.median(raw) / 1e6,
            "p90_ms": _p90(raw) / 1e6,
            "throughput": len(raw) / ((now - start) / 1e9),
        },
        "latencies_ms": [ns / 1e6 for ns in scaled],
    }


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def trace(cli, pool: workloads.Pool, workload: str, seconds: int, spans_path: Path) -> dict:
    """Per-layer figures per operation over repeated untraced/traced passes."""
    ops = pool.ops[: pool.cycle * workloads.TRACE_CYCLES[workload]]
    tracer, tally, scaler = Tracer(), Tally(), calib.Scaler()
    traced_raw_ns = traced_refutations = passes = 0
    deadline = time.perf_counter_ns() + seconds * 1_000_000_000
    while True:
        for op in ops:
            ns, code, text = _timed(cli, op)
            scaler.add(ns)
            tally.check(op, code, text)
        scaler.flush()
        before = tally.refutations
        with tracer:
            for k, op in enumerate(ops):
                tracer.op_id = passes * len(ops) + k
                ns, code, text = _timed(cli, op)
                traced_raw_ns += ns
                scaler.add(ns)
                tally.check(op, code, text)
        scaler.flush()
        traced_refutations += tally.refutations - before
        passes += 1
        if time.perf_counter_ns() >= deadline:
            break
    n = passes * len(ops)
    # scaler.scaled holds, per pass, len(ops) untraced then len(ops) traced times
    plain_ns = sum(x for i, x in enumerate(scaler.scaled) if (i // len(ops)) % 2 == 0)
    traced_ns = sum(scaler.scaled) - plain_ns
    to_ms = traced_ns / traced_raw_ns / 1e6
    totals = tracer.span_totals()

    def per_op(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0) / n

    def ms(name: str, key: str) -> float:
        return per_op(name, key) * to_ms

    def micro_ns(name: str) -> float:
        before = calib.measure_ms()
        ns = tracer.micro_ns(name)
        return ns * calib.factor(before, calib.measure_ms())

    checks = totals.get("witness.check_certificate", {}).get("calls", 0)
    metrics = {
        "cli.parse_instance.ms": ms("cli.parse_instance", "ns"),
        "cli.self_ms": ms("cli.run_command", "self_ns"),
        "solver.field_solve.self_ms": ms("solver.field_solve", "self_ns"),
        "solver.principal_solution.self_ms": ms("solver.principal_solution", "self_ns"),
        "solver.membership_certified.self_ms": ms("solver.membership_certified", "self_ns"),
        "matrices.mat_mul.calls": per_op("matrices.mat_mul", "calls"),
        "matrices.mat_mul.ms": ms("matrices.mat_mul", "ns"),
        "matrices.normalize.self_ms": ms("matrices.normalize", "self_ns"),
        "witness.check_certificate.calls": per_op("witness.check_certificate", "calls"),
        "witness.check_certificate.ms": ms("witness.check_certificate", "ns"),
        "witness.checks_per_refutation": checks / traced_refutations if traced_refutations else 0.0,
        "witness.kernel_witness.self_ms": ms("witness.kernel_witness", "self_ns"),
        "witness.boolean_kernel_witness.ms": ms("witness.boolean_kernel_witness", "ns"),
        "witness.boolean_kernel_witness.mat_mul_calls": per_op(
            "witness.boolean_kernel_witness", "mat_mul_calls"
        ),
        "semirings.add.calls": tracer.count("semirings.add") / n,
        "semirings.mul.calls": tracer.count("semirings.mul") / n,
        "semirings.inv.calls": tracer.count("semirings.inv") / n,
        "semirings.zero.calls": tracer.count("semirings.zero") / n,
        "semirings.add.ns": micro_ns("semirings.add"),
        "semirings.mul.ns": micro_ns("semirings.mul"),
        "sampling.random_system.calls": per_op("sampling.random_system", "calls"),
        "sampling.random_system.ms": ms("sampling.random_system", "ns"),
        "classify.randomized_dichotomy_suite.self_ms": ms(
            "classify.randomized_dichotomy_suite", "self_ns"
        ),
        "classify.boolean_exhaustive_check.ms": ms("classify.boolean_exhaustive_check", "ns"),
        "trace.overhead_ratio": traced_ns / plain_ns,
    }
    tracer.write(spans_path)
    return {
        "tally": tally,
        "ops": n,
        "passes": passes,
        "spans": len(tracer.start),
        "absent_layers": tracer.absent,
        "layer_metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--cal-ms", type=float, required=True, help="calibration just before spawn")
    args = ap.parse_args(argv)

    t0 = time.monotonic_ns()
    warmup = workloads.build_pool(args.workload, workloads.WARMUP_SEED, args.out / "warmup", cycles=1)
    own_ns = time.monotonic_ns() - t0

    cli = importlib.import_module("semilin.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"semilin imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    answers = [(op, *_call(cli, op.argv)) for op in warmup.ops[:WARMUP_OPS]]
    setup_raw_s = (time.monotonic_ns() - args.spawn_ns - own_ns) / 1e9
    setup_s = setup_raw_s * calib.factor(args.cal_ms, calib.measure_ms())

    warm_tally = Tally()
    for answer in answers:
        warm_tally.check(*answer)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.mode != "setup":
        pool = workloads.build_pool(args.workload, args.seed, args.out / "pool")
        if args.mode == "measure":
            result.update(measure(cli, pool, args.seconds))
        else:
            result.update(trace(cli, pool, args.workload, args.seconds, args.out / "spans.tsv"))
    tally = result.pop("tally", Tally())
    result.update(
        attempted=warm_tally.attempted + tally.attempted,
        failed=warm_tally.failed + tally.failed,
        uncertified=tally.uncertified,
        errors=warm_tally.errors + tally.errors,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
