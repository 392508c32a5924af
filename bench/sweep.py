"""Run the benchmark over several seeds and summarise each metric across runs.

    python3 bench/sweep.py --workload tropical-dense --workload search-heavy \\
        --seeds 1-10 --seconds 25 [--trace 1]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
which is what the pair rule of a later performance change compares against.
Raw values go to ``.bench_out/sweep-<workload>-trace<k>.json``.  Exits 1 if
any run fails or reports a rejected answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(spec: str) -> list[int]:
    """Parse "1-10" or "3,5,8" into a list of seeds."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def sweep(workload: str, seeds: list[int], seconds: int, trace: int) -> tuple[bool, dict]:
    ok, runs = True, []
    for seed in seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}{done.stdout}", file=sys.stderr)
            ok = False
            continue
        line = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and line["correct"]
        runs.append({"seed": seed, **line})
    names = runs[0]["metrics"] if runs else {}
    summary = {
        name: {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": [r["metrics"][name]["value"] for r in runs],
            **summarise([r["metrics"][name]["value"] for r in runs]),
        }
        for name in names
    }
    return ok, {"workload": workload, "trace": trace, "seconds": seconds, "runs": runs, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    all_ok = True
    for workload in args.workload or workloads.WORKLOADS:
        ok, result = sweep(workload, seed_list(args.seeds), args.seconds, args.trace)
        all_ok = all_ok and ok
        out = ROOT / ".bench_out" / f"sweep-{workload}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"== {workload} ({len(result['runs'])} runs, trace {args.trace})")
        for name, s in result["summary"].items():
            print(
                f"{name:46s} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}  "
                f"q3 {s['q3']:>12.6g}  spread {s['spread']:7.2%}  {s['unit']}"
            )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
