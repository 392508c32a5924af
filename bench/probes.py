"""Scaling probes: per-call time of the costs that grow fastest with size.

    python3 bench/probes.py [--seed N]

Not part of the regression check; it records today's complexity classes.
For each size it prints the median wall time per call over ``REPEATS``
seeded inputs from the benchmark's own generators:

- ``witness.boolean_kernel_witness`` at d = n = 6..10 (the 4^d pair search);
- ``solver.field_solve`` at d = n = 16, 32, 48 (exact elimination);
- ``solver.membership_certified`` on tropical systems at d = n = 16..64.

The results also go to ``.bench_out/probes.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from random import Random

import workloads
from checker import format_instance

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def _timed_ms(fn, *args) -> float:
    t0 = time.perf_counter_ns()
    fn(*args)
    return (time.perf_counter_ns() - t0) / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import semilin
    from semilin.errors import MembershipDetectedError

    def system(inst):
        _, a, b = semilin.parse_instance(format_instance(inst))
        return a, b

    def boolean_witness(a, b):
        try:
            semilin.boolean_kernel_witness(a, b)
        except MembershipDetectedError:
            pass  # the search ran to the end without a pair; still a full call

    probes = [
        ("witness.boolean_kernel_witness", boolean_witness, workloads.boolean_instance, range(6, 11), False),
        ("solver.field_solve", semilin.field_solve, workloads.rational_instance, (16, 32, 48), True),
        ("solver.membership_certified[tropical]", semilin.membership_certified,
         workloads.tropical_instance, (16, 32, 48, 64), False),
    ]
    rng = Random(f"probes/{args.seed}")
    results = {}
    for name, fn, make, sizes, solvable in probes:
        for size in sizes:
            times = [_timed_ms(fn, *system(make(rng, size, solvable))) for _ in range(REPEATS)]
            results[f"{name}@{size}"] = statistics.median(times)
            print(f"{name + '@' + str(size):46s} {statistics.median(times):>12.3f} ms/call", flush=True)
    record = {"python": platform.python_version(), "seed": args.seed, "repeats": REPEATS, "ms_per_call": results}
    out = ROOT / ".bench_out" / "probes.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
