"""Machine-speed calibration: times in reference milliseconds.

The benchmark runs on a shared 2-core box whose speed drifts by up to 1.7x
over seconds to minutes, which no amount of work in one run averages out.
So every timing is scaled by ``REF_MS / c``, where c is the wall time of a
fixed pure-Python task (Fraction arithmetic and small frozen dataclasses,
like the program's own inner loops) measured just before and just after the
timed work.  A slower program still reads slower; a slower machine does
not.  ``REF_MS`` is the task's typical time on the 2-core box the benchmark
was defined on, so scaled times read close to wall milliseconds there.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REF_MS = 3.0
EVERY_NS = 250_000_000  # calibrate after each 250 ms of measured work
ROUNDS = 16
REPEATS = 3


@dataclass(frozen=True)
class _Cell:
    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            raise TypeError(self.value)


def _task() -> int:
    acc, cells = Fraction(0), []
    for r in range(1, ROUNDS + 1):
        for k in range(1, 40):
            x = Fraction(k, r + 6)
            acc = acc + x * x if k % 3 else acc - x
            cells.append(_Cell(acc))
    return len(cells)


def measure_ms() -> float:
    """Median wall ms of the calibration task over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        _task()
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def factor(before_ms: float, after_ms: float) -> float:
    """Scale from wall time to reference time for work between two calibrations."""
    return REF_MS / ((before_ms + after_ms) / 2)


class Scaler:
    """Scales a stream of wall times by calibrations that bracket them."""

    def __init__(self) -> None:
        self.before = measure_ms()
        self.pending: list[int] = []
        self.pending_ns = 0
        self.scaled: list[float] = []

    def add(self, ns: int) -> None:
        self.pending.append(ns)
        self.pending_ns += ns
        if self.pending_ns >= EVERY_NS:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = measure_ms()
        f = factor(self.before, after)
        self.scaled += [ns * f for ns in self.pending]
        self.before, self.pending, self.pending_ns = after, [], 0
