"""Spans and counters around semilin's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``SPANNED`` and ``COUNTED``
and rebinds *every* module-level reference to the same function object in
all loaded ``semilin.*`` modules: ``from .matrices import mat_mul`` copies the
name into ``solver`` and ``witness``, and patching only the defining module
would miss those calls.  A function that no longer exists is reported as an
absent layer instead of failing the run.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until ``write``.  The per-scalar functions get counters only,
because one 64x64 refutation makes about 100k of those calls; every
``SAMPLE_EVERY``-th operand pair of ``add`` and ``mul`` is kept for an
untraced micro-timing afterwards.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array

SPANNED = {
    "cli": ("run_command", "parse_instance"),
    "solver": ("membership_certified", "field_solve", "principal_solution"),
    "matrices": ("mat_mul", "normalize"),
    "witness": ("check_certificate", "kernel_witness", "boolean_kernel_witness"),
    "sampling": ("random_system",),
    "classify": ("randomized_dichotomy_suite", "boolean_exhaustive_check"),
}
COUNTED = {"semirings": ("add", "mul", "inv", "zero")}
SAMPLED = ("semirings.add", "semirings.mul")
SAMPLE_EVERY = 61
SAMPLE_CAP = 4096


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("q")
        self.op: array = array("q")
        self.start: array = array("q")
        self.end: array = array("q")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, list[int]] = {}
        self.samples: dict[str, list[tuple]] = {name: [] for name in SAMPLED}
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        if name not in self.names:  # the tracer may be installed once per pass
            self.names.append(name)
        name_id = self.names.index(name)
        stack, now = self.stack, time.perf_counter_ns
        name_of, parent, op, start, end = self.name_of, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])
        samples = self.samples.get(name)
        if samples is None:

            @functools.wraps(fn)
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)

            return wrapper

        @functools.wraps(fn)
        def sampling_wrapper(*args):
            cell[0] += 1
            if cell[0] % SAMPLE_EVERY == 0 and len(samples) < SAMPLE_CAP:
                samples.append(args)
            return fn(*args)

        return sampling_wrapper

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists, in every semilin module."""
        importlib.import_module("semilin")
        self.absent = []
        plan = [(m, f, self._spanned) for m, fs in SPANNED.items() for f in fs]
        plan += [(m, f, self._counted) for m, fs in COUNTED.items() for f in fs]
        for module_name, fn_name, make in plan:
            name = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"semilin.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self.originals[name] = fn
            wrapper = make(name, fn)
            for mod in [m for k, m in sys.modules.items() if k == "semilin" or k.startswith("semilin.")]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results -------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def span_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns.  The entry for
        boolean_kernel_witness also counts the mat_mul calls made inside it."""
        ids = {name: i for i, name in enumerate(self.names)}
        bkw, mat_mul = ids.get("witness.boolean_kernel_witness", -1), ids.get("matrices.mat_mul", -1)
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_ns = [0] * len(durations)
        inside_bkw = [False] * len(durations)
        bkw_mat_mul = 0
        for i, p in enumerate(self.parent):  # a parent always precedes its children
            if p >= 0:
                child_ns[p] += durations[i]
                inside_bkw[i] = inside_bkw[p] or self.name_of[p] == bkw
                bkw_mat_mul += inside_bkw[i] and self.name_of[i] == mat_mul
        totals = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i, dur in enumerate(durations):
            t = totals[self.names[self.name_of[i]]]
            t["calls"] += 1
            t["ns"] += dur
            t["self_ns"] += dur - child_ns[i]
        totals.setdefault("witness.boolean_kernel_witness", {"calls": 0, "ns": 0, "self_ns": 0})
        totals["witness.boolean_kernel_witness"]["mat_mul_calls"] = bkw_mat_mul
        return totals

    def micro_ns(self, name: str, repeats: int = 9) -> float:
        """Median ns per call of the original function over the sampled operands."""
        fn, samples = self.originals.get(name), self.samples.get(name)
        if fn is None or not samples:
            return 0.0
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for args in samples:
                fn(*args)
            per_call.append((time.perf_counter_ns() - t0) / len(samples))
        return statistics.median(per_call)

    def write(self, path) -> None:
        """Write every span as a tab-separated line: op, id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
