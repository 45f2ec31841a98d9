"""Per-layer tracing from outside the program.

Wrappers are installed around the public functions of each ``schull``
module.  Each call records a span (job, name, start, end, parent) in memory.
Modules import these names into their own globals, so a wrapper replaces
the original in every ``schull`` module that holds it, not only in the
defining one.  ``witness_simplex_decomposition`` is a generator: its span
covers each ``next()``, so the work done per yielded cell is charged to it
and not to the caller.

A few wrappers also read arguments or results to derive counts that the
program does not expose: realizations enumerated by the oracle, sweep
visits, and the FPRAS cells, free-set sizes and sample counts.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (defining module, function) pairs to wrap; the generator is marked.
TRACED = (
    ("cli", "main"),
    ("dataset", "load_dataset"),
    ("dataset", "oracle_expectation"),
    ("geometry", "pointset_width"),
    ("geometry", "convex_hull"),
    ("geometry", "flat_through"),
    ("geometry", "dists_to_flat"),
    ("geometry", "lex_ranks"),
    ("diameter", "expected_diameter_witness"),
    ("diameter", "expected_diameter_two_approx"),
    ("width", "expected_width_witness"),
    ("width", "recover_vertex_list"),
    ("width", "simplex_width"),
    ("width", "expected_width_fpras"),
    ("width", "witness_simplex_decomposition"),
    ("complexity", "expected_complexity"),
    ("complexity", "hyperplane_statistics"),
    ("complexity", "face_prob"),
    ("complexity", "membership_prob_2d"),
)
GENERATORS = {"width.witness_simplex_decomposition"}

# Per-layer metrics, in report order, with units.  Self times and call
# counts come from spans; the rest are derived in ``layer_metrics``.
SELF_TIMES = (
    "cli.main",
    "dataset.oracle_expectation",
    "geometry.pointset_width",
    "geometry.convex_hull",
    "geometry.flat_through",
    "geometry.dists_to_flat",
    "diameter.expected_diameter_witness",
    "diameter.expected_diameter_two_approx",
    "width.expected_width_witness",
    "width.recover_vertex_list",
    "width.simplex_width",
    "width.expected_width_fpras",
    "width.witness_simplex_decomposition",
    "complexity.hyperplane_statistics",
    "complexity.face_prob",
    "complexity.membership_prob_2d",
)
CALLS = (
    "dataset.oracle_expectation",
    "geometry.pointset_width",
    "geometry.convex_hull",
    "geometry.flat_through",
    "geometry.dists_to_flat",
    "geometry.lex_ranks",
    "width.recover_vertex_list",
    "width.simplex_width",
    "complexity.face_prob",
    "complexity.membership_prob_2d",
)
DERIVED = {
    "dataset.load_dataset.s": "s",
    "dataset.oracle.realizations": "count",
    "width.witness.accept_ratio": "ratio",
    "width.fpras.cells": "count",
    "width.fpras.free_max": "count",
    "width.fpras.samples": "count",
    "width.fpras.sample_bytes": "bytes",
    "width.fpras.distinct_subsets": "count",
    "width.fpras.distinct_ratio": "ratio",
    "complexity.sweep.visits": "count",
    "trace.pass_s": "s",
    "trace.unlisted_self_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    **DERIVED,
}
# Counts that must repeat exactly between traced passes at one seed.
EXACT_COUNTS = tuple(
    k for k in PER_LAYER_UNITS
    if k.endswith((".calls", ".visits", ".cells", ".samples", ".distinct_subsets",
                   ".realizations", ".free_max", ".sample_bytes"))
)

JOB_SPAN = "bench.job"


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        # Each span: [job, name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.fpras_m: list[int] = []  # sample count of each open FPRAS call

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.job, name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(self, fn, args, kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            gen = iter(fn(*args, **kwargs))
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self._observe_cell(item)
                yield item

        return traced

    def _observe_cell(self, item) -> None:
        free = item[3]
        self.counts["width.fpras.cells"] += 1
        key = "width.fpras.free_max"
        self.counts[key] = max(self.counts[key], len(free))
        if free and self.fpras_m:
            m = self.fpras_m[-1]
            self.counts["width.fpras.samples"] += m
            self.counts["width.fpras.sample_bytes"] += m * len(free)


def _observe_oracle(tr: Tracer, fn, args, kwargs):
    tr.counts["dataset.oracle.realizations"] += 1 << len(args[0])
    return fn(*args, **kwargs)


def _observe_sweep(tr: Tracer, fn, args, kwargs):
    visits = fn(*args, **kwargs)
    tr.counts["complexity.sweep.visits"] += int(visits)
    return visits


def _observe_fpras(tr: Tracer, fn, args, kwargs):
    from schull.width import fpras_gamma, fpras_sample_count

    ds, cfg = args[0], args[1]
    gamma = cfg.gamma_override if cfg.gamma_override is not None else fpras_gamma(ds.dim)
    tr.fpras_m.append(fpras_sample_count(len(ds), cfg.epsilon, gamma))
    try:
        return fn(*args, **kwargs)
    finally:
        tr.fpras_m.pop()


_OBSERVERS = {
    "dataset.oracle_expectation": _observe_oracle,
    "complexity.hyperplane_statistics": _observe_sweep,
    "width.expected_width_fpras": _observe_fpras,
}


def install(tracer: Tracer):
    """Replace every traced function in every loaded schull module.

    A function the program no longer defines is skipped, so its metrics
    read 0.  Returns the list of (module, attribute, original) needed to
    undo the replacement.
    """
    mods = {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "schull" or name.startswith("schull."))}
    undo = []
    for modname, fname in TRACED:
        original = getattr(mods.get(f"schull.{modname}"), fname, None)
        if original is None:
            continue
        name = f"{modname}.{fname}"
        make = tracer.wrap_generator if name in GENERATORS else tracer.wrap
        wrapper = make(name, original)
        for mod in mods.values():
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, wrapper)
                undo.append((mod, fname, original))
    return undo


def uninstall(undo) -> None:
    for mod, fname, original in reversed(undo):
        setattr(mod, fname, original)


def _has_ancestor(spans, idx: int, name: str) -> bool:
    p = spans[idx][4]
    while p >= 0:
        if spans[p][1] == name:
            return True
        p = spans[p][4]
    return False


def layer_metrics(tracer: Tracer, pass_s: float,
                  scale: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced pass (times in s, counts as ints).

    Self time is a span's duration minus the time covered by its children,
    multiplied by ``scale[job]``, the factor that turns its job's wall time
    into the benchmark's scaled seconds.  ``trace.unlisted_self_s`` is the
    self time of the spans not reported on their own (the benchmark's
    per-job span, ``expected_complexity``, the ``lex_ranks`` calls), so the
    listed self times, ``dataset.load_dataset.s`` and it add up to
    ``trace.pass_s``, the summed scaled time of the jobs.
    """
    spans = tracer.spans
    self_t = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            self_t[s[4]] -= s[3] - s[2]
    self_t = [st * scale[s[0]] for s, st in zip(spans, self_t)]
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, st in zip(spans, self_t):
        by_name[s[1]] += st
        calls[s[1]] += 1
    out: dict[str, float] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = by_name.get(name, 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["dataset.load_dataset.s"] = by_name.get("dataset.load_dataset", 0.0)
    listed = set(SELF_TIMES) | {"dataset.load_dataset"}
    out["trace.unlisted_self_s"] = sum(
        v for k, v in by_name.items() if k not in listed)
    for key in ("dataset.oracle.realizations", "complexity.sweep.visits",
                "width.fpras.cells", "width.fpras.free_max", "width.fpras.samples",
                "width.fpras.sample_bytes"):
        out[key] = tracer.counts.get(key, 0)
    recover = simplex = distinct = 0
    for i, s in enumerate(spans):
        if s[1] == "width.recover_vertex_list" and _has_ancestor(
                spans, i, "width.expected_width_witness"):
            recover += 1
        elif s[1] == "width.simplex_width" and _has_ancestor(
                spans, i, "width.expected_width_witness"):
            simplex += 1
        elif s[1] == "geometry.pointset_width" and _has_ancestor(
                spans, i, "width.expected_width_fpras"):
            distinct += 1
    out["width.witness.accept_ratio"] = simplex / recover if recover else 0.0
    out["width.fpras.distinct_subsets"] = distinct
    samples = out["width.fpras.samples"]
    out["width.fpras.distinct_ratio"] = distinct / samples if samples else 0.0
    out["trace.pass_s"] = pass_s
    return out
