"""In-memory span tracer around spectool's public functions.

Each traced function is replaced, in every module that binds it, by a
wrapper that records one span (name, start, end, parent) per call. Spans are
kept in flat arrays while the run lasts and written out once it ends. Self
time is a span's duration minus the time its direct child spans cover; it is
accumulated on the fly, so reading the per-layer totals needs no pass over
the spans.
"""

from array import array
import functools
import json
import sys
import time

from workloads import ALL_THEOREMS

# Metric prefix -> (defining module, traced function names). Metric names
# start with a letter, so the private ``_exhaustive`` module reports as
# ``exhaustive``; ``lapack`` is numpy's LAPACK boundary as spectool calls it.
TRACED = {
    "graph": ("spectool.graph", (
        "from_edge_mask", "from_edges", "induced_subgraph", "bipartition",
        "connectivity", "neighborhood_degree_sums")),
    "graph6": ("spectool.graph6", ("to_graph6",)),
    "families": ("spectool.families", ("gnp",)),
    "spectrum": ("spectool.spectrum", ("adjacency_matrix", "eigendecompose")),
    "lapack": ("numpy.linalg", ("eigh", "eigvalsh")),
    "bounds": ("spectool.bounds", ("bound_value", "spectral_mantel_classify")),
    "walks": ("spectool.walks", (
        "walk_counts", "walk_inequality_holds",
        "decomposition_identity_check")),
    "cycles": ("spectool.cycles", (
        "has_cycle_of_length", "erdos_peel", "theorem7_pipeline",
        "bondy_pancyclicity_check", "consecutive_even_cycles_check")),
    "verify": ("spectool.verify", ("sweep", "fuzz", "check_theorem")),
    "exhaustive": ("spectool._exhaustive", ("block_stats", "sweep_range")),
    "cli": ("spectool.cli", ("main",)),
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (_, fns) in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {name: 0 for name in span_names()}
        self.self_s = {name: 0.0 for name in span_names()}
        self.theorem_self_s = {tid: 0.0 for tid in ALL_THEOREMS}
        self.max_residual = 0.0
        self.graphs_swept = 0
        self.graphs_resolved = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, kwargs, result,
        self_seconds)`` sees each call that returns."""
        name_id = len(self.names)
        self.names.append(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                calls[name] += 1
                self_s[name] += own
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, result, own)
            return result

        return traced

    def _after_check_theorem(self, args, kwargs, result, own):
        theorem = args[1] if len(args) > 1 else kwargs["theorem"]
        self.theorem_self_s[getattr(theorem, "value", theorem)] += own

    def _after_eigendecompose(self, args, kwargs, result, own):
        self.max_residual = max(self.max_residual, result.residual)

    def _after_sweep_range(self, args, kwargs, result, own):
        _, start, stop = args[:3]
        self.graphs_swept += stop - start
        self.graphs_resolved += len(set().union(*result["resolve"].values()))

    def install(self) -> None:
        """Wrap every traced function wherever spectool binds it: ``from .x
        import f`` copies the reference into a module."""
        hooks = {
            "verify.check_theorem": self._after_check_theorem,
            "spectrum.eigendecompose": self._after_eigendecompose,
            "exhaustive.sweep_range": self._after_sweep_range,
        }
        modules = [mod for key, mod in sys.modules.items()
                   if key == "spectool" or key.startswith("spectool.")]
        for layer, (module_name, fns) in TRACED.items():
            home = sys.modules[module_name]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self.wrap(f"{layer}.{fn}", original,
                                    hooks.get(f"{layer}.{fn}"))
                for mod in [home, *modules]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for tid, seconds in self.theorem_self_s.items():
            out[f"verify.check_theorem.{tid}.self_s"] = (seconds, "s")
        resolve = (self.graphs_resolved / self.graphs_swept
                   if self.graphs_swept else 0.0)
        out["verify.resolve_frac"] = (resolve, "ratio")
        out["spectrum.eigendecompose.max_residual"] = (self.max_residual, "1")
        return out

    def write(self, stem) -> None:
        """Spans as ``<stem>.bin`` (name, parent as int32; start, end as
        float64 seconds; each column whole, in that order) and ``<stem>.json``
        (span-name table, span count, machine byte order)."""
        with open(f"{stem}.bin", "wb") as handle:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)
        meta = {"names": self.names, "spans": len(self.span_start),
                "columns": ["name:int32", "parent:int32", "start:float64",
                            "end:float64"],
                "byteorder": sys.byteorder}
        with open(f"{stem}.json", "w") as handle:
            json.dump(meta, handle)
