"""Span tracing around the public entry points of each maxqp module.

The traced run replaces every binding of an entry point, in every
``maxqp.*`` module that binds it (``cli``, ``packing`` and ``schemes`` import
names directly), with a wrapper that records a span: name, start, end,
parent span and instance label, plus work counts read from the call's
arguments or return value.  Per-element helpers (``weight``, ``has_edge``,
``triangle_is_good``, ...) are never wrapped.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# Entry points wrapped in the traced run, by module.  The layer metrics of
# perfbench/README.md are named "<module>.<function>.self_s".
ENTRY_POINTS = {
    "io": ("read_instance", "parse_instance", "write_instance"),
    "graph": ("load_graph", "stats", "induced_subgraph", "extend_from_induced"),
    "matching": ("greedy_sorted_matching", "maximal_matching", "maximum_matching"),
    "packing": (
        "solve_bounded_degree",
        "solve_degenerate",
        "solve_dense",
        "matching_to_solution",
        "easypack",
        "star_packing",
        "packing_to_solution",
    ),
    "treewidth": ("solve_exact", "build_decomposition", "to_nice", "solve_treewidth"),
    "schemes": ("bfs_layers", "solve_baker", "solve_partition_scheme"),
    "oracle": ("brute_force", "generate"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in ENTRY_POINTS.items() for fn in fns)

# Counts reported per traced pass, with their units.
COUNT_UNITS = {
    "matching.pairs": "count",
    "packing.packed_edges": "count",
    "treewidth.nice_nodes": "count",
    "treewidth.width_max": "count",
    "treewidth.dp_cells": "count",
    "treewidth.table_bytes_max": "bytes",
    "treewidth.build_decomposition.calls": "count",
    "treewidth.build_decomposition.refused": "count",
    "treewidth.decompose_useful": "ratio",
    "schemes.subproblems": "count",
    "oracle.brute_force.states": "count",
}


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts of one finished call, read from its arguments or result."""
    if name.startswith("matching."):
        return {"pairs": len(result.edges)}
    if name in ("packing.easypack", "packing.star_packing"):
        return {"packed_edges": result.edge_count}
    if name == "treewidth.build_decomposition":
        return {"width": result.width}
    if name == "treewidth.to_nice":
        return {"nice_nodes": len(result.bags)}
    if name == "treewidth.solve_treewidth":
        sizes = [1 << len(bag) for bag in args[1].bags]
        return {"dp_cells": sum(sizes), "table_bytes": 8 * max(sizes, default=0)}
    if name == "oracle.brute_force":
        return {"states": 1 << max(args[0].n - 1, 0)}
    return {}


class Tracer:
    """Records spans while installed; `instance` labels the spans it records."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or None, instance, counts]
        self.spans: list[list] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self.instance, {}]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[2] = time.perf_counter_ns()
                span[5] = {"error": type(e).__name__}
                if getattr(e, "achieved", None) is not None:
                    span[5]["width"] = e.achieved
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter_ns()
            span[5] = _counts(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every entry point; restore them on exit."""
        originals = {}
        for mod, fns in ENTRY_POINTS.items():
            module = sys.modules[f"maxqp.{mod}"]
            for fn in fns:
                originals[getattr(module, fn)] = f"{mod}.{fn}"
        wrappers = {orig: self._wrap(name, orig) for orig, name in originals.items()}
        patched = []
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "maxqp"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, instance, counts in self.spans:
                rec = {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "instance": instance,
                    **counts,
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def layer_metrics(spans: list[list], start: int = 0) -> dict[str, float]:
    """Per-layer self time (s) and work counts over ``spans[start:]``.

    A span's self time is its duration minus the durations of its direct
    children; calls are nested and sequential, so children never overlap.
    Every span from `start` on must have been opened with an empty stack or
    below a span from `start` on, as the spans of one pass are.
    """
    spans = spans[start:]
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent - start] += t1 - t0
    out = {f"{name}.self_s": 0.0 for name in SPAN_NAMES}
    out.update({key: 0 for key in COUNT_UNITS})
    calls = refused = 0
    for (name, t0, t1, parent, _, counts), child in zip(spans, child_ns):
        out[f"{name}.self_s"] += (t1 - t0 - child) / 1e9
        out["matching.pairs"] += counts.get("pairs", 0)
        out["packing.packed_edges"] += counts.get("packed_edges", 0)
        out["treewidth.nice_nodes"] += counts.get("nice_nodes", 0)
        out["treewidth.dp_cells"] += counts.get("dp_cells", 0)
        out["oracle.brute_force.states"] += counts.get("states", 0)
        out["treewidth.table_bytes_max"] = max(
            out["treewidth.table_bytes_max"], counts.get("table_bytes", 0)
        )
        if name == "treewidth.build_decomposition":
            calls += 1
            refused += counts.get("error") == "CapacityError"
            out["treewidth.width_max"] = max(out["treewidth.width_max"], counts.get("width", 0))
        if (
            name == "graph.induced_subgraph"
            and parent is not None
            and spans[parent - start][0].startswith("schemes.")
        ):
            out["schemes.subproblems"] += 1
    out["treewidth.build_decomposition.calls"] = calls
    out["treewidth.build_decomposition.refused"] = refused
    out["treewidth.decompose_useful"] = (calls - refused) / calls if calls else 0.0
    return out
