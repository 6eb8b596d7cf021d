"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public entry point of every measured layer from the
outside: :func:`install` replaces each function listed in :data:`ENTRY_POINTS`
by a wrapper in *every* loaded ``repro.*`` module that bound it (so a
``from … import`` copy is traced as well as the defining module), and
replaces the listed methods on their class.  Each call records one span —
name, start, end, parent — in a list kept in memory; :func:`leg_metrics`
folds the spans of one leg into per-layer metrics.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so the self times of all layers plus
``trace.unaccounted_s`` add up to the leg's wall time exactly.

Run as a script, the module is the traced ``repro`` command line::

    python perfbench/tracer.py SPANS.json simulate push-pull star 200

It times the import of ``repro.cli.main`` as ``cli.import``, runs ``main()``
under a ``cli.main`` span and writes the spans to ``SPANS.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (defining module, attribute path, metric group).  The group names the
#: per-layer self-time metric ``<group>_s`` the span's self time adds to.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graphs.regular", "random_regular_graph", "graphs.build"),
    ("repro.graphs.heavy_binary_tree", "heavy_binary_tree", "graphs.build"),
    ("repro.graphs.graph", "Graph.__init__", "graphs.build"),
    ("repro.scenarios.generators", "powerlaw_configuration", "scenarios.generate"),
    ("repro.scenarios.generators", "stochastic_block_model", "scenarios.generate"),
    ("repro.scenarios.generators", "random_geometric", "scenarios.generate"),
    ("repro.scenarios.corpus", "load_corpus", "scenarios.load"),
    ("repro.store.keys", "graph_fingerprint", "store.key"),
    ("repro.store.keys", "cell_key", "store.key"),
    ("repro.store.orchestrator", "resolve_cell", "store.plan"),
    ("repro.store.orchestrator", "resolve_sweep_plans", "store.plan"),
    ("repro.store.artifacts", "ResultStore.get_trial_set", "store.read"),
    ("repro.store.artifacts", "ResultStore.get_document", "store.read"),
    ("repro.store.artifacts", "ResultStore.put_trial_set", "store.write"),
    ("repro.store.artifacts", "ResultStore.put_document", "store.write"),
    ("repro.store.journal", "SweepJournal.*", "store.journal"),
    ("repro.core.batch", "run_batch", "core.run_batch"),
    ("repro.experiments.runner", "run_trial_set", "experiments.self"),
    ("repro.experiments.runner", "run_experiment", "experiments.self"),
    ("repro.experiments.reporting", "experiment_markdown_section", "experiments.render"),
    (
        "repro.experiments.reporting",
        "experiment_markdown_section_from_store",
        "experiments.render",
    ),
)

#: Every self-time group, including the two the CLI entry records itself.
GROUPS = ("cli.import", "cli.main") + tuple(dict.fromkeys(g for _, _, g in ENTRY_POINTS))

#: Per-layer metrics of one leg, in print order (see :func:`leg_metrics`).
LEG_METRICS = tuple(f"{g}_s" for g in GROUPS) + (
    "graphs.builds",
    "graphs.edges_per_s",
    "store.keys",
    "store.reads",
    "store.read_p50_ms",
    "store.read_p90_ms",
    "store.hit_ratio",
    "store.writes",
    "store.bytes_written",
    "core.trial_rounds",
    "core.rounds_per_s",
    "core.sparse_cells",
    "trace.wall_s",
    "trace.unaccounted_s",
)


class Span:
    __slots__ = ("name", "group", "parent", "start", "end", "attrs")

    def __init__(self, name: str, group: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.group = group
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, Any] = {}


class Tracer:
    """The span list and the open-span stack of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []

    def reset(self) -> None:
        self.spans = []

    def open(self, name: str, group: str) -> Span:
        span = Span(name, group, self.stack[-1] if self.stack else None)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)


def _describe(name: str, args: tuple, result: Any, attrs: Dict[str, Any]) -> None:
    """Record the counts a span's metrics need (after its end is stamped)."""
    if name == "Graph.__init__":
        attrs["edges"] = int(args[0].num_edges)
    elif name == "run_batch":
        attrs["protocol"] = str(args[0])
        attrs["graph"] = str(args[1].name)
        attrs["trial_rounds"] = int(result.rounds_executed.sum())
        attrs["frontier"] = str(result.frontier_resolved)
    elif name in ("ResultStore.get_trial_set", "ResultStore.get_document"):
        attrs["hit"] = result is not None
    elif name in ("ResultStore.put_trial_set", "ResultStore.put_document"):
        attrs["bytes"] = sum(
            path.stat().st_size for path in args[0].object_paths(args[1]) if path.exists()
        )


def _wrap(tracer: Tracer, fn: Callable, name: str, group: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        _describe(name, args, result, span.attrs)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Import every layer and wrap its entry points; call once per process."""
    import importlib

    for module_name, _, _ in ENTRY_POINTS:
        importlib.import_module(module_name)
    for module_name, path, group in ENTRY_POINTS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(module, cls_name)
            methods = (
                [
                    m
                    for m, fn in vars(cls).items()
                    if inspect.isfunction(fn)
                    and not m.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                ]
                if method == "*"
                else [method]
            )
            for m in methods:
                setattr(cls, m, _wrap(tracer, vars(cls)[m], f"{cls_name}.{m}", group))
            continue
        original = getattr(module, path)
        wrapper = _wrap(tracer, original, path, group)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, path, None) is original
            ):
                setattr(loaded, path, wrapper)


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def leg_metrics(spans: List[Span], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one leg from its closed spans and wall time."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + (span.end - span.start)
    metrics = {f"{g}_s": 0.0 for g in GROUPS}
    for span in spans:
        metrics[f"{span.group}_s"] += (span.end - span.start) - child_time.get(id(span), 0.0)

    def outermost(group: str) -> List[Span]:
        return [
            s for s in spans if s.group == group and (s.parent is None or s.parent.group != group)
        ]

    builds = [s for s in spans if s.name == "Graph.__init__"]
    construction = [
        s
        for s in spans
        if s.group in ("graphs.build", "scenarios.generate")
        and (s.parent is None or s.parent.group not in ("graphs.build", "scenarios.generate"))
    ]
    construction_s = sum(s.end - s.start for s in construction)
    edges = sum(s.attrs.get("edges", 0) for s in builds)
    reads = outermost("store.read")
    read_ms = [(s.end - s.start) * 1e3 for s in reads]
    writes = outermost("store.write")
    batches = [s for s in spans if s.name == "run_batch"]
    rounds = sum(s.attrs["trial_rounds"] for s in batches)
    metrics.update(
        {
            "graphs.builds": len(builds),
            "graphs.edges_per_s": edges / construction_s if construction_s > 0 else 0.0,
            "store.keys": sum(1 for s in spans if s.name == "cell_key"),
            "store.reads": len(reads),
            "store.read_p50_ms": _quantile(read_ms, 0.5) if read_ms else 0.0,
            "store.read_p90_ms": _quantile(read_ms, 0.9) if read_ms else 0.0,
            "store.hit_ratio": (
                sum(1 for s in reads if s.attrs.get("hit")) / len(reads) if reads else 0.0
            ),
            "store.writes": len(writes),
            "store.bytes_written": sum(s.attrs.get("bytes", 0) for s in writes),
            "core.trial_rounds": rounds,
            "core.rounds_per_s": (
                rounds / metrics["core.run_batch_s"] if metrics["core.run_batch_s"] > 0 else 0.0
            ),
            "core.sparse_cells": sum(1 for s in batches if s.attrs["frontier"] == "sparse"),
            "trace.wall_s": wall,
            "trace.unaccounted_s": wall - sum(metrics[f"{g}_s"] for g in GROUPS),
        }
    )
    return metrics


def batch_seconds(spans: List[Span]) -> Dict[Tuple[str, str], float]:
    """Inclusive ``run_batch`` seconds per (graph name, protocol)."""
    out: Dict[Tuple[str, str], float] = {}
    for span in spans:
        if span.name == "run_batch":
            key = (span.attrs["graph"], span.attrs["protocol"])
            out[key] = out.get(key, 0.0) + (span.end - span.start)
    return out


def dump(spans: List[Span], path: str) -> None:
    """Write spans as JSON records (parents by index) for another process."""
    index = {id(s): i for i, s in enumerate(spans)}
    records = [
        {
            "name": s.name,
            "group": s.group,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "start": s.start,
            "end": s.end,
            "attrs": s.attrs,
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)


def load(path: str) -> List[Span]:
    """Read spans written by :func:`dump`."""
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    spans: List[Span] = []
    for record in records:
        span = Span.__new__(Span)
        span.name, span.group = record["name"], record["group"]
        span.start, span.end, span.attrs = record["start"], record["end"], record["attrs"]
        span.parent = None
        spans.append(span)
    for span, record in zip(spans, records):
        if record["parent"] is not None:
            span.parent = spans[record["parent"]]
    return spans


def _cli(argv: List[str]) -> int:
    out, repro_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("import repro.cli.main", "cli.import")
    from repro.cli.main import main

    tracer.close(span)
    install(tracer)
    span = tracer.open("main", "cli.main")
    try:
        code = main(repro_args)
    finally:
        tracer.close(span)
        dump(tracer.spans, out)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(_cli(sys.argv[1:]))
