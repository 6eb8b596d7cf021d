"""Workload definitions, in-process legs and output checks.

Every workload runs three legs — ``cold``, ``warm`` and ``report`` — whose
wall times are the end-to-end metrics ``cold_s``, ``warm_s`` and
``report_s`` (see ``README.md`` in this directory).  A repetition holds a
list of samples per leg: one, ``CORPUS_REPEATS`` for the short warm and
report legs of ``corpus-store``, or ``SWEEP_REPORTS`` for the report leg of
``kernel-sweep``.  ``cli-cell`` runs its legs as ``repro`` commands (driven
by ``run.py``); ``kernel-sweep`` and
``corpus-store`` run theirs in one child process per repetition, which is
this module run as a script::

    python perfbench/workloads.py --workload corpus-store --seed 3 \
        --trace 0 --t0 <time.monotonic() at spawn> --workdir DIR --out OUT.json

Every check below compares against the tolerance bands of ``bands.json``
(built by ``calibrate.py`` from the spread of the cell means across seeds)
or against another leg's output; a failed check marks operations failed and
never stops the remaining legs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BANDS = HERE / "bands.json"

PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)
LEGS = ("cold", "warm", "report")

# --- cli-cell ---------------------------------------------------------------
CLI_SIZE = 2**15
CLI_TRIALS = 16
CLI_CELL = "cli-cell/random-regular-2e15/push-pull"


def cli_simulate_args(seed: int, store: str) -> List[str]:
    """The ``repro`` arguments of the cold and the warm leg."""
    return [
        "simulate", "push-pull", "random-regular", str(CLI_SIZE),
        "--trials", str(CLI_TRIALS), "--seed", str(seed), "--store", store,
    ]


_CLI_MEAN = re.compile(r"broadcast time = (\S+) rounds \(mean over (\d+)/(\d+) completed trials\)")
_CLI_STORE = re.compile(r"store: (computed|cached) \(cell ([0-9a-f]{16})\)")


def parse_simulate(stdout: str) -> Optional[Dict[str, Any]]:
    """Mean, completion and cache status printed by ``repro simulate``."""
    mean, store = _CLI_MEAN.search(stdout), _CLI_STORE.search(stdout)
    if mean is None or store is None:
        return None
    return {
        "mean": mean.group(1),
        "completed": int(mean.group(2)),
        "trials": int(mean.group(3)),
        "status": store.group(1),
        "key": store.group(2),
    }


# --- kernel-sweep -----------------------------------------------------------
SWEEP_TRIALS = 8
#: One render of the sweep's Markdown report takes under a millisecond, too
#: short to time alone, so a report sample renders it SWEEP_RENDERS times
#: (about 0.13 s).  A repetition takes SWEEP_REPORTS samples, so that the
#: run median of ``report_s`` rests on ten or more samples, not two or three.
SWEEP_RENDERS = 600
SWEEP_REPORTS = 5


SWEEP_GRAPHS = ("regular-2e12", "regular-2e16", "star", "double-star", "heavy-tree")


def _sweep_graphs(seed: int):
    """(label, graph, source) of the five kernel-sweep graphs, in SWEEP_GRAPHS order."""
    import numpy as np

    from repro.graphs import double_star, heavy_binary_tree, random_regular_graph, star

    return [
        ("regular-2e12", random_regular_graph(2**12, 12, np.random.default_rng([seed, 12])), 0),
        ("regular-2e16", random_regular_graph(2**16, 12, np.random.default_rng([seed, 16])), 0),
        ("star", star(2**10), 1),  # source is a leaf
        ("double-star", double_star(2**10), 2),  # source is a leaf of center 0
        ("heavy-tree", heavy_binary_tree(1023), 0),
    ]


class _Prebuilt:
    """Graph builder returning a case built during set-up."""

    def __init__(self, case) -> None:
        self.case = case

    def __call__(self, size_parameter: int, seed: int):
        return self.case


def sweep_setup(seed: int):
    """Build the graphs and one six-protocol configuration per graph."""
    from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec

    configs = []
    for label, graph, source in _sweep_graphs(seed):
        case = GraphCase(graph=graph, source=source, size_parameter=graph.num_vertices)
        configs.append(
            ExperimentConfig(
                experiment_id=label,
                title=f"kernel sweep on {graph.name}",
                paper_reference="benchmark",
                description="All six protocols on one graph.",
                graph_builder=_Prebuilt(case),
                sizes=(graph.num_vertices,),
                protocols=tuple(ProtocolSpec(name=p) for p in PROTOCOLS),
                trials=SWEEP_TRIALS,
            )
        )
    return configs


def sweep_pass(configs, seed: int):
    from repro.experiments.runner import run_experiment

    return [run_experiment(config, base_seed=seed, store=False) for config in configs]


def sweep_cells(results) -> Dict[str, Any]:
    """``kernel-sweep/<graph>/<protocol>`` -> cell result."""
    return {
        f"kernel-sweep/{r.config.experiment_id}/{cell.protocol_name}": cell
        for r in results
        for cell in r.cells
    }


# --- corpus-store -----------------------------------------------------------
CORPUS_SIZES = (128, 256, 512, 1024)
CORPUS_TRIALS = 4
#: Five graph kinds; parameters keep every instance connected at every size
#: (``calibrate.py --connectivity`` checks this over many seeds).
CORPUS_SCENARIOS = (
    {"name": "powerlaw", "graph": {"kind": "powerlaw", "exponent": 2.5, "min_degree": 4},
     "source": "max-degree"},
    {"name": "sbm", "graph": {"kind": "sbm", "num_blocks": 4, "p_in": 0.4, "p_out": 0.02}},
    {"name": "geometric", "graph": {"kind": "geometric", "avg_degree": 32},
     "dynamics": "bernoulli-edges:rate=0.1,seed=7",
     "max_rounds": {"model": "n log n", "factor": 40}},
    {"name": "regular", "graph": {"kind": "random-regular", "degree": 8}},
    {"name": "heavy-tree", "graph": {"kind": "heavy-tree"}},
)
CORPUS_CELLS = len(CORPUS_SCENARIOS) * len(CORPUS_SIZES) * len(PROTOCOLS)
#: The warm and report legs take about 0.3 s each, short enough that one
#: sample per repetition is noisy, so each repetition runs them this many times.
CORPUS_REPEATS = 3


def write_manifest(directory: Path) -> Path:
    manifest = {
        "corpus": "perfbench",
        "defaults": {
            "trials": CORPUS_TRIALS,
            "protocols": list(PROTOCOLS),
            "sizes": list(CORPUS_SIZES),
        },
        "scenarios": list(CORPUS_SCENARIOS),
    }
    path = directory / "corpus.json"
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return path


def journal_runs(store_dir: Path) -> Dict[str, List[Dict[int, Dict[str, Any]]]]:
    """Per scenario, the cell events of each run read from the sweep journals."""
    runs: Dict[str, List[Dict[int, Dict[str, Any]]]] = {}
    for path in sorted((store_dir / "sweeps").glob("*.jsonl")):
        scenario, cells = None, []
        for line in path.read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            if event["event"] == "sweep-start":
                scenario = event["sweep"]["experiment_id"]
                cells.append({})
            elif event["event"] == "cell":
                cells[-1][event["index"]] = event
        runs[scenario] = cells
    return runs


def stored_cells(store_dir: Path, cold: Dict[str, List[Dict[int, Dict[str, Any]]]]):
    """``corpus-store/<scenario>/<size>/<protocol>`` -> stored trial set."""
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    out = {}
    for scenario, runs in cold.items():
        for event in runs[0].values():
            cell = f"corpus-store/{scenario}/{event['size']}/{event['protocol']}"
            out[cell] = store.get_trial_set(event["key"])
    return out


# --- host-speed reference ---------------------------------------------------
#: Seconds ``reference_sample`` takes on a host of nominal speed.  Every
#: timing is reported scaled by REFERENCE_NOMINAL_S / (median reference
#: sample of its run), so a run in a slow phase of a shared host reads about
#: what it would in a fast one (``README.md``, "Noise").
REFERENCE_NOMINAL_S = 0.2


def reference_sample() -> float:
    """Seconds one pass of fixed work takes on this host right now.

    The work does not touch ``repro`` and never changes, so only the host
    moves it.  It mixes, in about equal parts, what the legs do:
    interpreter-bound Python, many small numpy calls and memory-bound
    numpy passes over large arrays.
    """
    import numpy as np

    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(450_000):
        key = i % 1009
        counts[key] = counts.get(key, 0) + i
    sorted(str(i * 7919 % 100_003) for i in range(40_000))
    rng = np.random.default_rng(20190601)
    informed = np.zeros(4096, dtype=bool)
    targets = rng.integers(0, 4096, size=4096)
    lanes = np.arange(64) * 61
    for r in range(12_000):
        informed[targets[(lanes + r) % 4096]] = True
        informed.sum()
    values = rng.integers(0, 1 << 20, size=1 << 19)
    order = np.argsort(values, kind="stable")
    np.bincount(values[order] & 0xFFFF, minlength=1 << 16)
    values[rng.permutation(1 << 19)]
    return time.perf_counter() - start


def child_env() -> Dict[str, str]:
    """Environment of every child: ``repro`` from ``src/``, no ``REPRO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# --- checks -----------------------------------------------------------------
def load_bands() -> Dict[str, List[float]]:
    return json.loads(BANDS.read_text(encoding="utf-8"))["bands"]


def group_names(cell: str) -> List[str]:
    """The groups a cell belongs to: its protocol over every graph of its
    workload and, in ``corpus-store``, over every size of its graph kind."""
    parts = cell.split("/")
    return [
        "/".join(parts[:j] + ["*"] * (len(parts) - 1 - j) + parts[-1:])
        for j in range(1, len(parts) - 1)
    ]


def group_means(means: Dict[str, float]) -> Dict[str, float]:
    """Geometric mean of the cell means of every group with several cells.

    A group's mean spreads far less across seeds than one cell's, so its band
    is narrow enough to catch a protocol change that one cell's band misses.
    """
    logs: Dict[str, List[float]] = {}
    for cell, mean in means.items():
        for group in group_names(cell):
            logs.setdefault(group, []).append(math.log(mean))
    return {g: math.exp(statistics.fmean(v)) for g, v in logs.items() if len(v) > 1}


def check_groups(means: Dict[str, float], bands) -> Dict[str, str]:
    """Group -> why its geometric mean lies outside its band."""
    out = {}
    for group, value in group_means(means).items():
        low, high = bands[group]
        if not low <= value <= high:
            out[group] = f"geometric mean {value:.3f} outside band [{low:.3f}, {high:.3f}]"
    return out


def check_trials(cell: str, trial_set, bands) -> Optional[str]:
    """Why a cell's trials are wrong, or None: all complete, mean in band."""
    if trial_set is None:
        return "missing"
    results = trial_set.results
    if not results or not all(r.completed for r in results):
        return "a trial did not complete"
    if cell == "kernel-sweep/star/push-pull" and any(r.broadcast_time != 2 for r in results):
        return "push-pull from a star leaf must take exactly 2 rounds"
    low, high = bands[cell]
    mean = trial_set.mean_broadcast_time()
    if not low <= mean <= high:
        return f"mean {mean} outside band [{low:.3f}, {high:.3f}]"
    return None


def markdown_means(text: str) -> Dict[Tuple[str, int, str], str]:
    """(section id, size, protocol label) -> rendered mean of every table."""
    out: Dict[Tuple[str, int, str], str] = {}
    section, headers = None, None
    for line in text.splitlines():
        heading = re.match(r"### `([^`]+)`", line)
        if heading:
            section, headers = heading.group(1), None
        elif line.startswith("| size | n |"):
            headers = [h.strip()[len("mean T ("):-1] for h in line.strip("|").split("|")[2:]]
        elif headers and line.startswith("| ") and section is not None:
            row = [c.strip() for c in line.strip().strip("|").split("|")]
            for label, value in zip(headers, row[2:]):
                out[(section, int(row[0]), label)] = value
        elif not line.strip():
            headers = None
    return out


# --- the child --------------------------------------------------------------
class Leg:
    """Outcome of one leg: wall time, operations, failures, layer metrics."""

    def __init__(self, ops: int) -> None:
        self.ops = ops
        self.wall = 0.0
        self.failed: Dict[str, str] = {}
        self.layers: Optional[Dict[str, float]] = None
        self.value: Any = None

    def fail(self, op: str, why: str) -> None:
        self.failed.setdefault(op, why)

    def as_dict(self) -> Dict[str, Any]:
        return {"wall": self.wall, "ops": self.ops, "failed": self.failed, "layers": self.layers}


def timed_leg(tracer, ops: int, fn: Callable[[], Any]) -> Leg:
    """Run ``fn`` as one leg; an exception fails every operation of the leg."""
    leg = Leg(ops)
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    try:
        leg.value = fn()
    except Exception:  # the benchmark records the failure and keeps going
        leg.fail("*", traceback.format_exc(limit=3))
    leg.wall = time.perf_counter() - start
    if tracer is not None:
        from tracer import leg_metrics

        leg.layers = leg_metrics(tracer.spans, leg.wall)
    return leg


def run_kernel_sweep(seed: int, tracer, workdir: Path, ready: Callable[[], None], refs):
    from tracer import batch_seconds

    configs = sweep_setup(seed)
    ready()
    refs.append(reference_sample())
    cold = timed_leg(tracer, CELLS_SWEEP, lambda: sweep_pass(configs, seed))
    batch = batch_seconds(tracer.spans) if tracer is not None else {}
    refs.append(reference_sample())
    warm = timed_leg(tracer, CELLS_SWEEP, lambda: sweep_pass(configs, seed))
    refs.append(reference_sample())
    from repro.experiments.reporting import experiment_markdown_section

    results = cold.value or []

    def render():
        for _ in range(SWEEP_RENDERS):
            text = "\n".join(experiment_markdown_section(r) for r in results)
        return text

    reports = [timed_leg(tracer, 1, render) for _ in range(SWEEP_REPORTS)]
    refs.append(reference_sample())

    bands = load_bands()
    cold_cells = sweep_cells(results)
    warm_cells = sweep_cells(warm.value or [])
    context = {}
    names = {config.experiment_id: config.build_case(0, 0).graph.name for config in configs}
    rendered = [markdown_means(report.value or "") for report in reports]
    per_cell = {}
    for cell, result in cold_cells.items():
        why = check_trials(cell, result.trials, bands)
        if why:
            cold.fail(cell, why)
        meta = result.trials.results[0].metadata
        context[cell] = f"{meta.get('backend')}/{meta.get('frontier')}"
        other = warm_cells.get(cell)
        if other is None or (
            other.trials.broadcast_times() != result.trials.broadcast_times()
        ):
            warm.fail(cell, "warm pass differs from the cold pass")
        _, graph, protocol = cell.split("/")
        per_cell[f"core.{graph}.{protocol}_s"] = batch.get((names[graph], protocol), 0.0)
        expected = _format(result.mean_time)
        for report, means in zip(reports, rendered):
            shown = means.get((graph, result.size_parameter, protocol))
            if shown != expected:
                report.fail("*", f"{cell}: report shows {shown}, expected {expected}")
    for leg, cells in ((cold, cold_cells), (warm, warm_cells)):
        if len(cells) != CELLS_SWEEP:
            leg.fail("*", "the sweep returned the wrong number of cells")
    if len(cold_cells) == CELLS_SWEEP and not cold.failed:  # groups need every cell
        means = {cell: result.mean_time for cell, result in cold_cells.items()}
        for group, why in check_groups(means, bands).items():
            cold.fail(group, why)
    return {"cold": [cold], "warm": [warm], "report": reports}, context, per_cell


def run_corpus_store(seed: int, tracer, workdir: Path, ready: Callable[[], None], refs):
    from repro.scenarios.corpus import corpus_report, run_corpus

    manifest = write_manifest(workdir)
    store = workdir / "store"
    ready()
    def corpus_run():
        return run_corpus(manifest, store=store, base_seed=seed)

    refs.append(reference_sample())
    cold = timed_leg(tracer, CORPUS_CELLS, corpus_run)
    warms, reports = [], []
    for _ in range(CORPUS_REPEATS):
        refs.append(reference_sample())
        warms.append(timed_leg(tracer, CORPUS_CELLS, corpus_run))
        reports.append(
            timed_leg(
                tracer, 1, lambda: corpus_report(manifest, store=store, base_seed=seed, strict=True)
            )
        )
    refs.append(reference_sample())

    bands = load_bands()
    runs = journal_runs(store)
    stored = stored_cells(store, runs)
    context = {}
    for leg in [cold] + warms:
        if leg.value is not None and (
            sum(s.total_cells for s in leg.value.scenarios) != CORPUS_CELLS
        ):
            leg.fail("*", "the corpus returned the wrong number of cells")
    for warm in warms:
        if warm.value is not None and warm.value.graph_constructions != 0:
            warm.fail("*", f"warm run built {warm.value.graph_constructions} graphs")
    rendered = [markdown_means(report.value or "") for report in reports]
    for scenario, scenario_runs in runs.items():
        if len(scenario_runs) != 1 + CORPUS_REPEATS:
            expected = 1 + CORPUS_REPEATS
            cold.fail(scenario, f"{len(scenario_runs)} journaled runs, expected {expected}")
            continue
        for index, event in scenario_runs[0].items():
            cell = f"corpus-store/{scenario}/{event['size']}/{event['protocol']}"
            if event["status"] != "computed":
                cold.fail(cell, f"cold status {event['status']}")
            why = check_trials(cell, stored[cell], bands)
            if why:
                cold.fail(cell, why)
            else:
                meta = stored[cell].results[0].metadata
                context[cell] = f"{meta.get('backend')}/{meta.get('frontier')}"
            for warm, again in zip(warms, scenario_runs[1:]):
                event_again = again.get(index, {})
                if event_again.get("status") != "cached" or event_again.get("key") != event["key"]:
                    warm.fail(cell, "warm cell is not the cached cold cell")
            expected = _format(stored[cell].mean_broadcast_time()) if stored[cell] else None
            for report, means in zip(reports, rendered):
                shown = means.get((scenario, event["size"], event["protocol"]))
                if shown != expected:
                    report.fail("*", f"{cell}: report shows {shown}, expected {expected}")
    if len(stored) != CORPUS_CELLS:
        cold.fail("*", f"journals list {len(stored)} cells, expected {CORPUS_CELLS}")
    elif not cold.failed:  # groups need every cell
        means = {cell: trial_set.mean_broadcast_time() for cell, trial_set in stored.items()}
        for group, why in check_groups(means, bands).items():
            cold.fail(group, why)
    return {"cold": [cold], "warm": warms, "report": reports}, context, {}


CELLS_SWEEP = len(SWEEP_GRAPHS) * len(PROTOCOLS)
CHILD_WORKLOADS = {"kernel-sweep": run_kernel_sweep, "corpus-store": run_corpus_store}
#: Operations of the cold, warm and report legs: one per cell, one per report.
LEG_OPS = {
    "kernel-sweep": (CELLS_SWEEP, CELLS_SWEEP, 1),
    "corpus-store": (CORPUS_CELLS, CORPUS_CELLS, 1),
}


def _format(value) -> str:
    from repro.analysis.tables import format_float

    return format_float(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CHILD_WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import repro

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    marks: Dict[str, float] = {}
    refs: List[float] = []

    def ready() -> None:
        marks["setup_s"] = time.monotonic() - args.t0

    try:
        legs, context, per_cell = CHILD_WORKLOADS[args.workload](
            args.seed, tracer, args.workdir, ready, refs
        )
    except Exception:  # set-up failed (say, a GraphError): every operation fails
        marks.setdefault("setup_s", time.monotonic() - args.t0)
        legs, context, per_cell = {}, {}, {}
        for name, ops in zip(LEGS, LEG_OPS[args.workload]):
            legs[name] = [Leg(ops)]
            legs[name][0].fail("*", traceback.format_exc(limit=3))
    payload = {
        "repro": os.path.dirname(repro.__file__),
        "setup_s": marks["setup_s"],
        "reference": refs or [reference_sample()],
        "legs": {name: [leg.as_dict() for leg in legs[name]] for name in LEGS},
        "cells": context,
        "core_cells": per_cell,
    }
    args.out.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
