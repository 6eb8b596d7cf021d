"""The repo benchmark: one workload, measured for a fixed time, checked.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cli-cell --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's set-up and its three legs (cold, warm,
report; see ``README.md``) in fresh child processes, reaped with
``os.wait4`` so that peak RSS belongs to that repetition alone.  Repetitions
continue until ``--seconds`` would be exceeded (at least two), and every
timing is the median over all samples of its leg in all repetitions, scaled
to a host of nominal speed by the reference samples taken between legs
(``workloads.reference_sample``).  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of the median traced
repetition plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and run context.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as w  # noqa: E402

#: Longest a single child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in print order."""
    names = [f"{leg}.{name}" for leg in w.LEGS for name in tr.LEG_METRICS]
    names += [
        f"core.{graph}.{protocol}_s" for graph in w.SWEEP_GRAPHS for protocol in w.PROTOCOLS
    ]
    return names + ["trace.overhead", "failed_ratio"]


class BenchmarkError(Exception):
    """The checkout cannot run the benchmark at all (no result is printed)."""


class Reaped:
    """A finished child: exit code, wall seconds, peak RSS and its output."""

    def __init__(self, code: int, wall: float, rss_mb: float, output: str) -> None:
        self.code, self.wall, self.rss_mb, self.output = code, wall, rss_mb, output
        self.layers: Optional[Dict[str, float]] = None


def run_child(make_argv: Callable[[float], List[str]], log: Path) -> Reaped:
    """Run one child to its end; ``make_argv`` receives the spawn time."""
    lock = threading.Lock()
    reaped = []

    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            make_argv(t0), stdout=out, stderr=subprocess.STDOUT, env=w.child_env(), cwd=ROOT
        )

    def kill() -> None:
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        with lock:
            reaped.append(True)
    except BaseException:
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                reaped.append(True)
        raise
    finally:
        timer.cancel()
        proc.returncode = -1  # reaped above; keeps Popen from waiting again
    code = os.waitstatus_to_exitcode(status)
    return Reaped(code, wall, usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


# --- one repetition ----------------------------------------------------------
def rep_cli_cell(seed: int, traced: bool, work: Path) -> Dict[str, Any]:
    py = sys.executable
    store = work / "store"
    setup = run_child(
        lambda t0: [py, "-c", "import repro, repro.cli.main; print(repro.__file__)"],
        work / "setup.log",
    )
    if setup.code != 0 or Path(setup.output.strip()).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"repro does not import from {SRC}:\n{setup.output}")
    store.mkdir()
    setup_s = setup.wall

    def repro(name: str, args: List[str]) -> Reaped:
        spans = work / f"{name}.spans.json"
        prefix = [py, str(HERE / "tracer.py"), str(spans)] if traced else [py, "-m", "repro"]
        child = run_child(lambda t0: prefix + args, work / f"{name}.log")
        child.layers = (
            tr.leg_metrics(tr.load(str(spans)), child.wall)
            if traced and spans.exists()
            else None
        )
        return child

    legs = {name: w.Leg(1) for name in w.LEGS}
    refs = [w.reference_sample()]
    cold = repro("cold", w.cli_simulate_args(seed, str(store)))
    refs.append(w.reference_sample())
    warm = repro("warm", w.cli_simulate_args(seed, str(store)))
    refs.append(w.reference_sample())
    first = w.parse_simulate(cold.output) if cold.code == 0 else None
    second = w.parse_simulate(warm.output) if warm.code == 0 else None
    key = first["key"] if first else "0"
    report = repro("report", ["store", "--store", str(store), "info", key])
    refs.append(w.reference_sample())

    bands = w.load_bands()
    if first is None:
        legs["cold"].fail(w.CLI_CELL, f"simulate failed (exit {cold.code}):\n{cold.output[-800:]}")
    elif first["status"] != "computed" or first["completed"] != w.CLI_TRIALS:
        legs["cold"].fail(w.CLI_CELL, f"cold leg: {first}")
    else:
        low, high = bands[w.CLI_CELL]
        if not low <= float(first["mean"]) <= high:
            legs["cold"].fail(w.CLI_CELL, f"mean {first['mean']} outside [{low:.3f}, {high:.3f}]")
    if second is None or first is None:
        legs["warm"].fail(w.CLI_CELL, f"warm leg (exit {warm.code}):\n{warm.output[-800:]}")
    elif second != dict(first, status="cached"):
        legs["warm"].fail(w.CLI_CELL, f"warm leg {second} differs from cold leg {first}")
    cells = {}
    try:
        sidecar = json.loads(report.output)
        cell = sidecar["cell"]
        if not (
            report.code == 0
            and first is not None
            and sidecar["key"].startswith(first["key"])
            and cell["trials"] == w.CLI_TRIALS
            and cell["protocol"]["name"] == "push-pull"
            and cell["graph"]["num_vertices"] == w.CLI_SIZE
        ):
            raise ValueError("sidecar does not describe the simulated cell")
        meta = sidecar["results"][0]["metadata"]
        cells[w.CLI_CELL] = f"{meta.get('backend')}/{meta.get('frontier')}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        legs["report"].fail(w.CLI_CELL, f"store info: {exc}:\n{report.output[-800:]}")
    for name, child in (("cold", cold), ("warm", warm), ("report", report)):
        legs[name].wall = child.wall
        legs[name].layers = child.layers
    return {
        "setup_s": setup_s,
        "reference": refs,
        "legs": {name: [leg.as_dict()] for name, leg in legs.items()},
        "rss_mb": max(cold.rss_mb, warm.rss_mb, report.rss_mb),
        "cells": cells,
        "core_cells": {},
    }


def rep_in_process(workload: str, seed: int, traced: bool, work: Path) -> Dict[str, Any]:
    out = work / "result.json"
    child = run_child(
        lambda t0: [
            sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), "--t0", repr(t0),
            "--workdir", str(work), "--out", str(out),
        ],
        work / "child.log",
    )
    if child.code != 0 or not out.exists():
        raise BenchmarkError(
            f"{workload} child failed (exit {child.code}):\n{child.output[-2000:]}"
        )
    result = json.loads(out.read_text(encoding="utf-8"))
    if Path(result.pop("repro")).resolve() != SRC / "repro":
        raise BenchmarkError(f"repro does not import from {SRC}")
    result["rss_mb"] = child.rss_mb
    return result


def run_rep(workload: str, seed: int, traced: bool, run_dir: Path) -> Dict[str, Any]:
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=run_dir))
    try:
        if workload == "cli-cell":
            rep = rep_cli_cell(seed, traced, work)
        else:
            rep = rep_in_process(workload, seed, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rep["traced"] = traced
    rep["total_s"] = sum(s["wall"] for samples in rep["legs"].values() for s in samples)
    return rep


# --- the run -------------------------------------------------------------------
def context(args: argparse.Namespace, reps: List[Dict[str, Any]], load_start) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "reference_s": [x for r in reps for x in r["reference"]],
        "scale": host_scale(reps),
        "reps": [
            {
                "traced": r["traced"],
                "setup_s": r["setup_s"],
                "rss_mb": r["rss_mb"],
                **{f"{leg}_s": [s["wall"] for s in r["legs"][leg]] for leg in w.LEGS},
            }
            for r in reps
        ],
        "cells": reps[0]["cells"],
    }


def measure(args: argparse.Namespace, run_dir: Path) -> List[Dict[str, Any]]:
    """Repetitions until the next would pass ``--seconds``: at least 2 untraced,
    or at least one untraced/traced pair with ``--trace 1``.  Two is the most
    that keeps a ``kernel-sweep`` run (about 15 s a repetition) near 40 s."""
    group = 2 if args.trace else 1
    min_reps = 2
    reps: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args.workload, args.seed, traced, run_dir))
        if len(reps) >= min_reps and len(reps) % group == 0:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(reps) * group > args.seconds:
                return reps


def host_scale(reps: List[Dict[str, Any]]) -> float:
    """Nominal ÷ median reference sample of the run: the factor that turns
    this run's wall seconds into seconds on a host of nominal speed."""
    samples = [x for r in reps for x in r["reference"]]
    return w.REFERENCE_NOMINAL_S / statistics.median(samples)


def summarize(args: argparse.Namespace, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    samples = [s for r in reps for leg in r["legs"].values() for s in leg]
    attempted = sum(s["ops"] for s in samples)
    failed = sum(
        s["ops"] if "*" in s["failed"] else min(s["ops"], len(s["failed"])) for s in samples
    )

    scale = host_scale(reps)

    def median_wall(leg: str) -> float:
        return scale * statistics.median(s["wall"] for r in reps for s in r["legs"][leg])

    metrics: Dict[str, Any] = {}
    if not args.trace:
        values = {
            "setup_s": scale * statistics.median(r["setup_s"] for r in reps),
            "cold_s": median_wall("cold"),
            "warm_s": median_wall("warm"),
            "report_s": median_wall("report"),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["total_s"])
        plain = [r["total_s"] for r in reps if not r["traced"]]
        middle = traced[(len(traced) - 1) // 2]
        units = {name: unit_of(name) for name in per_layer_names()}
        values = {name: 0.0 for name in units}
        for leg in w.LEGS:
            for name, value in (middle["legs"][leg][0]["layers"] or {}).items():
                values[f"{leg}.{name}"] = value
        values.update(middle["core_cells"])
        for name, unit in units.items():  # host-speed scaling, as for --trace 0
            if unit in ("s", "ms"):
                values[name] *= scale
            elif unit == "1/s":
                values[name] /= scale
        values["trace.overhead"] = (
            statistics.median(r["total_s"] for r in traced) / statistics.median(plain) - 1.0
        )
        values["failed_ratio"] = failed / attempted
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def failures(reps: List[Dict[str, Any]]) -> List[str]:
    lines = []
    for i, r in enumerate(reps):
        for leg, samples in r["legs"].items():
            for data in samples:
                for op, why in data["failed"].items():
                    lines.append(f"rep {i} {leg} {op}: {why}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("cli-cell", "kernel-sweep", "corpus-store"), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    load_start = list(os.getloadavg())
    try:
        reps = measure(args, run_dir)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in failures(reps)[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    result = summarize(args, reps)
    print(json.dumps({"context": context(args, reps, load_start)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
