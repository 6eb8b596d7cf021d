"""Build ``bands.json``: the tolerance band of every checked cell and group.

A band is derived from the spread of a cell's mean broadcast time across
seeds, not from one golden run, so a change that legitimately re-samples a
random graph (say, a new attempt budget in ``random_regular_graph``) stays
inside it while a change to a protocol's semantics does not::

    python perfbench/calibrate.py

Bands live in log space, since broadcast times are skewed and positive:
``exp(m +- max(k * s, FLOOR))``, where ``m`` and ``s`` are the mean and
standard deviation of the log of the per-seed value over
``CALIBRATION_SEEDS``.  The values are every cell mean (``k = CELL_SDS``)
and every group's geometric mean (``workloads.group_means``,
``k = GROUP_SDS``).  The script then replays
``HOLDOUT_SEEDS``, the small seeds a benchmark run is usually given, and
writes nothing if any of their values falls outside its band.  First it
builds every corpus graph kind at every size for ``CONNECTIVITY_SEEDS``
seeds and exits non-zero if any instance is disconnected.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import workloads as w

CALIBRATION_SEEDS = range(10_000, 10_040)
HOLDOUT_SEEDS = range(0, 40)
CONNECTIVITY_SEEDS = 300
#: Half-width of a band in standard deviations of the log values.  A cell
#: mean over 4 or 8 trials has heavier tails than a group's geometric mean
#: over many cells, hence the wider cell bands.  FLOOR is the least
#: half-width (a factor of about 1.05), for values that barely vary.
CELL_SDS = 7.0
GROUP_SDS = 6.0
FLOOR = 0.05


def cli_mean(seed: int, scratch: Path) -> float:
    store = scratch / f"cli-{seed}"
    out = subprocess.run(
        [sys.executable, "-m", "repro"] + w.cli_simulate_args(seed, str(store)),
        env=w.child_env(), capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    parsed = w.parse_simulate(out)
    if parsed is None or parsed["completed"] != w.CLI_TRIALS:
        raise SystemExit(f"seed {seed}: unexpected simulate output:\n{out}")
    return float(parsed["mean"])


def corpus_means(seed: int, scratch: Path):
    from repro.scenarios.corpus import run_corpus

    directory = Path(tempfile.mkdtemp(dir=scratch))
    manifest = w.write_manifest(directory)
    run_corpus(manifest, store=directory / "store", base_seed=seed)
    stored = w.stored_cells(directory / "store", w.journal_runs(directory / "store"))
    means = {}
    for cell, trial_set in stored.items():
        if not all(r.completed for r in trial_set.results):
            raise SystemExit(f"seed {seed}: {cell} has an incomplete trial")
        means[cell] = trial_set.mean_broadcast_time()
    shutil.rmtree(directory)
    return means


def sweep_means(seed: int):
    results = w.sweep_pass(w.sweep_setup(seed), seed)
    means = {}
    for cell, result in w.sweep_cells(results).items():
        if result.completion_rate != 1.0:
            raise SystemExit(f"seed {seed}: {cell} has an incomplete trial")
        means[cell] = result.mean_time
    return means


def seed_values(seed: int, scratch: Path) -> Dict[str, float]:
    """Every checked value of one seed: cell means and group geometric means."""
    means = {w.CLI_CELL: cli_mean(seed, scratch)}
    means.update(sweep_means(seed))
    means.update(corpus_means(seed, scratch))
    means.update(w.group_means(means))
    print(f"seed {seed}: {len(means)} values", flush=True)
    return means


def make_bands(per_seed: List[Dict[str, float]]):
    bands, stats = {}, {}
    for key in sorted(per_seed[0]):
        logs = [math.log(values[key]) for values in per_seed]
        m, s = statistics.fmean(logs), statistics.stdev(logs)
        half = max((GROUP_SDS if "*" in key else CELL_SDS) * s, FLOOR)
        bands[key] = [math.exp(m - half), math.exp(m + half)]
        stats[key] = {"geo_mean": math.exp(m), "log_sd": s, "min": math.exp(min(logs)),
                      "max": math.exp(max(logs))}
    return bands, stats


def outside(bands, per_seed: List[Dict[str, float]], seeds) -> List[str]:
    return [
        f"seed {seed}: {key} = {value} outside [{bands[key][0]:.3f}, {bands[key][1]:.3f}]"
        for seed, values in zip(seeds, per_seed)
        for key, value in values.items()
        if not bands[key][0] <= value <= bands[key][1]
    ]


def check_connectivity(scratch: Path) -> int:
    from repro.scenarios.corpus import load_corpus

    bad = 0
    for scenario in load_corpus(w.write_manifest(scratch)).scenarios:
        config = scenario.to_config()
        for size in w.CORPUS_SIZES:
            for seed in range(CONNECTIVITY_SEEDS):
                if not config.build_case(size, seed).graph.is_connected():
                    print(f"disconnected: {scenario.name} size {size} case seed {seed}")
                    bad += 1
        print(f"{scenario.name}: {len(w.CORPUS_SIZES) * CONNECTIVITY_SEEDS} instances checked",
              flush=True)
    return bad


def write_bands(calibration: List[Dict[str, float]], holdout: List[Dict[str, float]]) -> int:
    """Write ``bands.json`` from the calibration seeds' values, unless a
    holdout seed's value falls outside its band."""
    bands, stats = make_bands(calibration)
    misses = outside(bands, holdout, HOLDOUT_SEEDS)
    for line in misses:
        print(f"holdout {line}")
    if misses:
        return 1
    doc = {
        "rule": f"exp(m +- max(k sd, {FLOOR})) of the log per-seed values, "
        f"k = {CELL_SDS} for cells and {GROUP_SDS} for groups",
        "seeds": [CALIBRATION_SEEDS.start, CALIBRATION_SEEDS.stop - 1],
        "holdout": [HOLDOUT_SEEDS.start, HOLDOUT_SEEDS.stop - 1],
        "bands": bands,
        "stats": stats,
    }
    w.BANDS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(bands)} bands to {w.BANDS}")
    return 0


def main() -> int:
    sys.path.insert(0, str(w.ROOT / "src"))
    (w.ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=w.ROOT / ".perfbench"))
    try:
        if check_connectivity(scratch):
            return 1
        calibration = [seed_values(seed, scratch) for seed in CALIBRATION_SEEDS]
        holdout = [seed_values(seed, scratch) for seed in HOLDOUT_SEEDS]
    finally:
        shutil.rmtree(scratch)
    return write_bands(calibration, holdout)


if __name__ == "__main__":
    sys.exit(main())
