"""Tests for the experiment runner (repro.experiments.runner)."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.runner import (
    run_experiment,
    run_trial_set,
)
from repro.graphs import complete_graph, star
from repro.store import ResultStore


def star_builder(size, seed):
    return GraphCase(graph=star(size), source=0, size_parameter=size)


def complete_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


TOY_CONFIG = ExperimentConfig(
    experiment_id="toy-complete",
    title="Toy complete-graph experiment",
    paper_reference="none",
    description="fast experiment used by the unit tests",
    graph_builder=complete_builder,
    sizes=(8, 16, 32),
    protocols=(ProtocolSpec("push"), ProtocolSpec("push-pull")),
    trials=3,
)


class TestRunTrialSet:
    def test_runs_requested_number_of_trials(self):
        case = star_builder(10, 0)
        trials = run_trial_set(ProtocolSpec("push"), case, trials=4, base_seed=1)
        assert len(trials) == 4
        assert trials.completion_rate == 1.0

    def test_protocol_kwargs_forwarded(self):
        case = complete_builder(12, 0)
        trials = run_trial_set(
            ProtocolSpec("visit-exchange", kwargs={"agent_density": 2.0}),
            case,
            trials=1,
            base_seed=1,
        )
        assert trials.results[0].num_agents == 24

    def test_max_rounds_enforced(self):
        case = star_builder(50, 0)
        trials = run_trial_set(ProtocolSpec("push"), case, trials=2, base_seed=1, max_rounds=1)
        assert trials.completion_rate == 0.0

    def test_reproducible_given_base_seed(self):
        case = star_builder(20, 0)
        a = run_trial_set(ProtocolSpec("push"), case, trials=3, base_seed=7)
        b = run_trial_set(ProtocolSpec("push"), case, trials=3, base_seed=7)
        assert a.broadcast_times() == b.broadcast_times()

    def test_trials_differ_within_a_set(self):
        case = star_builder(40, 0)
        trials = run_trial_set(ProtocolSpec("push"), case, trials=5, base_seed=3)
        assert len(set(trials.broadcast_times())) > 1

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_trial_set(ProtocolSpec("push"), star_builder(5, 0), trials=0, base_seed=0)


class TestRunExperiment:
    def test_produces_cell_per_size_and_protocol(self):
        result = run_experiment(TOY_CONFIG, base_seed=0)
        assert len(result.cells) == 3 * 2
        assert set(result.protocol_labels()) == {"push", "push-pull"}

    def test_series_sorted_by_size(self):
        result = run_experiment(TOY_CONFIG, base_seed=0)
        sizes, means = result.series("push")
        assert sizes == sorted(sizes)
        assert len(sizes) == len(means) == 3
        assert all(m > 0 for m in means)

    def test_size_and_trial_overrides(self):
        result = run_experiment(TOY_CONFIG, base_seed=0, sizes=(8,), trials=1)
        assert len(result.cells) == 2
        assert all(len(cell.trials) == 1 for cell in result.cells)

    def test_growth_exponent_available(self):
        result = run_experiment(TOY_CONFIG, base_seed=0)
        exponent = result.growth_exponent("push")
        assert exponent is not None
        # Push on the complete graph is logarithmic: exponent well below 1.
        assert exponent < 0.6

    def test_best_fit_returns_growth_model(self):
        result = run_experiment(TOY_CONFIG, base_seed=0)
        fit = result.best_fit("push", candidates=["log n", "n"])
        assert fit is not None
        assert fit.growth in ("log n", "n")

    def test_table_rows_structure(self):
        result = run_experiment(TOY_CONFIG, base_seed=0, sizes=(8,), trials=1)
        rows = result.table_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["experiment"] == "toy-complete"
            assert row["n"] == 8
            assert row["mean"] is not None

    def test_cells_for_unknown_protocol_empty(self):
        result = run_experiment(TOY_CONFIG, base_seed=0, sizes=(8,), trials=1)
        assert result.cells_for("nonexistent") == []

    def test_reproducibility_of_whole_experiment(self):
        a = run_experiment(TOY_CONFIG, base_seed=5, sizes=(8, 16), trials=2)
        b = run_experiment(TOY_CONFIG, base_seed=5, sizes=(8, 16), trials=2)
        assert [c.mean_time for c in a.cells] == [c.mean_time for c in b.cells]

    def test_cold_store_run_reads_each_cell_once(self, tmp_path, monkeypatch):
        reads = []
        real_get = ResultStore.get_trial_set

        def counting_get(self, key):
            reads.append(key)
            return real_get(self, key)

        monkeypatch.setattr(ResultStore, "get_trial_set", counting_get)
        store = ResultStore(tmp_path / "store")
        cold = run_experiment(TOY_CONFIG, base_seed=4, store=store)
        assert len(reads) == len(set(reads)) == len(cold.cells) == 6
        reads.clear()
        warm = run_experiment(TOY_CONFIG, base_seed=4, store=store)
        assert len(reads) == 6
        assert [c.trials for c in warm.cells] == [c.trials for c in cold.cells]


class TestParallelCellScheduler:
    def test_workers_match_serial_results(self):
        serial = run_experiment(TOY_CONFIG, base_seed=3, sizes=(8, 16), trials=2)
        parallel = run_experiment(TOY_CONFIG, base_seed=3, sizes=(8, 16), trials=2, workers=2)
        assert [c.protocol_label for c in serial.cells] == [
            c.protocol_label for c in parallel.cells
        ]
        assert [c.size_parameter for c in serial.cells] == [
            c.size_parameter for c in parallel.cells
        ]
        # Seeds are derived per cell from stable components, so sharding the
        # cells across processes must not change a single trial.
        serial_times = [sorted(c.trials.broadcast_times()) for c in serial.cells]
        parallel_times = [sorted(c.trials.broadcast_times()) for c in parallel.cells]
        assert serial_times == parallel_times

    def test_negative_workers_resolve_to_cpu_count(self):
        from repro.experiments.runner import resolve_workers

        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1


class TestCellResult:
    def test_as_row_handles_missing_summary(self):
        result = run_experiment(TOY_CONFIG, base_seed=0, sizes=(8,), trials=1)
        cell = result.cells[0]
        row = cell.as_row()
        assert row["protocol"] in ("push", "push-pull")
        assert row["completed"] == 1
