"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import importlib

import pytest

from repro.cli.main import build_parser, main
from repro.graphs import Graph
from repro.store import ResultStore
from repro.telemetry import TRACE_ENV_VAR

# ``repro.cli`` re-exports ``main``, which shadows the submodule attribute.
cli_main = importlib.import_module("repro.cli.main")


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses_options(self):
        args = build_parser().parse_args(
            ["run", "fig1a-star", "--seed", "3", "--trials", "2", "--scale", "0.5"]
        )
        assert args.experiment_id == "fig1a-star"
        assert args.seed == 3
        assert args.trials == 2
        assert args.scale == 0.5

    def test_simulate_command_parses(self):
        args = build_parser().parse_args(["simulate", "push", "star", "100", "--source", "2"])
        assert args.protocol == "push"
        assert args.family == "star"
        assert args.size == 100

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_store_flags_parse(self):
        args = build_parser().parse_args(["run", "fig1a-star", "--store", "/tmp/s", "--force"])
        assert args.store == "/tmp/s"
        assert args.force
        bare = build_parser().parse_args(["run", "fig1a-star", "--store"])
        assert bare.store == ""
        off = build_parser().parse_args(["run", "fig1a-star", "--no-store"])
        assert off.no_store

    def test_store_subcommand_parses(self):
        args = build_parser().parse_args(["store", "--store", "/tmp/s", "ls"])
        assert args.command == "store"
        assert args.store_command == "ls"
        assert args.store_path == "/tmp/s"
        gc = build_parser().parse_args(["store", "gc", "--keep-days", "2", "--dry-run"])
        assert gc.keep_days == 2.0
        assert gc.dry_run
        assert gc.max_bytes is None

    def test_store_serve_and_url_flags_parse(self):
        args = build_parser().parse_args(
            ["store", "--store", "http://hub:8080", "serve", "--host", "0.0.0.0", "--port", "9999"]
        )
        assert args.store_command == "serve"
        assert args.store_path == "http://hub:8080"
        assert (args.host, args.port) == ("0.0.0.0", 9999)
        gc = build_parser().parse_args(["store", "gc", "--max-bytes", "500M"])
        assert gc.max_bytes == 500 * 1024**2

    def test_parse_byte_size(self):
        from repro.cli.main import parse_byte_size

        assert parse_byte_size("1234") == 1234
        assert parse_byte_size("4K") == 4096
        assert parse_byte_size("1.5m") == int(1.5 * 1024**2)
        assert parse_byte_size("2G") == 2 * 1024**3
        with pytest.raises(Exception):
            parse_byte_size("lots")
        with pytest.raises(Exception):
            parse_byte_size("-1")
        with pytest.raises(Exception):
            parse_byte_size("inf")  # OverflowError must not escape argparse

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "gossip-9000", "star", "10"])


class TestCommands:
    def test_list_outputs_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig1a-star" in output
        assert "thm1-regular-random" in output

    def test_simulate_star(self, capsys):
        assert main(["simulate", "push-pull", "star", "30", "--source", "1"]) == 0
        output = capsys.readouterr().out
        assert "broadcast time" in output

    def test_simulate_visit_exchange_reports_agents(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "visit-exchange",
                    "double-star",
                    "40",
                    "--source",
                    "2",
                    "--agent-density",
                    "2.0",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "agents = 80" in output

    def test_simulate_every_family_builds(self, capsys):
        families_and_sizes = [
            ("star", "20"),
            ("double-star", "20"),
            ("heavy-binary-tree", "15"),
            ("siamese-heavy-tree", "15"),
            ("cycle-stars-cliques", "3"),
            ("complete", "12"),
            ("hypercube", "4"),
            ("random-regular", "16"),
        ]
        for family, size in families_and_sizes:
            assert main(["simulate", "push-pull", family, size]) == 0

    def test_run_scaled_experiment(self, capsys):
        assert main(["run", "fig1a-star", "--scale", "0.1", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "Star graph" in output

    def test_run_with_store_then_store_ls_and_info(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        run_args = ["run", "fig1a-star", "--scale", "0.1", "--trials", "1", "--store", store_path]
        assert main(run_args) == 0
        first = capsys.readouterr().out
        assert main(run_args) == 0  # warm rerun: pure cache hits
        second = capsys.readouterr().out
        assert first == second

        assert main(["store", "--store", store_path, "ls"]) == 0
        listing = capsys.readouterr().out
        assert "push-pull" in listing

        key_prefix = listing.splitlines()[3].split()[0]
        assert main(["store", "--store", store_path, "info", key_prefix]) == 0
        info = capsys.readouterr().out
        assert '"fingerprint"' in info

    def test_store_gc_and_export_commands(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        run_args = ["run", "fig1a-star", "--scale", "0.1", "--trials", "1", "--store", store_path]
        assert main(run_args) == 0
        capsys.readouterr()
        destination = str(tmp_path / "copy")
        assert main(["store", "--store", store_path, "export", destination]) == 0
        assert "exported" in capsys.readouterr().out
        assert main(["store", "--store", destination, "gc", "--all"]) == 0
        assert "deleted" in capsys.readouterr().out

    def test_store_gc_max_bytes_command(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        run_args = ["run", "fig1a-star", "--scale", "0.1", "--trials", "1", "--store", store_path]
        assert main(run_args) == 0
        capsys.readouterr()
        # The sweep's cells are journal-referenced, so the LRU budget keeps
        # them pinned even at a zero-byte budget.
        assert main(["store", "--store", store_path, "gc", "--max-bytes", "0"]) == 0
        assert "deleted 0 object(s)" in capsys.readouterr().out
        assert main(["store", "--store", store_path, "gc", "--max-bytes", "0", "--all"]) == 0
        out = capsys.readouterr().out
        assert "deleted" in out and "deleted 0" not in out

    def test_store_serve_rejects_url_roots(self, capsys):
        assert main(["store", "--store", "http://127.0.0.1:1", "serve"]) == 2
        assert "local store root" in capsys.readouterr().err

    def test_store_info_unknown_key_fails(self, capsys, tmp_path):
        assert main(["store", "--store", str(tmp_path / "s"), "info", "feed"]) == 1

    def test_report_from_store_conflicts_with_no_store(self, capsys):
        assert main(["report", "--from-store", "--no-store"]) == 2
        assert "--no-store" in capsys.readouterr().err

    def test_run_markdown_mode(self, capsys):
        assert (
            main(["run", "fig1b-double-star", "--scale", "0.1", "--trials", "1", "--markdown"])
            == 0
        )
        output = capsys.readouterr().out
        assert output.startswith("### `fig1b-double-star`")

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "unknown-experiment"])


def simulate(capsys, *args):
    """Run ``repro simulate`` and return its stdout."""
    assert main(["simulate", *args]) == 0
    return capsys.readouterr().out


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a warm simulate must not build its graph")


class TestSimulateWarmPath:
    REGULAR = ["push-pull", "random-regular", "64", "--trials", "3", "--seed", "2"]

    def test_warm_rerun_builds_no_graph(self, capsys, tmp_path, monkeypatch):
        args = [*self.REGULAR, "--store", str(tmp_path / "store")]
        cold = simulate(capsys, *args)
        assert "store: computed" in cold
        monkeypatch.setattr(cli_main, "random_regular_graph", refuse_to_build)
        before = Graph.construction_count
        warm = simulate(capsys, *args)
        assert Graph.construction_count == before
        assert warm == cold.replace("store: computed", "store: cached")

    def test_verify_manifest_rebuilds_and_passes(self, capsys, tmp_path, monkeypatch):
        args = [*self.REGULAR, "--store", str(tmp_path / "store")]
        cold = simulate(capsys, *args)
        monkeypatch.setenv("REPRO_VERIFY_MANIFEST", "1")
        before = Graph.construction_count
        warm = simulate(capsys, *args)
        assert Graph.construction_count > before
        assert warm == cold.replace("store: computed", "store: cached")

    def test_source_or_family_change_computes_a_new_cell(self, capsys, tmp_path):
        store = ["--trials", "2", "--seed", "1", "--store", str(tmp_path / "store")]
        runs = [
            ["push", "star", "64", *store],
            ["push", "star", "64", "--source", "3", *store],
            ["push", "double-star", "64", *store],
        ]
        outputs = [simulate(capsys, *args) for args in runs]
        assert all("store: computed" in out for out in outputs)
        assert "from source 3" in outputs[1]
        assert len(set(ResultStore(tmp_path / "store").keys())) == 3
        # Each one is still warm after the others rewrote the shared journal.
        for args, cold in zip(runs, outputs):
            assert simulate(capsys, *args) == cold.replace("store: computed", "store: cached")

    def test_deterministic_family_key_is_pinned(self, capsys, tmp_path):
        args = ["push", "star", "256", "--trials", "4", "--seed", "1"]
        out = simulate(capsys, *args, "--store", str(tmp_path / "store"))
        key = "2dc4ef2016f1949e88535b1e5b4de3a937458b2ac3893658a3c7f46b60e513f4"
        assert f"store: computed (cell {key[:16]})" in out
        assert list(ResultStore(tmp_path / "store").keys()) == [key]

    def test_trace_shows_one_build_cold_and_none_warm(self, capsys, tmp_path, monkeypatch):
        args = [*self.REGULAR, "--store", str(tmp_path / "store")]
        for leg in ("cold", "warm"):
            monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path / leg))
            simulate(capsys, *args)
        monkeypatch.delenv(TRACE_ENV_VAR)

        def spans(leg):
            assert main(["trace", "summary", str(tmp_path / leg)]) == 0
            rows = capsys.readouterr().out.splitlines()[2:]
            return {row.split()[0]: int(row.split()[1]) for row in rows}

        assert spans("cold")["graph.build"] == 1
        assert "graph.build" not in spans("warm")
