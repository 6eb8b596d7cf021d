"""Tests for the regular graph families (repro.graphs.regular)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.regular as regular_module
from repro.graphs import GraphError
from repro.graphs.regular import (
    circulant_graph,
    clique_cycle,
    clique_path,
    complete_graph,
    cycle_graph,
    hypercube,
    random_regular_graph,
    torus_grid,
)
from repro.store import graph_fingerprint


def count_attempts(monkeypatch):
    """Count calls of the pairing model's rejection attempt."""
    calls = {"n": 0}
    real_attempt = regular_module._configuration_model_attempt

    def counting_attempt(*args, **kwargs):
        calls["n"] += 1
        return real_attempt(*args, **kwargs)

    monkeypatch.setattr(regular_module, "_configuration_model_attempt", counting_attempt)
    return calls


class TestCompleteGraph:
    def test_counts(self):
        graph = complete_graph(10)
        assert graph.num_vertices == 10
        assert graph.num_edges == 45

    def test_regular(self):
        assert complete_graph(8).regularity_degree() == 7

    def test_rejects_single_vertex(self):
        with pytest.raises(GraphError):
            complete_graph(1)


class TestCycleGraph:
    def test_counts_and_degree(self):
        graph = cycle_graph(10)
        assert graph.num_vertices == 10
        assert graph.num_edges == 10
        assert graph.regularity_degree() == 2

    def test_connected(self):
        assert cycle_graph(17).is_connected()

    def test_rejects_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)


class TestCirculant:
    def test_degree_matches_offsets(self):
        graph = circulant_graph(20, [1, 2, 3])
        assert graph.regularity_degree() == 6

    def test_rejects_offset_zero(self):
        with pytest.raises(GraphError):
            circulant_graph(10, [0])

    def test_connected_for_offset_one(self):
        assert circulant_graph(15, [1, 4]).is_connected()


class TestHypercube:
    def test_counts(self):
        graph = hypercube(4)
        assert graph.num_vertices == 16
        assert graph.num_edges == 32

    def test_regular_with_dimension_degree(self):
        assert hypercube(6).regularity_degree() == 6

    def test_bipartite(self):
        assert hypercube(3).is_bipartite()

    def test_neighbors_differ_in_one_bit(self):
        graph = hypercube(4)
        for u in range(graph.num_vertices):
            for v in graph.neighbors(u):
                assert bin(u ^ int(v)).count("1") == 1

    def test_rejects_dimension_zero(self):
        with pytest.raises(GraphError):
            hypercube(0)


class TestTorus:
    def test_counts_and_regularity(self):
        graph = torus_grid(4, 5)
        assert graph.num_vertices == 20
        assert graph.regularity_degree() == 4

    def test_connected(self):
        assert torus_grid(3, 3).is_connected()

    def test_rejects_small_dimensions(self):
        with pytest.raises(GraphError):
            torus_grid(2, 5)


class TestRandomRegular:
    def test_is_regular_and_connected(self, rng):
        graph = random_regular_graph(60, 6, rng)
        assert graph.regularity_degree() == 6
        assert graph.is_connected()

    def test_simple_no_duplicate_edges(self, rng):
        graph = random_regular_graph(40, 8, rng)
        edges = list(graph.edges())
        assert len(edges) == len(set(edges)) == 40 * 8 // 2

    def test_odd_product_rejected(self, rng):
        with pytest.raises(GraphError):
            random_regular_graph(7, 3, rng)

    def test_degree_too_large_rejected(self, rng):
        with pytest.raises(GraphError):
            random_regular_graph(6, 6, rng)

    def test_degree_zero_rejected(self, rng):
        with pytest.raises(GraphError):
            random_regular_graph(6, 0, rng)

    def test_different_seeds_give_different_graphs(self):
        a = random_regular_graph(30, 4, np.random.default_rng(1))
        b = random_regular_graph(30, 4, np.random.default_rng(2))
        assert sorted(a.edges()) != sorted(b.edges())

    def test_same_seed_reproducible(self):
        a = random_regular_graph(30, 4, np.random.default_rng(5))
        b = random_regular_graph(30, 4, np.random.default_rng(5))
        assert sorted(a.edges()) == sorted(b.edges())

    @pytest.mark.parametrize("degree", [6, 7, 12, 30])
    def test_degree_six_and_up_goes_straight_to_repair(self, monkeypatch, degree):
        calls = count_attempts(monkeypatch)
        graph = random_regular_graph(64, degree, np.random.default_rng(0))
        assert calls["n"] == 0
        assert graph.regularity_degree() == degree

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_degree_five_and_below_tries_rejection(self, monkeypatch, degree):
        calls = count_attempts(monkeypatch)
        graph = random_regular_graph(64, degree, np.random.default_rng(0))
        assert calls["n"] >= 1
        assert graph.regularity_degree() == degree

    @pytest.mark.parametrize(
        "n, degree, seed, fingerprint",
        [
            (30, 4, 5, "2a4b26c87e77c17365ce87a97d2153725dd430c5dfb6e1115ead7acc0552deda"),
            (16, 4, 0, "f4c0675b346d5bed7704bffdccf387f729c7e1baaa9d860a46290fd2849bdd7f"),
        ],
    )
    def test_low_degree_samples_match_builder_version_one(self, n, degree, seed, fingerprint):
        # Recorded under builder version 1: d <= 5 keeps the same rejection
        # loop, so its samples (and every key derived from them) are unchanged.
        graph = random_regular_graph(n, degree, np.random.default_rng(seed))
        assert graph_fingerprint(graph) == fingerprint

    @pytest.mark.parametrize("n", [20, 64, 514])
    @pytest.mark.parametrize("degree", [3, 4, 5, 6, 7, 8, 12])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_every_sample_is_simple_and_exactly_regular(self, n, degree, seed):
        graph = random_regular_graph(n, degree, np.random.default_rng(seed))
        assert graph.regularity_degree() == degree
        edges = list(graph.edges())
        assert len(edges) == len(set(edges)) == n * degree // 2
        assert all(u != v for u, v in edges)


class TestCliquePathAndCycle:
    def test_clique_path_counts(self):
        graph = clique_path(4, 5)
        assert graph.num_vertices == 20
        # 4 cliques of C(5,2)=10 edges plus 3 matchings of 5 edges.
        assert graph.num_edges == 4 * 10 + 3 * 5

    def test_clique_path_end_degrees(self):
        graph = clique_path(3, 4)
        assert graph.degree(0) == 4  # 3 clique edges + 1 matching edge
        assert graph.degree(4) == 5  # interior clique vertex

    def test_clique_cycle_is_regular(self):
        graph = clique_cycle(5, 4)
        assert graph.regularity_degree() == 5
        assert graph.is_connected()

    def test_clique_cycle_counts(self):
        graph = clique_cycle(3, 4)
        assert graph.num_vertices == 12
        assert graph.num_edges == 3 * 6 + 3 * 4

    def test_clique_path_rejects_single_clique(self):
        with pytest.raises(GraphError):
            clique_path(1, 4)

    def test_clique_cycle_rejects_two_cliques(self):
        with pytest.raises(GraphError):
            clique_cycle(2, 4)
