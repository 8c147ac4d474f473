"""Greedy, maximal, and maximum-cardinality matching algorithms."""

from __future__ import annotations

import pytest

from maxqp import (
    WeightedGraph,
    greedy_sorted_matching,
    maximal_matching,
    maximum_matching,
    stats,
)

from util import max_matching_size, random_graph, reference_greedy_matching, sample_small


def _check_disjoint(G, M):
    used = set()
    for u, v in M.edges:
        assert u < v
        assert G.has_edge(u, v)
        assert u not in used and v not in used
        used.add(u)
        used.add(v)
    for v in range(G.n):
        if M.matched[v] is None:
            assert v not in used
        else:
            assert (min(v, M.matched[v]), max(v, M.matched[v])) in M.edges


def _is_maximal(G, M):
    return all(M.matched[u] is not None or M.matched[v] is not None for u, v, _ in G.edges)


class TestGreedy:
    def test_triangle_takes_heaviest_edge_only(self):
        G = WeightedGraph(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)])
        M = greedy_sorted_matching(G)
        assert M.edges == ((0, 1),)
        assert M.total_abs_weight == 3.0
        assert M.total_abs_weight >= 6.0 / (2 * 2)

    def test_disjoint_edges_all_taken(self):
        G = WeightedGraph(6, [(0, 1, 1.0), (2, 3, -2.0), (4, 5, 3.0)])
        M = greedy_sorted_matching(G)
        assert len(M) == 3
        assert M.total_abs_weight == 6.0

    def test_equal_weights_break_ties_lexicographically(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert greedy_sorted_matching(G).edges == ((0, 1),)

    def test_weight_bound_on_random_bounded_degree_graphs(self):
        from maxqp import GeneratorSpec, generate

        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            G = generate(GeneratorSpec("d-regular", seed, {"n": 10, "degree": 4}))
            st = stats(G)
            M = greedy_sorted_matching(G)
            _check_disjoint(G, M)
            assert _is_maximal(G, M)
            assert M.total_abs_weight >= st.abs_weight / (2 * st.max_degree) - 1e-9
            checked += 1

    def test_empty_graph(self):
        M = greedy_sorted_matching(WeightedGraph(3, []))
        assert len(M) == 0 and M.total_abs_weight == 0.0

    def test_same_matching_as_three_key_sort(self):
        # few distinct weights tie often: the (u, v) tie rule must hold
        from maxqp import GeneratorSpec, SplitMix64, generate

        graphs = [sample_small(s) for s in range(200)]
        graphs += [random_graph(s, 3000, 6000, real=s % 2 == 1) for s in range(4)]
        graphs += [
            generate(GeneratorSpec("grid-spin-glass", s, {"rows": 20, "cols": 30}))
            for s in range(2)
        ]
        for s in range(4):
            rng = SplitMix64(s)
            G = random_graph(s, 3000, 6000)
            graphs.append(
                WeightedGraph(G.n, [(u, v, w * (1 + rng.randrange(3))) for u, v, w in G.edges])
            )
        for G in graphs:
            M = greedy_sorted_matching(G)
            assert (M.edges, M.total_abs_weight) == reference_greedy_matching(G)
            assert all(M.matched[M.matched[v]] == v for v in range(G.n) if M.matched[v] is not None)
            assert sum(x is not None for x in M.matched) == 2 * len(M)


class TestMaximal:
    def test_path_takes_first_scanned_edge(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert maximal_matching(G).edges == ((0, 1),)

    def test_empty_graph(self):
        assert len(maximal_matching(WeightedGraph(2, []))) == 0

    def test_maximality_on_random_graphs(self):
        for seed in range(50):
            G = random_graph(seed, 9, 3 + seed % 12)
            M = maximal_matching(G)
            _check_disjoint(G, M)
            assert _is_maximal(G, M)


class TestMaximum:
    def test_path_p4(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert len(maximum_matching(G)) == 2

    def test_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert len(maximum_matching(G)) == 1

    def test_odd_cycle_with_pendant_needs_blossom(self):
        # 5-cycle plus a pendant on vertex 0: maximum matching has 3 edges
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0), (0, 5, 1.0)]
        assert len(maximum_matching(WeightedGraph(6, edges))) == 3

    @pytest.mark.parametrize("seed", range(60))
    def test_cardinality_matches_subset_dp_oracle(self, seed):
        n = 4 + seed % 8
        m = min(2 + seed % 14, n * (n - 1) // 2)
        G = random_graph(200 + seed, n, m)
        M = maximum_matching(G)
        _check_disjoint(G, M)
        assert len(M) == max_matching_size(G)
        assert len(M) >= len(maximal_matching(G))
