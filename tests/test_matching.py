"""Greedy, maximal, and maximum-cardinality matching algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from maxqp import (
    InternalError,
    WeightedGraph,
    greedy_sorted_matching,
    maximal_matching,
    maximum_matching,
    stats,
)

from maxqp.matching import _make_matching

from util import (
    edge_list,
    max_matching_size,
    random_graph,
    reference_greedy_matching,
    reference_maximum_matching,
    sample_small,
    tutte_matching_size,
    unit_graphs,
)


def _check_disjoint(G, M):
    used = set()
    for u, v in M.edges:
        assert u < v
        assert v in G.adjacency[u]
        assert u not in used and v not in used
        used.add(u)
        used.add(v)
    for v in range(G.n):
        if M.matched[v] is None:
            assert v not in used
        else:
            assert (min(v, M.matched[v]), max(v, M.matched[v])) in M.edges


def _is_maximal(G, M):
    return all(M.matched[u] is not None or M.matched[v] is not None for u, v, _ in edge_list(G))


class TestMakeMatching:
    def test_pairs_sharing_a_vertex_raise(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(InternalError):
            _make_matching(G, [(0, 1), (1, 2)])

    def test_repeated_pair_raises(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(InternalError):
            _make_matching(G, [(0, 1), (1, 0)])


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
        assert len(M.edges) == 3
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
        assert len(M.edges) == 0 and M.total_abs_weight == 0.0

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
                WeightedGraph(G.n, [(u, v, w * (1 + rng.randrange(3))) for u, v, w in edge_list(G)])
            )
        for G in graphs:
            M = greedy_sorted_matching(G)
            assert (M.edges, M.total_abs_weight) == reference_greedy_matching(G)
            assert all(M.matched[M.matched[v]] == v for v in range(G.n) if M.matched[v] is not None)
            assert sum(x is not None for x in M.matched) == 2 * len(M.edges)


class TestMaximal:
    def test_path_takes_first_scanned_edge(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert maximal_matching(G).edges == ((0, 1),)

    def test_empty_graph(self):
        assert len(maximal_matching(WeightedGraph(2, [])).edges) == 0

    def test_maximality_on_random_graphs(self):
        for seed in range(50):
            G = random_graph(seed, 9, 3 + seed % 12)
            M = maximal_matching(G)
            _check_disjoint(G, M)
            assert _is_maximal(G, M)


class TestMaximum:
    def test_path_p4(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert len(maximum_matching(G).edges) == 2

    def test_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert len(maximum_matching(G).edges) == 1

    def test_odd_cycle_with_pendant_needs_blossom(self):
        # 5-cycle plus a pendant on vertex 0: maximum matching has 3 edges
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0), (0, 5, 1.0)]
        assert len(maximum_matching(WeightedGraph(6, edges)).edges) == 3

    @pytest.mark.parametrize("seed", range(60))
    def test_cardinality_matches_subset_dp_oracle(self, seed):
        n = 4 + seed % 8
        m = min(2 + seed % 14, n * (n - 1) // 2)
        G = random_graph(200 + seed, n, m)
        M = maximum_matching(G)
        _check_disjoint(G, M)
        assert len(M.edges) == max_matching_size(G)
        assert len(M.edges) >= len(maximal_matching(G).edges)


# Fixed graphs whose later searches contract blossoms (each labelling was
# picked by counting contractions or comparing pairs over random
# relabellings): n, edges, maximum matching size.
BLOSSOM_CASES = {
    # 5-cycle 0-2-5-1-4 with the pendant path 0-3-7-6: one contraction
    "five-cycle-pendant-path": (
        8,
        [(0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (3, 7), (6, 7)],
        4,
    ),
    # triangle 0-3-6 contracted first, then a blossom around its base
    "nested": (7, [(0, 1), (0, 3), (0, 6), (1, 4), (2, 5), (2, 6), (3, 6), (4, 5)], 3),
    # relabelling a blossom's vertices out of id order changes the pairs
    "relabel-order": (8, [(0, 1), (0, 6), (1, 2), (2, 4), (2, 7), (3, 4), (3, 5), (5, 6), (5, 7)], 4),
    "petersen": (
        10,
        [
            (0, 1), (0, 4), (0, 6), (1, 5), (1, 8), (2, 6), (2, 8), (2, 9),
            (3, 5), (3, 6), (3, 7), (4, 7), (4, 9), (5, 9), (7, 8),
        ],
        5,
    ),
}


class TestMaximumDifferential:
    """maximum_matching against the per-search-reset reference, pair for pair."""

    @pytest.mark.parametrize("name", sorted(BLOSSOM_CASES))
    def test_blossom_cases(self, name):
        n, edges, size = BLOSSOM_CASES[name]
        G = WeightedGraph(n, [(u, v, 1.0) for u, v in edges])
        M = maximum_matching(G)
        _check_disjoint(G, M)
        assert M.edges == reference_maximum_matching(G)
        assert len(M.edges) == max_matching_size(G) == size

    @settings(max_examples=150, deadline=None)
    @given(G=unit_graphs())
    def test_same_pairs_as_reference(self, G):
        M = maximum_matching(G)
        _check_disjoint(G, M)
        assert M.edges == reference_maximum_matching(G)
        assert len(M.edges) == tutte_matching_size(G)
        if G.n <= 12:
            assert len(M.edges) == max_matching_size(G)

    def test_same_pairs_as_reference_on_random_graphs(self):
        # several blossoms per search, over sparse through dense graphs
        for seed in range(300):
            n = 10 + seed % 51
            pairs = n * (n - 1) // 2
            G = random_graph(5000 + seed, n, [n, 2 * n, pairs // 3, pairs][seed % 4])
            assert maximum_matching(G).edges == reference_maximum_matching(G)
