"""Exhaustive oracle, subdivision construction, and instance generators."""

from __future__ import annotations

import pytest

from maxqp import (
    CapacityError,
    GeneratorSpec,
    SplitMix64,
    ValidationError,
    WeightedGraph,
    brute_force,
    evaluate,
    generate,
    subdivide_for_maxcut,
)
from maxqp.graph import degeneracy_order

from util import (
    GENERATOR_SPECS,
    assert_same_graph,
    brute_force_maxcut,
    exhaustive_opt,
    is_bipartite,
    random_graph,
)


class TestSplitMix64:
    def test_fixed_seed_reproduces_sequence(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_shuffle_is_a_permutation(self):
        xs = list(range(20))
        SplitMix64(7).shuffle(xs)
        assert sorted(xs) == list(range(20))
        assert xs != list(range(20))


class TestBruteForce:
    def test_single_negative_edge(self):
        assert brute_force(WeightedGraph(2, [(0, 1, -1.0)])).value == 1.0

    def test_bad_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
        assert brute_force(G).value == 1.0

    def test_negative_four_cycle(self):
        G = WeightedGraph(4, [(0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0), (0, 3, -1.0)])
        a = brute_force(G)
        assert a.value == 4.0
        assert a.values[0] != a.values[1]

    def test_matches_naive_enumeration(self):
        for seed in range(60):
            G = random_graph(seed, 3 + seed % 7, 2 + seed % 9, real=(seed % 2 == 0))
            a = brute_force(G)
            assert a.value == pytest.approx(exhaustive_opt(G), abs=1e-9)
            assert a.value == pytest.approx(evaluate(G, a.values), abs=1e-9)

    def test_tie_break_prefers_plus_one_prefix(self):
        # empty graph: every assignment ties at 0, the all-plus one wins
        a = brute_force(WeightedGraph(3, []))
        assert a.values == (1, 1, 1)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            brute_force(WeightedGraph(30, []), cap=28)


class TestSubdivision:
    def test_single_edge_becomes_signed_path(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        H = subdivide_for_maxcut(G)
        assert H.n == 3 and H.m == 2
        assert H.edges == [(0, 2, 1.0), (1, 2, -1.0)]

    def test_triangle_becomes_six_cycle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        H = subdivide_for_maxcut(G)
        assert H.n == 6 and H.m == 6
        assert all(H.degree(v) == 2 for v in range(6))

    def test_output_bipartite_and_two_degenerate(self):
        for seed in range(30):
            G = random_graph(seed, 4 + seed % 5, 3 + seed % 7)
            H = subdivide_for_maxcut(G)
            assert is_bipartite(H)
            d, _ = degeneracy_order(H)
            assert d <= 2

    def test_optimum_is_twice_the_maximum_cut(self):
        for seed in range(25):
            n = 4 + seed % 4
            m = min(3 + seed % 6, n * (n - 1) // 2)
            G = random_graph(seed, n, m)
            H = subdivide_for_maxcut(G)
            cut = brute_force_maxcut(G.n, [(u, v) for u, v, _ in G.edges])
            assert brute_force(H).value == 2 * cut


class TestGenerators:
    def test_grid_shape_and_determinism(self):
        spec = GeneratorSpec("grid-spin-glass", 7, {"rows": 2, "cols": 2})
        G1, G2 = generate(spec), generate(spec)
        assert G1.n == 4 and G1.m == 4
        assert G1.edges == G2.edges

    def test_sparse_random_counts(self):
        G = generate(GeneratorSpec("sparse-random", 3, {"n": 20, "m": 30}))
        assert G.n == 20 and G.m == 30 and G.unit

    def test_sparse_random_real_weights(self):
        G = generate(GeneratorSpec("sparse-random", 3, {"n": 10, "m": 15, "real": True}))
        assert not G.unit
        assert all(0 < abs(w) < 1 for _, _, w in G.edges)

    def test_d_regular_degrees(self):
        G = generate(GeneratorSpec("d-regular", 5, {"n": 6, "degree": 3}))
        assert all(G.degree(v) == 3 for v in range(6))

    def test_d_regular_rejects_odd_total(self):
        with pytest.raises(ValidationError):
            generate(GeneratorSpec("d-regular", 5, {"n": 5, "degree": 3}))

    def test_perfect_matching(self):
        G = generate(GeneratorSpec("perfect-matching", 1, {"n": 8}))
        assert G.m == 4
        assert all(G.degree(v) == 1 for v in range(8))

    def test_clique_plus_matching(self):
        G = generate(GeneratorSpec("clique-plus-matching", 1, {"n": 16}))
        assert G.m == 6 + 6  # K4 plus six disjoint edges
        assert max(G.degree(v) for v in range(16)) == 3

    def test_maxcut_subdivision_kind(self):
        G = generate(GeneratorSpec("maxcut-subdivision", 2, {"n": 6, "m": 7}))
        assert G.n == 6 + 7 and G.m == 14
        assert is_bipartite(G)

    @pytest.mark.parametrize("kind, params", GENERATOR_SPECS)
    def test_output_passes_the_validating_constructor(self, kind, params):
        # generators skip validation, so their edges must already be canonical
        for seed in range(5):
            G = generate(GeneratorSpec(kind, seed, params))
            reversed_edges = [(v, u, w) for u, v, w in reversed(G.edges)]
            assert_same_graph(G, WeightedGraph(G.n, reversed_edges))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            generate(GeneratorSpec("moebius", 0, {}))
