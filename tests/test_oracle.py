"""Exhaustive oracle, subdivision construction, and instance generators."""

from __future__ import annotations

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from maxqp import oracle
from maxqp.graph import cell_dtype, degeneracy, value_tol
from maxqp.io import format_instance

from util import (
    GENERATOR_SPECS,
    adjacency,
    assert_same_graph,
    brute_force_maxcut,
    edge_list,
    exhaustive_opt,
    is_bipartite,
    random_float,
    random_graph,
    random_sign,
    reference_brute_force,
    reference_generate,
    reference_real_weight,
    reference_sample_pairs,
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

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - 3 * SplitMix64.GAMMA % 2**64, 0])
    def test_block_draws_equal_single_draws_across_a_wrap(self, seed):
        # from 2^64 - 1 the first step wraps the state past 2^64; from
        # 2^64 - 3 * GAMMA (mod 2^64) the third state is exactly 0
        a, b = SplitMix64(seed), SplitMix64(seed)
        for k in (0, 1, 5, 0, 17):
            block = a.draw(k)
            assert block.dtype == np.uint64
            assert block.tolist() == [b.next_u64() for _ in range(k)]
            assert a.state == b.state


def _seed_before(z: int, draws: int) -> int:
    """A seed whose output after `draws` draws is z: the finalizer of
    `next_u64` is a bijection, inverted here one step at a time."""
    def unshift(y: int, s: int) -> int:  # the inverse of x -> x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)
    return (z - (draws + 1) * SplitMix64.GAMMA) % 2**64


class TestBlockStream:
    """The numpy block draws of `generate` against one draw at a time."""

    @pytest.mark.parametrize("draws", [0, 3])
    def test_real_weight_redraws_a_zero(self, draws):
        # random_float is (z >> 11) / 2^53, and 2r - 1 == 0.0 exactly when z >> 11 == 2^52
        seed = _seed_before(2**63 | 0x5A5, draws)
        probe = SplitMix64(seed)
        probe.draw(draws)
        assert 2.0 * random_float(probe) - 1.0 == 0.0
        a, b = SplitMix64(seed), SplitMix64(seed)
        weights = oracle._real_weights(a, 6)
        assert weights.tolist() == [reference_real_weight(b) for _ in range(6)]
        assert a.state == b.state == (seed + 7 * SplitMix64.GAMMA) % 2**64  # 6 weights, 1 redraw
        assert 0.0 not in weights.tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("real", [False, True])
    def test_no_edges_take_no_draw(self, n, real):
        rng = SplitMix64(3)
        u, v = oracle._sample_pairs(rng, n, 0)
        assert (u.dtype, v.dtype, len(u), len(v)) == (np.int64, np.int64, 0, 0)
        assert len(oracle._real_weights(rng, 0)) == len(oracle._sign_weights(rng, 0)) == 0
        assert rng.state == 3
        G = generate(GeneratorSpec("sparse-random", 3, {"n": n, "m": 0, "real": real}))
        assert (G.n, G.m, format_instance(G)) == (n, 0, f"p maxqp {n} 0\n")

    def test_pair_sampler_stops_after_the_attempt_of_the_last_pair(self):
        for seed in range(300):
            n = 2 + seed % 17
            m = seed * 7919 % (n * (n - 1) // 2 + 1)
            a, b = SplitMix64(seed), SplitMix64(seed)
            u, v = oracle._sample_pairs(a, n, m)
            assert list(zip(u.tolist(), v.tolist())) == reference_sample_pairs(b, n, m)
            assert a.state == b.state

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("sparse-random", {"n": 30, "m": 60}),
            ("sparse-random", {"n": 30, "m": 60, "real": True}),
            ("sparse-random", {"n": 0, "m": 0}),
            ("sparse-random", {"n": 1, "m": 0, "real": True}),
            ("sparse-random", {"n": 9, "m": 36}),  # every pair: most attempts are rejected
            ("sparse-random", {"n": 8, "m": 28, "real": True}),
            ("grid-spin-glass", {"rows": 1, "cols": 9}),
            ("grid-spin-glass", {"rows": 9, "cols": 1}),
            ("grid-spin-glass", {"rows": 1, "cols": 1}),
            ("grid-spin-glass", {"rows": 4, "cols": 6}),
            ("maxcut-subdivision", {"n": 7, "m": 12}),
            ("perfect-matching", {"n": 10}),
            ("clique-plus-matching", {"n": 18}),
        ],
    )
    def test_same_file_as_one_draw_at_a_time(self, kind, params):
        for seed in [*range(200), *range(2**64 - 20, 2**64)]:
            spec = GeneratorSpec(kind, seed, params)
            assert format_instance(generate(spec)) == format_instance(reference_generate(spec))

    def test_same_file_on_varied_sizes(self):
        for seed in range(300):
            n = seed % 41
            params = {"n": n, "m": seed * 7919 % (n * (n - 1) // 2 + 1), "real": seed % 2 == 1}
            spec = GeneratorSpec("sparse-random", seed, params)
            assert format_instance(generate(spec)) == format_instance(reference_generate(spec))


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
        assert a.values.tolist() == [1, 1, 1]

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            brute_force(WeightedGraph(30, []))
        with pytest.raises(CapacityError):
            brute_force(WeightedGraph(29, []))


def _assert_agrees_with_reference(G):
    """brute_force against the Gray-code loop: the same assignment on unit
    weights; on real weights a true optimum, the same value within
    `value_tol`, and the same assignment unless the two are tied within it."""
    a, r = brute_force(G), reference_brute_force(G)
    assert a.value == evaluate(G, a.values)
    if G.unit:
        assert (a.values.tolist(), a.value) == (r.values.tolist(), r.value)
        return
    tol = value_tol(G)
    assert a.value >= evaluate(G, r.values)
    assert abs(a.value - r.value) <= tol
    if a.values.tolist() != r.values.tolist():
        assert a.value - evaluate(G, r.values) <= tol


# Tiny blocks: three vertices in the low block and two high rows per chunk,
# so a 12-vertex instance takes 128 chunks and ties cross chunk borders often.
TINY_BLOCKS = {"LOW_BITS": 3, "CHUNK_CELLS": 16}


class TestBruteForceBlocks:
    @pytest.mark.parametrize("n, seed", [(14, 1014), (16, 1016), (18, 1019), (22, 1022)])
    def test_value_is_exactly_evaluate(self, n, seed):
        # on each of these the reference loop's running sum differs from evaluate in its last bits
        G = random_graph(seed, n, 2 * n, real=True)
        a = brute_force(G)
        assert a.value == evaluate(G, a.values)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 16),
        seed=st.integers(0, 10**6),
        density=st.floats(0.0, 1.0),
        real=st.booleans(),
    )
    def test_matches_gray_code_reference(self, n, seed, density, real):
        m = round(density * n * (n - 1) / 4)  # up to half of all pairs
        _assert_agrees_with_reference(random_graph(seed, n, m, real=real))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        seed=st.integers(0, 10**6),
        density=st.floats(0.0, 1.0),
        real=st.booleans(),
    )
    def test_matches_gray_code_reference_across_many_chunks(self, n, seed, density, real):
        m = round(density * n * (n - 1) / 4)
        with mock.patch.multiple(oracle, **TINY_BLOCKS):
            _assert_agrees_with_reference(random_graph(seed, n, m, real=real))

    @pytest.mark.parametrize(
        "n, edges",
        [
            # the table ranks (1, 1, 1, 1, -1) first; evaluate gives it 1.8499999999999999
            (5, [(0, 1, 0.35), (0, 2, 0.3), (0, 3, 0.7), (1, 2, 0.2), (1, 3, 0.3),
                 (1, 4, -0.3), (2, 3, -0.3), (2, 4, 0.2), (3, 4, -0.2)]),
            # evaluate ties two assignments at 1.251; the table ranks the later one first
            (7, [(0, 1, -0.1), (0, 2, -0.3), (1, 2, -0.1), (1, 3, -0.6), (2, 4, 0.35),
                 (4, 6, 0.001)]),
        ],
    )
    def test_rounding_in_the_table_never_picks_the_winner(self, n, edges):
        G = WeightedGraph(n, edges)
        # the first of the lexicographic (+1 first) assignments with the best evaluate
        signs = ((1, *t) for t in itertools.product((1, -1), repeat=n - 1))
        best = max(signs, key=lambda x: evaluate(G, x))
        assert tuple(brute_force(G).values.tolist()) == best

    def test_no_vertex(self):
        a = brute_force(WeightedGraph(0, []))
        assert (a.values.tolist(), a.value) == ([], 0.0)

    def test_one_vertex(self):
        a = brute_force(WeightedGraph(1, []))
        assert (a.values.tolist(), a.value) == ([1], 0.0)

    @pytest.mark.parametrize("w, x", [(-1.0, (1, -1)), (0.5, (1, 1))])
    def test_two_vertices(self, w, x):
        a = brute_force(WeightedGraph(2, [(0, 1, w)]))
        assert (tuple(a.values.tolist()), a.value) == (x, abs(w))

    @pytest.mark.parametrize("n", [15, 16])
    def test_low_block_fills_then_spills(self, n):
        # n = 15 is one row of 2^14 low assignments; n = 16 adds a second row
        assert brute_force(WeightedGraph(n, [])).values.tolist() == [1] * n
        for seed in range(3):
            _assert_agrees_with_reference(random_graph(seed, n, 2 * n))
            _assert_agrees_with_reference(random_graph(seed, n, 2 * n, real=True))

    def test_only_optimum_in_the_last_chunk(self):
        # A path whose every edge can be satisfied, plus chords that agree with
        # it: the optimum sum |w| is unique once vertex 0 is +1.  Vertices 1 and 2
        # are -1 there, the two top bits of the high block, so at n = 23 the
        # optimum lies in the last of the four chunks.
        n = 23
        weights = [-1.0, 0.75] + [(1 + i / 8) * (-1 if i % 3 == 0 else 1) for i in range(2, n - 1)]
        x = [1]
        for w in weights:
            x.append(x[-1] if w > 0 else -x[-1])
        edges = [(i, i + 1, w) for i, w in enumerate(weights)]
        edges += [(u, v, 0.5 * x[u] * x[v]) for u, v in [(0, 22), (3, 17), (5, 20)]]
        G = WeightedGraph(n, edges)
        a = brute_force(G)
        assert (x[1], x[2]) == (-1, -1)
        assert a.values.tolist() == x
        assert a.value == evaluate(G, x) == sum(abs(w) for _, _, w in edges)

    @pytest.mark.parametrize("real", [False, True])
    def test_peak_memory_at_n20_is_one_chunk_table(self, real):
        # one chunk: 32 rows of 2^14 cells, 1 byte each as int8 on unit
        # weights or 8 as float64 on real ones, plus a byte a cell for the
        # near set's comparison and 0.25 MiB to spare (peaks near 1.1 and
        # 4.6 MiB); 2^14 float64 sign rows of the low block and their
        # product with the high rows peaked at 6.4 MiB in either case
        G = random_graph(1003, 20, 40, real=real)
        assert cell_dtype(G) == ("float64" if real else "int8")
        tracemalloc.start()
        try:
            brute_force(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (cell_dtype(G).itemsize + 1) * 2**19 + 2**18

    def test_empty_graph_at_the_cap_ties_everywhere_in_bounded_memory(self):
        # all 2^27 assignments tie at 0: the first one wins, and only one
        # chunk's candidates are ever held at a time
        tracemalloc.start()
        try:
            a = brute_force(WeightedGraph(28, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (a.values.tolist(), a.value) == ([1] * 28, 0.0)
        assert peak < 64 * 2**20


class TestSubdivision:
    def test_single_edge_becomes_signed_path(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        H = subdivide_for_maxcut(G)
        assert H.n == 3 and H.m == 2
        assert edge_list(H) == [(0, 2, 1.0), (1, 2, -1.0)]

    def test_triangle_becomes_six_cycle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        H = subdivide_for_maxcut(G)
        assert H.n == 6 and H.m == 6
        assert [len(nbrs) for nbrs in adjacency(H)] == [2] * 6

    def test_output_bipartite_and_two_degenerate(self):
        for seed in range(30):
            G = random_graph(seed, 4 + seed % 5, 3 + seed % 7)
            H = subdivide_for_maxcut(G)
            assert is_bipartite(H)
            d = degeneracy(H)
            assert d <= 2

    def test_optimum_is_twice_the_maximum_cut(self):
        for seed in range(25):
            n = 4 + seed % 4
            m = min(3 + seed % 6, n * (n - 1) // 2)
            G = random_graph(seed, n, m)
            H = subdivide_for_maxcut(G)
            cut = brute_force_maxcut(G.n, [(u, v) for u, v, _ in edge_list(G)])
            assert brute_force(H).value == 2 * cut


class TestGenerators:
    def test_grid_shape_and_determinism(self):
        spec = GeneratorSpec("grid-spin-glass", 7, {"rows": 2, "cols": 2})
        G1, G2 = generate(spec), generate(spec)
        assert G1.n == 4 and G1.m == 4
        assert edge_list(G1) == edge_list(G2)

    def test_sparse_random_counts(self):
        G = generate(GeneratorSpec("sparse-random", 3, {"n": 20, "m": 30}))
        assert G.n == 20 and G.m == 30 and G.unit

    def test_sparse_random_real_weights(self):
        G = generate(GeneratorSpec("sparse-random", 3, {"n": 10, "m": 15, "real": True}))
        assert not G.unit
        assert all(0 < abs(w) < 1 for _, _, w in edge_list(G))

    def test_d_regular_degrees(self):
        G = generate(GeneratorSpec("d-regular", 5, {"n": 6, "degree": 3}))
        assert [len(nbrs) for nbrs in adjacency(G)] == [3] * 6

    def test_d_regular_rejects_odd_total(self):
        with pytest.raises(ValidationError):
            generate(GeneratorSpec("d-regular", 5, {"n": 5, "degree": 3}))

    @pytest.mark.parametrize("n, d", [(0, 1), (1, 1), (4, 4), (7, 9)])
    def test_d_regular_rejects_a_degree_past_n_minus_1(self, n, d):
        with pytest.raises(ValidationError, match=f"no simple {d}-regular graph on {n} vertices"):
            generate(GeneratorSpec("d-regular", 0, {"n": n, "degree": d}))

    @pytest.mark.parametrize(
        "n, d, seeds",
        [(0, 0, 1), (1, 0, 1), (5, 0, 2), (2, 1, 3), (3, 2, 3), (4, 3, 3), (7, 6, 3), (5, 2, 20)]
        + [(6, 2, 20), (6, 3, 20), (8, 4, 20), (9, 4, 20), (10, 5, 20), (11, 6, 20), (12, 5, 20)]
        + [(14, 7, 10), (20, 9, 10), (30, 6, 10), (40, 21, 5), (1000, 6, 5), (1000, 7, 5)],
    )
    def test_d_regular_is_simple_regular_and_reproducible(self, n, d, seeds):
        for seed in range(seeds):
            spec = GeneratorSpec("d-regular", seed, {"n": n, "degree": d})
            G = generate(spec)
            eu, ev, ew = G.edge_arrays()
            key = eu * n + ev
            # no loop and no pair twice: the (u, v) keys rise strictly
            assert G.n == n and (eu < ev).all() and (np.diff(key) > 0).all()
            assert (np.bincount(np.concatenate((eu, ev)), minlength=n) == d).all()
            assert set(ew.tolist()) <= {-1.0, 1.0}
            again = generate(spec)
            assert edge_list(again) == edge_list(G)

    def test_d_regular_keeps_a_simple_first_pairing(self):
        # a pairing with no loop and no repeated pair draws nothing more,
        # so the graph is the pairing of the one shuffle
        kept = 0
        for seed in range(40):
            rng = SplitMix64(seed)
            stubs = [v for v in range(12) for _ in range(3)]
            rng.shuffle(stubs)
            pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[0::2], stubs[1::2])}
            if len(pairs) < 18 or any(a == b for a, b in pairs):
                continue
            G = generate(GeneratorSpec("d-regular", seed, {"n": 12, "degree": 3}))
            signs = [float(random_sign(rng)) for _ in pairs]
            assert edge_list(G) == [(u, v, w) for (u, v), w in zip(sorted(pairs), signs)]
            kept += 1
        assert kept >= 3

    def test_perfect_matching(self):
        G = generate(GeneratorSpec("perfect-matching", 1, {"n": 8}))
        assert G.m == 4
        assert [len(nbrs) for nbrs in adjacency(G)] == [1] * 8

    def test_clique_plus_matching(self):
        G = generate(GeneratorSpec("clique-plus-matching", 1, {"n": 16}))
        assert G.m == 6 + 6  # K4 plus six disjoint edges
        assert max(len(nbrs) for nbrs in adjacency(G)) == 3

    def test_maxcut_subdivision_kind(self):
        G = generate(GeneratorSpec("maxcut-subdivision", 2, {"n": 6, "m": 7}))
        assert G.n == 6 + 7 and G.m == 14
        assert is_bipartite(G)

    @pytest.mark.parametrize("kind, params", GENERATOR_SPECS)
    def test_output_passes_the_validating_constructor(self, kind, params):
        # generators skip validation, so their edges must already be canonical
        for seed in range(5):
            G = generate(GeneratorSpec(kind, seed, params))
            reversed_edges = [(v, u, w) for u, v, w in reversed(edge_list(G))]
            assert_same_graph(G, WeightedGraph(G.n, reversed_edges))

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("grid-spin-glass", {"rows": 10**8, "cols": 10**8}),
            ("sparse-random", {"n": 10**15, "m": 0}),
            ("d-regular", {"n": 10**15, "degree": 2}),
            ("perfect-matching", {"n": 10**15}),
            ("clique-plus-matching", {"n": 10**14}),
            ("maxcut-subdivision", {"n": 10**15, "m": 3}),
        ],
    )
    def test_vertex_count_over_cap_is_refused_before_allocating(self, kind, params):
        with pytest.raises(CapacityError, match="exceeds cap"):
            generate(GeneratorSpec(kind, 0, params))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            generate(GeneratorSpec("moebius", 0, {}))

    @pytest.mark.parametrize("kind", [["grid-spin-glass"], None])
    def test_a_kind_that_is_not_a_string_is_unknown(self, kind):
        with pytest.raises(ValidationError, match="unknown generator kind"):
            generate(GeneratorSpec(kind, 0, {}))

    def test_the_kinds_and_their_parameters_are_the_table(self):
        assert set(oracle.KIND_PARAMS) == {kind for kind, _ in GENERATOR_SPECS}
        for kind, params in GENERATOR_SPECS:
            assert set(params) <= set(oracle.KIND_PARAMS[kind])

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("grid-spin-glass", {"rows": 2, "cols": 2, "real": True}),
            ("grid-spin-glass", {"rows": 2, "cols": 2, "n": 7}),
            ("d-regular", {"n": 6, "degree": 3, "m": 9}),
            ("perfect-matching", {"n": 4, "real": False}),
            ("maxcut-subdivision", {"n": 4, "m": 2, "real": True}),
        ],
    )
    def test_a_parameter_the_kind_does_not_read_is_refused(self, kind, params):
        with pytest.raises(ValidationError, match="reads no parameter"):
            generate(GeneratorSpec(kind, 0, params))

    @pytest.mark.parametrize("real", ["yes", 1, 0, None, 1.0])
    def test_real_must_be_a_bool(self, real):
        with pytest.raises(ValidationError, match="'real' must be true or false"):
            generate(GeneratorSpec("sparse-random", 0, {"n": 5, "m": 2, "real": real}))
