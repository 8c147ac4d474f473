"""Core instance type, evaluation, and the sign-flip composition primitives."""

from __future__ import annotations

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxqp import (
    Assignment,
    CapacityError,
    GeneratorSpec,
    ValidationError,
    WeightedGraph,
    brute_force,
    evaluate,
    extend_from_induced,
    generate,
    glue_blocks,
    induced_subgraph,
    load_graph,
    solve_bounded_degree,
    stats,
)
from maxqp.graph import (
    MAX_VERTICES,
    ROW_BLOCK,
    PEEL_MIN,
    PEEL_SLACK,
    bfs_sweep,
    csr,
    degeneracy,
    degrees,
    merge_columns,
    rows,
)
from maxqp import graph as graph_module
from maxqp.io import format_instance, parse_instance
from maxqp.oracle import SplitMix64

from util import (
    GENERATOR_SPECS,
    adjacency,
    assert_same_graph,
    edge_list,
    evaluate_partial,
    normalize_nonneg,
    random_graph,
    random_sign,
    reference_combine,
    reference_degeneracy_order,
    reference_evaluate,
    reference_extend,
    reference_scan,
    sample_small,
    solution,
)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            WeightedGraph(4, [(3, 3, 5.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError):
            WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_zero_weight_and_nan(self):
        with pytest.raises(ValidationError):
            WeightedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(ValidationError):
            WeightedGraph(2, [(0, 1, math.nan)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValidationError):
            WeightedGraph(2, [(0, 2, 1.0)])

    def test_unit_flag(self):
        assert WeightedGraph(2, [(0, 1, -1.0)]).unit
        assert not WeightedGraph(2, [(0, 1, 0.5)]).unit

    def test_edges_stored_canonically(self):
        G = WeightedGraph(3, [(2, 0, 1.0), (2, 1, -1.0)])
        assert edge_list(G) == [(0, 2, 1.0), (1, 2, -1.0)]
        start, nbr = csr(G)
        assert start.tolist() == [0, 1, 2, 4] and nbr.tolist() == [2, 2, 0, 1]

    @pytest.mark.parametrize("w1, w2", [(1e308, 1e308), (9e307, -9e307), (8e307, -8e307)])
    def test_rejects_total_weight_whose_double_overflows(self, w1, w2):
        # every weight is finite, and for the last two pairs so is sum |w|
        edges = [(0, 1, w1), (1, 2, w2)]
        with pytest.raises(ValidationError, match=r"2 \* sum \|w\| is not finite"):
            WeightedGraph(3, edges)
        with pytest.raises(ValidationError, match=r"2 \* sum \|w\| is not finite"):
            load_graph(3, edges)

    def test_total_weight_overflow_decided_by_a_sum_in_edge_order(self):
        # a numpy sum of these |w| is pairwise and stays below 2^1023, so twice it is
        # finite; summed one edge after another it rounds up to 2^1023
        ws = [float.fromhex(h) for h in (
            "0x1.2492492492497p+1018", "0x1.2492492492494p+1018", "0x1.2492492492494p+1018",
            "0x1.0000000000000p+1022", "0x1.2492492492492p+1018", "0x1.2492492492489p+1018",
            "0x1.2492492492498p+1018", "0x1.2492492492490p+1018", "0x1.2492492492497p+1018",
            "0x1.2492492492499p+1018", "0x1.2492492492495p+1018", "0x1.2492492492484p+1018",
            "0x1.2492492492494p+1018", "0x1.2492492492492p+1018", "0x1.2492492492492p+1018",
        )]
        assert math.isfinite(2.0 * float(np.sum(ws))) and not math.isfinite(2.0 * sum(ws))
        star = [(0, i + 1, w) for i, w in enumerate(ws)]
        for build in (WeightedGraph, load_graph):
            with pytest.raises(ValidationError, match=r"2 \* sum \|w\| is not finite"):
                build(len(ws) + 1, star)

    def test_ids_past_int32_merge_before_the_vertex_count_is_checked(self):
        far = 2**35
        with pytest.raises(CapacityError):
            load_graph(2**40, [(0, far, 1.0), (far, 0, 1.0)])
        with pytest.raises(ValidationError, match=rf"non-finite weight on edge \(0, {far}\)"):
            load_graph(2**40, [(far, 0, 1e308), (0, far, 1e308)])

    @pytest.mark.parametrize("bad", [10**30, -(10**30), math.nan])
    def test_id_that_is_no_int64_is_out_of_range(self, bad):
        for entry in ((bad, 1, 1.0), (1, bad, 1.0)):
            message = re.escape(f"vertex id out of range: {entry[:2]}")
            entries = [(0, 1, 1.0), entry, (2, 2, 1.0)]
            with pytest.raises(ValidationError, match=message):
                merge_columns(3, *zip(*entries))
            with pytest.raises(ValidationError, match=message):
                load_graph(3, entries)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (1.5, "vertex id is not an integer: (1.5, 0)"),
            (-0.5, "vertex id out of range: (-0.5, 0)"),
            (math.nan, "vertex id out of range: (nan, 0)"),
            (math.inf, "vertex id out of range: (inf, 0)"),
        ],
    )
    def test_float_id_that_is_no_vertex_is_refused_as_given(self, bad, message):
        # a float column, as a list of entries or as numpy, never casts the id
        builds = [
            lambda: load_graph(3, [(0, 1, 1.0), (bad, 0, 1.0)]),
            lambda: merge_columns(3, np.array([0.0, bad]), np.array([1, 0]), np.array([1.0, 1.0])),
            lambda: WeightedGraph(3, [(0, 1, 1.0), (bad, 0, 1.0)]),
        ]
        for build in builds:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=re.escape(message)):
                    build()

    def test_integral_float_id_is_that_vertex(self):
        G = load_graph(3, [(0, 1, 1.0), (2, 0, -1.0)])
        assert_same_graph(load_graph(3, [(0.0, 1, 1.0), (2.0, 0, -1.0)]), G)
        ids = np.array([0.0, 2.0]), np.array([1.0, 0.0])
        assert_same_graph(merge_columns(3, *ids, np.array([1.0, -1.0])), G)

    def test_first_refused_entry_named_when_an_id_is_no_int64(self):
        # the self-loop comes before the id past int64, in entry order
        entries = [(0, 1, 1.0), (2, 2, 1.0), (10**30, 1, 1.0)]
        for build in (lambda: merge_columns(3, *zip(*entries)), lambda: load_graph(3, entries)):
            with pytest.raises(ValidationError, match="self-loop on vertex 2"):
                build()

    def test_ids_past_int64_in_range_are_over_the_vertex_cap(self):
        with pytest.raises(CapacityError, match=f"vertex count {2**70} exceeds cap"):
            merge_columns(2**70, [0], [2**65], [1.0])
        # a uint64 or float column past int64 is not cast back into range
        for u in [2**63 + 5, 2.0**63]:
            with pytest.raises(CapacityError, match=f"vertex count {2**64} exceeds cap"):
                load_graph(2**64, [(u, 3, 1.0)])

    def test_total_weight_just_inside_the_bound_solves(self):
        G = WeightedGraph(3, [(0, 1, 4e307), (1, 2, -4e307)])
        best = brute_force(G)
        assert best.value == 8e307 == evaluate(G, best.values)

    def test_vertex_count_over_cap_is_refused_before_allocating(self):
        with pytest.raises(CapacityError, match="exceeds cap") as info:
            WeightedGraph(10**15, [])
        assert info.value.achieved == 10**15
        with pytest.raises(CapacityError):
            load_graph(MAX_VERTICES + 1, [(0, 1, 1.0)])


class TestLoadGraph:
    def test_symmetric_entries_merge_to_one_edge(self):
        G = load_graph(3, [(0, 1, 1.0), (1, 0, 1.0)])
        assert edge_list(G) == [(0, 1, 1.0)]

    def test_opposite_entries_average_to_zero_and_drop(self):
        G = load_graph(3, [(0, 1, 1.0), (1, 0, -1.0)])
        assert G.m == 0

    def test_asymmetric_entries_average(self):
        G = load_graph(2, [(0, 1, 3.0), (1, 0, 1.0)])
        assert edge_list(G) == [(0, 1, 2.0)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            load_graph(4, [(3, 3, 5.0)])


_SMALL_WEIGHTS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4, 4)
# Finite entries whose sums can overflow to +-inf (or to nan once both signs meet).
_HUGE_WEIGHTS = st.sampled_from([-1.5e308, -1e308, 1e308, 1.5e308]) | _SMALL_WEIGHTS


@st.composite
def _raw_entries(draw, weight=_SMALL_WEIGHTS):
    """(n, entries) with repeated, reversed and cancelling pairs."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    entries = draw(st.lists(st.tuples(pair, weight).map(lambda t: (*t[0], t[1])), max_size=30))
    cancel = draw(st.lists(st.sampled_from(entries), max_size=10)) if entries else []
    entries += [(v, u, -w) for u, v, w in cancel]
    entries += draw(st.lists(st.sampled_from(entries), max_size=10)) if entries else []
    return n, draw(st.permutations(entries))


def _merge(entries) -> list[tuple[int, int, float]]:
    """Average each unordered pair's entries in order; drop zero averages.
    Pairs come out sorted, so a bad average is the first one reported."""
    groups: dict[tuple[int, int], list[float]] = {}
    for u, v, w in entries:
        groups.setdefault((min(u, v), max(u, v)), []).append(w)
    merged = [(u, v, sum(ws, 0.0) / len(ws)) for (u, v), ws in sorted(groups.items())]
    return [(u, v, w) for u, v, w in merged if w != 0.0]


class TestLoadGraphMatchesConstructor:
    @settings(max_examples=200, deadline=None)
    @given(case=_raw_entries())
    def test_same_graph_as_validating_constructor(self, case):
        n, entries = case
        assert_same_graph(load_graph(n, entries), WeightedGraph(n, _merge(entries)))

    @settings(max_examples=100, deadline=None)
    @given(
        case=_raw_entries(),
        bad=st.sampled_from(
            [
                ((0, 99, 1.0), "out of range"),
                ((-1, 0, 1.0), "out of range"),
                ((1, 1, 1.0), "self-loop"),
                ((0, 1, math.nan), "non-finite"),
                ((1, 0, -math.inf), "non-finite"),
            ]
        ),
        data=st.data(),
    )
    def test_bad_entry_anywhere_raises(self, case, bad, data):
        n, entries = case
        entry, message = bad
        at = data.draw(st.integers(0, len(entries)))
        entries = entries[:at] + [entry] + entries[at:]
        with pytest.raises(ValidationError, match=message):
            load_graph(n, entries)
        with pytest.raises(ValidationError, match=message):
            WeightedGraph(n, [entry])

    def test_finite_entries_overflowing_to_inf_raise(self):
        with pytest.raises(ValidationError, match=r"non-finite weight on edge \(0, 1\)"):
            load_graph(2, [(0, 1, 1e308), (1, 0, 1e308)])
        with pytest.raises(ValidationError, match=r"non-finite weight on edge \(0, 1\)"):
            load_graph(2, [(1, 0, -1e308), (0, 1, -1e308)])

    @settings(max_examples=200, deadline=None)
    @given(case=_raw_entries(weight=_HUGE_WEIGHTS))
    def test_overflow_rejected_exactly_when_constructor_rejects(self, case):
        n, entries = case
        try:
            expected = WeightedGraph(n, _merge(entries))
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                load_graph(n, entries)
        else:
            assert_same_graph(load_graph(n, entries), expected)


@st.composite
def _graphs_from_every_builder(draw):
    """A graph from the validating constructor (edges shuffled and some
    reversed), load_graph, induced_subgraph or one of the generators."""
    source = draw(st.sampled_from(["constructor", "load_graph", "induced", "generator"]))
    if source == "generator":
        kind, params = draw(st.sampled_from(GENERATOR_SPECS))
        return generate(GeneratorSpec(kind, draw(st.integers(0, 10**6)), params))
    if source == "induced":
        G = sample_small(draw(st.integers(0, 10**6)))
        return induced_subgraph(G, draw(st.lists(st.integers(0, G.n - 1))))[0]
    n, entries = draw(_raw_entries())
    if source == "load_graph":
        return load_graph(n, entries)
    edges = draw(st.permutations(_merge(entries)))
    flip = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return WeightedGraph(n, [(v, u, w) if f else (u, v, w) for (u, v, w), f in zip(edges, flip)])


def _csr_lists(G):
    """Each vertex's `csr` range as a list, after checking the pair's form."""
    start, nbr = csr(G)
    assert start.dtype == nbr.dtype == np.int64
    assert len(start) == G.n + 1 and start[0] == 0 and start[-1] == len(nbr) == 2 * G.m
    nbl = nbr.tolist()
    return [nbl[a:b] for a, b in zip(start.tolist(), start[1:].tolist())]


class TestNeighbourMaps:
    """`csr` against the dict view `adjacency(G)` built from the edges."""

    @settings(max_examples=200, deadline=None)
    @given(G=_graphs_from_every_builder())
    def test_maps_hold_exactly_the_edges_in_ascending_key_order(self, G):
        adj = adjacency(G)
        for u, v, w in edge_list(G):
            assert adj[u][v] == adj[v][u] == w
        assert sum(len(nbrs) for nbrs in adj) == 2 * G.m
        assert _csr_lists(G) == [sorted(nbrs) for nbrs in adj] == [list(nbrs) for nbrs in adj]

    @pytest.mark.parametrize("seed", range(20))
    def test_lists_with_isolated_vertices(self, seed):
        n = 1 + seed % 30
        H = random_graph(9000 + seed, n, [n // 2, n, 3 * n][seed % 3], real=seed % 2 == 1)
        G = WeightedGraph(n + 1 + seed % 3, edge_list(H))  # isolated vertices last
        nb = _csr_lists(G)
        assert nb == [sorted(nbrs) for nbrs in adjacency(G)]
        assert nb[n:] == [[]] * (G.n - n)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        start, nbr = csr(WeightedGraph(n, []))
        assert start.dtype == nbr.dtype == np.int64
        assert start.tolist() == [0] * (n + 1) and nbr.tolist() == []


class TestDegrees:
    @pytest.mark.parametrize("seed", range(10))
    def test_the_length_of_each_neighbour_list(self, seed):
        G = random_graph(8000 + seed, 1 + 3 * seed, 4 * seed, real=seed % 2 == 1)
        deg = degrees(G)
        assert deg.dtype == np.int64 and deg.tolist() == [len(a) for a in adjacency(G)]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        deg = degrees(WeightedGraph(n, []))
        assert deg.dtype == np.int64 and deg.tolist() == [0] * n


class TestBfsSweep:
    def test_a_seen_vertex_stops_the_sweep(self):
        start, nbr = csr(WeightedGraph(5, [(i, i + 1, 1.0) for i in range(4)]))
        nbl, start = nbr.tolist(), start.tolist()
        seen = bytearray(5)
        seen[2] = 1
        assert list(bfs_sweep(nbl, start, 0, seen)) == [[0], [1]]
        assert list(seen) == [1, 1, 1, 0, 0]
        assert list(bfs_sweep(nbl, start, 4, seen)) == [[4], [3]]
        assert list(seen) == [1] * 5
        assert list(bfs_sweep([], [0, 0], 0, bytearray(1))) == [[0]]

    @pytest.mark.parametrize("seed", range(30))
    def test_layers_partition_the_reached_vertices(self, seed):
        G = random_graph(4000 + seed, 25, 10 + seed)
        adj = adjacency(G)
        pre = set(np.random.default_rng(seed).choice(G.n, size=seed % 8, replace=False).tolist())
        pre.discard(0)
        seen = bytearray(G.n)
        for v in pre:
            seen[v] = 1
        start, nbr = csr(G)
        layers = list(bfs_sweep(nbr.tolist(), start.tolist(), 0, seen))
        # distances from 0 in G less the vertices seen before, by frontier sets
        dist, frontier, d = {}, {0}, 0
        while frontier:
            dist.update(dict.fromkeys(frontier, d))
            frontier = {u for v in frontier for u in adj[v] if u not in dist and u not in pre}
            d += 1
        reached = [v for layer in layers for v in layer]
        assert len(reached) == len(set(reached)) == len(dist)
        assert all(dist[v] == i for i, layer in enumerate(layers) for v in layer)
        assert {v for v in range(G.n) if seen[v]} == pre | set(dist)


class TestColumnsFirst:
    """Columns are the stored form and the one edge list; no other view is kept."""

    @settings(max_examples=100, deadline=None)
    @given(case=_raw_entries())
    def test_from_columns_same_as_validating_constructor(self, case):
        n, entries = case
        edges = _merge(entries)
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([e[2] for e in edges], dtype=np.float64)
        G = WeightedGraph._from_columns(n, u, v, w)
        assert (G.m, G.unit) == (len(edges), all(abs(x) == 1.0 for _, _, x in edges))
        assert all(a is b for a, b in zip(G.edge_arrays(), (u, v, w)))
        assert_same_graph(G, WeightedGraph(n, edges[::-1]))

    @pytest.mark.parametrize("real", [False, True])
    def test_greedy_driver_builds_neither_edges_nor_adjacency(self, real):
        G = generate(GeneratorSpec("sparse-random", 5, {"n": 300, "m": 600, "real": real}))
        for H in (G, parse_instance(format_instance(G))):
            before = [c.copy() for c in H.edge_arrays()]
            solve_bounded_degree(H)
            # the columns are the one edge list, and the driver leaves them as they were
            assert not hasattr(H, "edges") and not hasattr(H, "adjacency")
            assert all(np.array_equal(a, b) for a, b in zip(H.edge_arrays(), before))


class TestEvaluate:
    def test_single_positive_edge(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        assert evaluate(G, [1, 1]) == 1.0

    def test_unit_triangle_all_plus(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert evaluate(G, [1, 1, 1]) == 3.0

    def test_negative_four_cycle_alternating(self):
        # all-(-1) C4 with alternating signs: every edge contributes +1,
        # total 4 = 2 * (max cut 4) - (total weight 4)
        G = WeightedGraph(4, [(0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0), (0, 3, -1.0)])
        assert evaluate(G, [1, -1, 1, -1]) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate(WeightedGraph(2, [(0, 1, 1.0)]), [1])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 400), zeros=st.booleans())
    def test_same_bits_as_a_running_sum(self, seed, n, zeros):
        # signs 0 as glue_blocks passes them for left-out vertices
        G = random_graph(seed, n, 3 * n, real=seed % 2 == 0)
        rng = SplitMix64(seed)
        x = [rng.randrange(3) - 1 if zeros else random_sign(rng) for _ in range(n)]
        assert evaluate(G, x).hex() == reference_evaluate(G, x).hex()

    def test_terms_that_are_all_minus_zero_sum_to_zero(self):
        G = WeightedGraph(3, [(0, 1, -1.0), (1, 2, -2.0)])
        assert evaluate(G, [0, 1, 0]).hex() == reference_evaluate(G, [0, 1, 0]).hex() == "0x0.0p+0"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sign_flip_symmetry(self, seed):
        G = sample_small(seed)
        rng_vals = [1 if (seed >> i) & 1 else -1 for i in range(G.n)]
        assert evaluate(G, rng_vals) == pytest.approx(
            evaluate(G, [-s for s in rng_vals]), abs=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), v=st.integers(0, 30))
    def test_single_flip_local_move_identity(self, seed, v):
        G = sample_small(seed)
        v %= G.n
        x = [1 if (seed >> i) & 1 else -1 for i in range(G.n)]
        before = evaluate(G, x)
        delta = 2.0 * sum(w * x[u] * x[v] for u, w in adjacency(G)[v].items())
        x[v] = -x[v]
        assert evaluate(G, x) == pytest.approx(before - delta, abs=1e-9)


class TestAssignment:
    def test_entries_must_be_signs(self):
        with pytest.raises(ValidationError):
            Assignment((1, 0), 0.0)

    @pytest.mark.parametrize("bad", [0, 2, -2, 0.5, -1.5, float("nan")])
    def test_any_non_sign_entry_is_rejected(self, bad):
        for given in ((1, -1, bad, 1), np.array([1, -1, bad, 1])):
            with pytest.raises(ValidationError):
                Assignment(given, 0.0)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), ()])
    def test_only_a_vector_is_accepted(self, shape):
        with pytest.raises(ValidationError, match="one vector"):
            Assignment(np.ones(shape, dtype=np.int8), 0.0)

    def test_entries_equal_to_a_sign_are_accepted(self):
        # the check compares by value, so True and 1.0 count as +1
        assert Assignment((True, 1.0, -1.0, -1), 0.0).values.tolist() == [1, 1, -1, -1]
        assert Assignment((), 0.0).values.tolist() == []

    def test_values_are_a_read_only_int8_copy(self):
        given = np.array([1, -1, 1])
        a = Assignment(given, 1.0)
        assert a.values.dtype == np.int8 and a.values.tolist() == [1, -1, 1]
        with pytest.raises(ValueError, match="read-only"):
            a.values[0] = -1
        given[0] = -1  # the caller's array stays its own, and writable
        assert a.values.tolist() == [1, -1, 1]

    def test_solution_caches_value(self):
        G = WeightedGraph(2, [(0, 1, -2.0)])
        a = solution(G, [1, -1])
        assert a.value == 2.0


class TestNormalizeNonneg:
    def test_single_negative_edge_flips_second_vertex(self):
        G = WeightedGraph(2, [(0, 1, -1.0)])
        a = normalize_nonneg(G)
        assert a.values.tolist() == [1, -1]
        assert a.value == 1.0

    def test_empty_graph(self):
        a = normalize_nonneg(WeightedGraph(3, []))
        assert a.value == 0.0

    def test_all_negative_clique_nonnegative(self):
        edges = [(u, v, -1.0) for u in range(6) for v in range(u + 1, 6)]
        assert normalize_nonneg(WeightedGraph(6, edges)).value >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_value_always_nonnegative(self, seed):
        G = sample_small(seed)
        a = normalize_nonneg(G)
        assert a.value >= -1e-12
        assert a.value == pytest.approx(evaluate(G, a.values), abs=1e-9)


class TestCombineDisjoint:
    """The disjoint-union composition: two partial assignments on disjoint
    vertex sets glued by `glue_blocks` as block 0 and block 1."""

    def test_no_cross_edges_adds_values(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert glue_blocks(G, [1, 1, 0, 0], [1, 1, 1, 1]).value == 2.0

    def test_positive_cross_edge_kept_unflipped(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
        a = glue_blocks(G, [1, 1, 0, 0], [1, 1, 1, 1])
        assert a.value == 3.0
        assert a.values.tolist() == [1, 1, 1, 1]

    def test_negative_cross_contribution_flips_first(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, -1.0)])
        a = glue_blocks(G, [1, 1, 0, 0], [1, 1, 1, 1])
        assert a.value == 3.0
        assert a.values[0] == a.values[1] == -1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_never_loses_value_on_random_splits(self, seed):
        G = sample_small(seed)
        left = [1 if (seed >> v) & 1 else 0 for v in range(G.n)]
        right = [0 if left[v] else -1 if v % 2 else 1 for v in range(G.n)]
        z1 = evaluate_partial(G, left)
        z2 = evaluate_partial(G, right)
        glued = glue_blocks(G, left, [a + b for a, b in zip(left, right)])
        assert glued.value >= z1 + z2 - 1e-9


class TestExtendFromInduced:
    def test_full_vertex_set_is_identity(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, -1.0)])
        a = extend_from_induced(G, [1, 1, -1])
        assert a.values.tolist() == [1, 1, -1]

    def test_path_completion_keeps_edge_value(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        a = extend_from_induced(G, [1, 1, 0])
        assert a.value >= 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_never_below_induced_value(self, seed):
        G = sample_small(seed)
        sub = [(-1 if (seed >> v) & 2 else 1) if (seed >> v) & 1 else 0 for v in range(G.n)]
        sub_val = evaluate_partial(G, sub)
        a = extend_from_induced(G, sub)
        assert a.value >= sub_val - 1e-9

    def test_wrong_length_rejected(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for x in ([1, 1], [1, 1, 0, 0], [[1, 1, 1]]):
            with pytest.raises(ValidationError, match="shape"):
                extend_from_induced(G, x)

    def test_entry_outside_signs_rejected(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for x in ([1, 2, 0], [1, -2, 0], [0.5, 1, 1], [float("nan"), 1, 1]):
            with pytest.raises(ValidationError, match="-1, 0 or"):
                extend_from_induced(G, x)


def _random_blocks(seed: int, n: int, k: int):
    """Random block ids (dense from 0, at most k + 1 blocks) and inner signs."""
    rng = SplitMix64(seed)
    raw = [rng.randrange(k + 1) for _ in range(n)]
    dense = {b: i for i, b in enumerate(sorted(set(raw)))}
    block_of = [dense[b] for b in raw]
    inner = [random_sign(rng) for _ in range(n)]
    return block_of, inner


class TestGlueBlocks:
    def test_two_singletons_negative_edge_flips_later(self):
        G = WeightedGraph(2, [(0, 1, -2.0)])
        a = glue_blocks(G, [1, 0], [1, 1])
        assert (a.values.tolist(), a.value) == ([-1, 1], 2.0)

    def test_tie_keeps_block_unflipped(self):
        G = WeightedGraph(3, [(0, 2, 1.0), (1, 2, -1.0)])
        a = glue_blocks(G, [0, 0, 1], [1, 1, 1])
        assert (a.values.tolist(), a.value) == ([1, 1, 1], 0.0)

    def test_returns_an_assignment_of_read_only_int8_signs(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 5.0)])
        a = glue_blocks(G, np.array([0, 1, 1]), np.array([1, 1, -1]))
        assert isinstance(a, Assignment)
        assert (a.values.dtype, a.values.flags.writeable) == (np.int8, False)
        assert (a.values.tolist(), a.value) == ([1, 1, -1], -4.0)

    def test_negative_block_id_rejected(self):
        # a -1 must not be read as the last block
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 5.0)])
        for block_of in ([0, 1, -1], np.array([-2, 0, 0])):
            with pytest.raises(ValidationError, match="negative"):
                glue_blocks(G, block_of, [1, 1, -1])

    def test_an_inner_sign_outside_the_signs_rejected(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError, match="-1 or \\+1"):
            glue_blocks(G, [0, 1], [1, 0])

    def test_length_mismatch_rejected(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            glue_blocks(G, [0], [1, 1])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 8))
    def test_every_block_gains_against_earlier_blocks(self, seed, k):
        G = sample_small(seed)
        block_of, inner = _random_blocks(seed, G.n, k)
        a = glue_blocks(G, block_of, inner)
        signs, value = a.values.tolist(), a.value
        flip = {}
        for v, b in enumerate(block_of):
            assert flip.setdefault(b, signs[v] * inner[v]) == signs[v] * inner[v]
        inner_total = 0.0
        back = dict.fromkeys(flip, 0.0)
        for u, v, w in edge_list(G):
            bu, bv = block_of[u], block_of[v]
            if bu == bv:
                inner_total += w * inner[u] * inner[v]
            else:
                back[max(bu, bv)] += w * signs[u] * signs[v]
        for b, c in back.items():
            assert c >= -1e-9
            if flip[b] == -1:  # flipped only when unflipped would lose value
                assert c > 0
        assert value == reference_evaluate(G, signs)
        assert value >= inner_total - 1e-9


class TestRows:
    @pytest.mark.parametrize("k", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
    def test_same_as_zip_of_lists(self, k):
        a = np.arange(k, dtype=np.int64) * 3
        b = np.linspace(-1.0, 1.0, k)
        got = list(rows(a, b))
        assert got == list(zip(a.tolist(), b.tolist()))
        assert all(type(x) is int and type(y) is float for x, y in got)


class TestSameSignsAsReferenceScan:
    @pytest.mark.parametrize("real", [False, True])
    def test_extend_from_induced_over_several_row_blocks(self, real):
        # more than 2 * ROW_BLOCK cross edges, so the glue loop spans blocks
        G = random_graph(31, 5000, 3 * ROW_BLOCK, real=real)
        sub = [0 if v % 7 else (-1) ** v for v in range(G.n)]
        assert tuple(extend_from_induced(G, sub).values.tolist()) == reference_extend(G, sub)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_normalize_nonneg(self, seed):
        G = sample_small(seed)
        ref = reference_scan(G, range(G.n))
        assert normalize_nonneg(G).values.tolist() == [ref[v] for v in range(G.n)]
        start = solution(G, _random_blocks(seed, G.n, 1)[1])
        ref = reference_scan(G, range(G.n), dict(enumerate(start.values.tolist())))
        assert normalize_nonneg(G, start).values.tolist() == [ref[v] for v in range(G.n)]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_extend_from_induced(self, seed):
        G = sample_small(seed)
        block_of, inner = _random_blocks(seed, G.n, 1)
        sub = [s if b == 0 else 0 for b, s in zip(block_of, inner)]
        assert tuple(extend_from_induced(G, sub).values.tolist()) == reference_extend(G, sub)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_combine_disjoint(self, seed):
        G = sample_small(seed)
        block_of, inner = _random_blocks(seed, G.n, 1)
        # x1 is block 1, glued onto block 0, x2
        x1 = [s if b == 1 else 0 for b, s in zip(block_of, inner)]
        x2 = [s if b == 0 else 0 for b, s in zip(block_of, inner)]
        a = glue_blocks(G, block_of, inner)
        assert a.values.tolist() == reference_combine(G, x1, x2)
        assert a.value == reference_evaluate(G, a.values.tolist())


class TestStats:
    def test_unit_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
        st_ = stats(G)
        assert st_.max_degree == 2
        assert st_.degeneracy == 2
        assert st_.density == Fraction(1)
        assert st_.abs_weight == 3.0

    def test_star(self):
        G = WeightedGraph(6, [(0, i, 1.0) for i in range(1, 6)])
        st_ = stats(G)
        assert st_.max_degree == 5
        assert st_.degeneracy == 1
        assert st_.density == Fraction(5, 6)

    def test_grid_degeneracy_two(self):
        edges = []
        for r in range(4):
            for c in range(4):
                v = 4 * r + c
                if c < 3:
                    edges.append((v, v + 1, 1.0))
                if r < 3:
                    edges.append((v, v + 4, 1.0))
        G = WeightedGraph(16, edges)
        d, order = reference_degeneracy_order(G)
        assert degeneracy(G) == d == 2
        assert sorted(order) == list(range(16))

    def test_bounds_between_quantities(self):
        for seed in range(30):
            G = sample_small(seed)
            st_ = stats(G)
            assert st_.degeneracy <= st_.max_degree
            assert st_.density <= st_.max_degree


def _unit(n: int, edges) -> WeightedGraph:
    return WeightedGraph(n, [(u, v, 1.0) for u, v in edges])


def _k_tree(seed: int, k: int, n: int) -> WeightedGraph:
    """A random k-tree on n > k vertices: a (k+1)-clique, then each new vertex
    joined to a k-clique already present."""
    rng = SplitMix64(seed)
    cliques = [tuple(range(k + 1))]
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        drop = rng.randrange(k + 1)
        face = base[:drop] + base[drop + 1 :]
        edges += [(u, v) for u in face]
        cliques.append(face + (v,))
    return _unit(n, edges)


def _random_tree(seed: int, n: int) -> WeightedGraph:
    rng = SplitMix64(seed)
    return _unit(n, [(rng.randrange(v), v) for v in range(1, n)])


def _handoff_round() -> int:
    """The round at which `degeneracy` hands over when every round peels two
    vertices: the first r with (r - PEEL_SLACK) * PEEL_MIN > 2r."""
    r = 1
    while (r - PEEL_SLACK) * PEEL_MIN <= 2 * r:
        r += 1
    return r


def _path_square(first: int, length: int) -> list[tuple[int, int]]:
    """The square of a path on first..first+length-1: degeneracy 2, and at
    level 2 each round peels one vertex from each end."""
    ids = range(first, first + length)
    return [(u, u + 1) for u in ids[:-1]] + [(u, u + 2) for u in ids[:-2]]


class TestDegeneracyOrder:
    """`degeneracy`, core peeling in numpy rounds with a bucket-queue
    finisher, against the number of the bucket queue over the dict view
    `adjacency(G)`."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_as_reference_with_isolated_vertices(self, seed):
        n = 1 + seed % 45
        H = random_graph(8000 + seed, n, [n // 3, n, 3 * n, n * n][seed % 4], real=seed % 2 == 1)
        G = WeightedGraph(n + seed % 4, edge_list(H))  # up to 3 isolated vertices last
        assert degeneracy(G) == reference_degeneracy_order(G)[0]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        G = WeightedGraph(n, [])
        assert degeneracy(G) == 0
        assert reference_degeneracy_order(G) == (0, list(range(n))[::-1])

    @pytest.mark.parametrize("seed", range(12))
    def test_k_trees_and_cliques(self, seed):
        k = 1 + seed % 6
        G = _k_tree(8100 + seed, k, k + 1 + 7 * seed)
        assert degeneracy(G) == reference_degeneracy_order(G)[0] == k
        K = _unit(seed + 1, [(u, v) for u in range(seed + 1) for v in range(u + 1, seed + 1)])
        assert degeneracy(K) == reference_degeneracy_order(K)[0] == seed

    @pytest.mark.parametrize("n", [2, 3, 34, 35, 200, 1001])
    def test_paths_and_random_trees(self, n):
        P = _unit(n, [(v, v + 1) for v in range(n - 1)])
        assert degeneracy(P) == reference_degeneracy_order(P)[0] == 1
        for seed in range(3):
            T = _random_tree(8200 + 10 * n + seed, n)
            assert degeneracy(T) == reference_degeneracy_order(T)[0] == 1

    @pytest.mark.parametrize("rows, cols", [(1, 5), (2, 2), (2, 40), (3, 3), (7, 11), (30, 30), (60, 4)])
    def test_grids(self, rows, cols):
        G = generate(GeneratorSpec("grid-spin-glass", 8250, {"rows": rows, "cols": cols}))
        assert degeneracy(G) == reference_degeneracy_order(G)[0] == min(rows - 1, cols - 1, 1) + 1

    @pytest.mark.parametrize(
        "extra_rounds, handed, k",
        [
            (5, 12 + 40, 1),  # mid-level 1: five rounds of the path left
            (0, 2 + 40, 1),  # the last round of level 1
            (-1, 40, 2),  # the first round of level 2
            (-2, 38, 2),  # the second round of level 2
        ],
    )
    def test_handoff_around_a_level_boundary(self, monkeypatch, extra_rounds, handed, k):
        # a path whose level-1 rounds end `extra_rounds` after the hand-off,
        # beside a 40-vertex path square that level 2 peels two per round
        r = _handoff_round()
        j = r + extra_rounds
        path = [(v, v + 1) for v in range(2 * j - 1)]
        G = _unit(2 * j + 40, path + _path_square(2 * j, 40))
        seen = []
        finish = graph_module._bucket_peel
        monkeypatch.setattr(graph_module, "_bucket_peel", lambda *a: seen.append([*map(list, a)]) or finish(*a))
        assert degeneracy(G) == reference_degeneracy_order(G)[0] == 2
        (nbl, cut, deg), = seen
        assert len(deg) == handed and len(nbl) == sum(deg) and cut[-1] == len(nbl)
        assert min(deg) <= k

    def test_handoff_where_the_level_decides(self, monkeypatch):
        # an odd path: the hand-off round peels its middle vertex alone, and
        # the finisher sees one isolated vertex (degeneracy 0 < level 1)
        r = _handoff_round()
        G = _unit(2 * r - 1, [(v, v + 1) for v in range(2 * r - 2)])
        seen = []
        finish = graph_module._bucket_peel
        monkeypatch.setattr(graph_module, "_bucket_peel", lambda *a: seen.append(finish(*a)) or seen[-1])
        assert degeneracy(G) == reference_degeneracy_order(G)[0] == 1
        assert seen == [0]

    def test_no_handoff_when_rounds_peel_enough(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_bucket_peel", None)  # never called
        r = _handoff_round()
        G = _unit(2 * (r - 1), [(v, v + 1) for v in range(2 * r - 3)])
        assert degeneracy(G) == 1
        G = random_graph(8300, 3000, 6000)
        assert degeneracy(G) == reference_degeneracy_order(G)[0]


class TestOptimumBounds:
    def test_opt_nonnegative_and_below_abs_weight(self):
        for seed in range(40):
            G = sample_small(seed, max_n=10)
            opt = brute_force(G).value
            assert opt >= -1e-12
            assert opt <= stats(G).abs_weight + 1e-9


class TestInducedSubgraph:
    def test_relabeling_round_trip(self):
        G = WeightedGraph(5, [(0, 2, 1.0), (2, 4, -2.0), (1, 3, 1.0)])
        H, old_of = induced_subgraph(G, [0, 2, 4])
        assert old_of.tolist() == [0, 2, 4]
        assert edge_list(H) == [(0, 1, 1.0), (1, 2, -2.0)]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_same_graph_as_validating_constructor(self, seed, data):
        G = sample_small(seed)
        picked = data.draw(st.lists(st.integers(0, G.n - 1), max_size=2 * G.n))
        H, old_of = induced_subgraph(G, picked)
        assert old_of.dtype == np.int64 and old_of.tolist() == sorted(set(picked))
        adj = adjacency(G)
        edges = [
            (j, i, adj[a][b])
            for i, a in enumerate(old_of.tolist())
            for j, b in enumerate(old_of.tolist())
            if j > i and b in adj[a]
        ]
        assert_same_graph(H, WeightedGraph(len(old_of), edges[::-1]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_edge_arrays_are_the_columns_of_edges(self, seed, data):
        # both for a parent with merged columns and for one built from tuples
        G = random_graph(seed, 30, 60, real=seed % 2 == 1)
        if data.draw(st.booleans()):
            G = load_graph(G.n, edge_list(G))
        picked = data.draw(st.lists(st.integers(0, G.n - 1), max_size=2 * G.n))
        H, old_of = induced_subgraph(G, picked)
        new_of = {old: new for new, old in enumerate(old_of)}
        want = [(new_of[u], new_of[v], w) for u, v, w in edge_list(G) if {u, v} <= new_of.keys()]
        eu, ev, ew = H.edge_arrays()
        assert (eu.dtype, ev.dtype, ew.dtype) == (np.int64, np.int64, np.float64)
        assert eu.tolist() == [u for u, _, _ in want]
        assert ev.tolist() == [v for _, v, _ in want]
        assert [w.hex() for w in ew.tolist()] == [w.hex() for _, _, w in want]

    def test_an_array_a_set_and_a_list_with_repeats_give_one_old_of(self):
        G = random_graph(5, 12, 30)
        ids = [7, 3, 11, 3, 0, 7]
        want_H, want = induced_subgraph(G, [0, 3, 7, 11])
        for given in (np.array(ids), np.array(ids, dtype=np.int32), set(ids), ids, iter(ids)):
            H, old_of = induced_subgraph(G, given)
            assert old_of.dtype == np.int64 and old_of.tolist() == [0, 3, 7, 11]
            assert_same_graph(H, want_H)
        for empty in ([], set(), np.array([], dtype=np.int64)):
            H, old_of = induced_subgraph(G, empty)
            assert (H.n, H.m, old_of.dtype, old_of.tolist()) == (0, 0, np.int64, [])

    def test_rejects_ids_that_are_not_integers(self):
        # a bool mask selected vertices 0 and 1, and float ids were truncated
        G = random_graph(5, 12, 30)
        bools = ([True, False, True], np.ones(12, dtype=bool))
        for bad in (*bools, [2.7, 3.2], np.array([2.0, 3.0]), [2**70]):
            with pytest.raises(ValidationError, match="must be int64 integers"):
                induced_subgraph(G, bad)
        want_H, _ = induced_subgraph(G, [2, 3, 4])
        for given in (range(2, 5), [4, 2, 3, 3], np.array([2, 3, 4], dtype=np.uint8)):
            H, old_of = induced_subgraph(G, given)
            assert old_of.tolist() == [2, 3, 4]
            assert_same_graph(H, want_H)

    def test_rejects_vertex_out_of_range(self):
        G = WeightedGraph(3, [(0, 1, 1.0)])
        for bad in ([0, 3], [-1, 2]):
            with pytest.raises(ValidationError, match="out of range"):
                induced_subgraph(G, bad)

    @pytest.mark.parametrize("vertex", [2**63, 2**63 + 5, 2**64 - 1])
    def test_id_past_int64_is_refused_under_its_own_value(self, vertex):
        # a uint64 id wrapped to a negative int64 before the range check
        G = WeightedGraph(3, [(0, 1, 1.0)])
        for given in ([vertex], np.array([1, vertex], dtype=np.uint64)):
            with pytest.raises(ValidationError, match=rf"out of range: \d+\.\.{vertex}$"):
                induced_subgraph(G, given)
