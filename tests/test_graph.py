"""Core instance type, evaluation, and the sign-flip composition primitives."""

from __future__ import annotations

import math
import re
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
    combine_disjoint,
    evaluate,
    extend_from_induced,
    generate,
    glue_blocks,
    induced_subgraph,
    load_graph,
    solve_bounded_degree,
    stats,
)
from maxqp.graph import MAX_VERTICES, ROW_BLOCK, degeneracy_order, rows
from maxqp.io import format_instance, parse_instance
from maxqp.oracle import SplitMix64

from util import (
    GENERATOR_SPECS,
    assert_same_graph,
    edge_list,
    evaluate_partial,
    normalize_nonneg,
    random_graph,
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
        assert G.weight(2, 0) == 1.0
        assert 2 in G.adjacency[1] and 1 not in G.adjacency[0]

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


class TestNeighbourMaps:
    @settings(max_examples=200, deadline=None)
    @given(G=_graphs_from_every_builder())
    def test_maps_hold_exactly_the_edges_in_ascending_key_order(self, G):
        for u, v, w in edge_list(G):
            assert G.adjacency[u][v] == G.adjacency[v][u] == w
            assert G.weight(u, v) == G.weight(v, u) == w
            assert v in G.adjacency[u] and u in G.adjacency[v]
        assert sum(len(nbrs) for nbrs in G.adjacency) == 2 * G.m
        for nbrs in G.adjacency:
            assert list(nbrs) == sorted(nbrs)
        present = {(u, v) for u, v, _ in edge_list(G)}
        for u in range(G.n):
            for v in range(G.n):
                if (min(u, v), max(u, v)) in present:
                    continue
                assert v not in G.adjacency[u]
                with pytest.raises(ValidationError, match="no edge"):
                    G.weight(u, v)


class TestColumnsFirst:
    """Columns are the stored form and the one edge list; `adjacency` is built on first read."""

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
        assert G._adjacency is None  # m, unit and the columns do not build it
        assert_same_graph(G, WeightedGraph(n, edges[::-1]))

    @pytest.mark.parametrize("real", [False, True])
    def test_greedy_driver_builds_neither_edges_nor_adjacency(self, real):
        G = generate(GeneratorSpec("sparse-random", 5, {"n": 300, "m": 600, "real": real}))
        for H in (G, parse_instance(format_instance(G))):
            solve_bounded_degree(H)
            assert H._adjacency is None

    def test_adjacency_is_built_once(self):
        G = random_graph(2, 20, 40)
        assert G.adjacency is G.adjacency
        assert not hasattr(G, "edges")  # the columns are the one edge list


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
        x = [rng.randrange(3) - 1 if zeros else rng.sign() for _ in range(n)]
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
        delta = 2.0 * sum(w * x[u] * x[v] for u, w in G.adjacency[v].items())
        x[v] = -x[v]
        assert evaluate(G, x) == pytest.approx(before - delta, abs=1e-9)


class TestAssignment:
    def test_entries_must_be_signs(self):
        with pytest.raises(ValidationError):
            Assignment((1, 0), 0.0)

    @pytest.mark.parametrize("bad", [0, 2, -2, 0.5, -1.5, float("nan")])
    def test_any_non_sign_entry_is_rejected(self, bad):
        with pytest.raises(ValidationError):
            Assignment((1, -1, bad, 1), 0.0)

    def test_entries_equal_to_a_sign_are_accepted(self):
        # the check compares by value, so True and 1.0 count as +1
        assert Assignment((True, 1.0, -1.0, -1), 0.0).values == (True, 1.0, -1.0, -1)
        assert Assignment((), 0.0).values == ()

    def test_solution_caches_value(self):
        G = WeightedGraph(2, [(0, 1, -2.0)])
        a = solution(G, [1, -1])
        assert a.value == 2.0


class TestNormalizeNonneg:
    def test_single_negative_edge_flips_second_vertex(self):
        G = WeightedGraph(2, [(0, 1, -1.0)])
        a = normalize_nonneg(G)
        assert a.values == (1, -1)
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
    def test_no_cross_edges_adds_values(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        _, val = combine_disjoint(G, {0: 1, 1: 1}, {2: 1, 3: 1})
        assert val == 2.0

    def test_positive_cross_edge_kept_unflipped(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
        signs, val = combine_disjoint(G, {0: 1, 1: 1}, {2: 1, 3: 1})
        assert val == 3.0
        assert signs == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_negative_cross_contribution_flips_first(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, -1.0)])
        signs, val = combine_disjoint(G, {0: 1, 1: 1}, {2: 1, 3: 1})
        assert val == 3.0
        assert signs[0] == signs[1] == -1

    def test_overlap_rejected(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            combine_disjoint(G, {0: 1}, {0: 1, 1: 1})

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_never_loses_value_on_random_splits(self, seed):
        G = sample_small(seed)
        left = {v: 1 for v in range(G.n) if (seed >> v) & 1}
        right = {v: -1 if v % 2 else 1 for v in range(G.n) if v not in left}
        z1 = evaluate_partial(G, left)
        z2 = evaluate_partial(G, right)
        _, val = combine_disjoint(G, left, right)
        assert val >= z1 + z2 - 1e-9


class TestExtendFromInduced:
    def test_full_vertex_set_is_identity(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, -1.0)])
        a = extend_from_induced(G, {0: 1, 1: 1, 2: -1})
        assert a.values == (1, 1, -1)

    def test_path_completion_keeps_edge_value(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        a = extend_from_induced(G, {0: 1, 1: 1})
        assert a.value >= 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_never_below_induced_value(self, seed):
        G = sample_small(seed)
        sub = {v: -1 if (seed >> v) & 2 else 1 for v in range(G.n) if (seed >> v) & 1}
        sub_val = evaluate_partial(G, sub)
        a = extend_from_induced(G, sub)
        assert a.value >= sub_val - 1e-9


def _random_blocks(seed: int, n: int, k: int):
    """Random block ids (dense, -1 for left out) and inner signs."""
    rng = SplitMix64(seed)
    raw = [rng.randrange(k + 1) - 1 for _ in range(n)]
    dense = {b: i for i, b in enumerate(sorted(set(raw) - {-1}))}
    block_of = [dense.get(b, -1) for b in raw]
    inner = [rng.sign() for _ in range(n)]
    return block_of, inner


class TestGlueBlocks:
    def test_two_singletons_negative_edge_flips_later(self):
        G = WeightedGraph(2, [(0, 1, -2.0)])
        assert glue_blocks(G, [1, 0], [1, 1]) == ([-1, 1], 2.0)

    def test_tie_keeps_block_unflipped(self):
        G = WeightedGraph(3, [(0, 2, 1.0), (1, 2, -1.0)])
        assert glue_blocks(G, [0, 0, 1], [1, 1, 1]) == ([1, 1, 1], 0.0)

    def test_left_out_vertices_get_zero_and_no_value(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 5.0)])
        assert glue_blocks(G, [0, 1, -1], [1, 1, -1]) == ([1, 1, 0], 1.0)

    def test_length_mismatch_rejected(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            glue_blocks(G, [0], [1, 1])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 8))
    def test_every_block_gains_against_earlier_blocks(self, seed, k):
        G = sample_small(seed)
        block_of, inner = _random_blocks(seed, G.n, k)
        signs, value = glue_blocks(G, block_of, inner)
        flip = {}
        for v, b in enumerate(block_of):
            if b < 0:
                assert signs[v] == 0
            else:
                assert flip.setdefault(b, signs[v] * inner[v]) == signs[v] * inner[v]
        inner_total = 0.0
        back = dict.fromkeys(flip, 0.0)
        for u, v, w in edge_list(G):
            bu, bv = block_of[u], block_of[v]
            if bu < 0 or bv < 0:
                continue
            if bu == bv:
                inner_total += w * inner[u] * inner[v]
            else:
                back[max(bu, bv)] += w * signs[u] * signs[v]
        for b, c in back.items():
            assert c >= -1e-9
            if flip[b] == -1:  # flipped only when unflipped would lose value
                assert c > 0
        included = {v: s for v, s in enumerate(signs) if s}
        assert value == pytest.approx(evaluate_partial(G, included), abs=1e-9)
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
        sub = {v: (-1) ** v for v in range(0, G.n, 7)}
        assert extend_from_induced(G, sub).values == reference_extend(G, sub)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_normalize_nonneg(self, seed):
        G = sample_small(seed)
        assert normalize_nonneg(G).values == tuple(
            reference_scan(G, range(G.n))[v] for v in range(G.n)
        )
        start = solution(G, _random_blocks(seed, G.n, 1)[1])
        ref = reference_scan(G, range(G.n), dict(enumerate(start.values)))
        assert normalize_nonneg(G, start).values == tuple(ref[v] for v in range(G.n))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_extend_from_induced(self, seed):
        G = sample_small(seed)
        block_of, inner = _random_blocks(seed, G.n, 1)
        sub = {v: inner[v] for v in range(G.n) if block_of[v] == 0}
        assert extend_from_induced(G, sub).values == reference_extend(G, sub)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_combine_disjoint(self, seed):
        G = sample_small(seed)
        block_of, inner = _random_blocks(seed, G.n, 2)
        x1 = {v: inner[v] for v in range(G.n) if block_of[v] == 0}
        x2 = {v: inner[v] for v in range(G.n) if block_of[v] == 1}
        signs, val = combine_disjoint(G, x1, x2)
        assert signs == reference_combine(G, x1, x2)
        assert val == pytest.approx(evaluate_partial(G, signs), abs=1e-9)


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
        d, order = degeneracy_order(WeightedGraph(16, edges))
        assert d == 2
        assert sorted(order) == list(range(16))

    def test_bounds_between_quantities(self):
        for seed in range(30):
            G = sample_small(seed)
            st_ = stats(G)
            assert st_.degeneracy <= st_.max_degree
            assert st_.density <= st_.max_degree


class TestDegeneracyOrder:
    """degeneracy_order on neighbour lists cut from the columns, against the
    bucket queue over `G.adjacency`."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_as_reference_with_isolated_vertices(self, seed):
        n = 1 + seed % 45
        H = random_graph(8000 + seed, n, [n // 3, n, 3 * n, n * n][seed % 4], real=seed % 2 == 1)
        G = WeightedGraph(n + seed % 4, edge_list(H))  # up to 3 isolated vertices last
        got = degeneracy_order(G)
        assert G._adjacency is None
        assert got == reference_degeneracy_order(G)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        G = WeightedGraph(n, [])
        got = degeneracy_order(G)
        assert G._adjacency is None
        assert got == reference_degeneracy_order(G) == (0, list(range(n))[::-1])


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
        assert old_of == [0, 2, 4]
        assert edge_list(H) == [(0, 1, 1.0), (1, 2, -2.0)]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_same_graph_as_validating_constructor(self, seed, data):
        G = sample_small(seed)
        picked = data.draw(st.lists(st.integers(0, G.n - 1), max_size=2 * G.n))
        H, old_of = induced_subgraph(G, picked)
        assert old_of == sorted(set(picked))
        edges = [
            (j, i, G.weight(b, a))
            for i, a in enumerate(old_of)
            for j, b in enumerate(old_of)
            if j > i and b in G.adjacency[a]
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

    def test_rejects_vertex_out_of_range(self):
        G = WeightedGraph(3, [(0, 1, 1.0)])
        for bad in ([0, 3], [-1, 2]):
            with pytest.raises(ValidationError, match="out of range"):
                induced_subgraph(G, bad)
