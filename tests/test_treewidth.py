"""Decomposition construction, bag renumbering, and the exact DP."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxqp import (
    CapacityError,
    TreeDecomposition,
    ValidationError,
    WeightedGraph,
    brute_force,
    build_decomposition,
    evaluate,
    solve_exact,
    solve_treewidth,
    to_nice,
    validate_decomposition,
)
from maxqp.graph import value_tol
from maxqp.treewidth import MAX_DP_WIDTH
from maxqp.oracle import GeneratorSpec, SplitMix64, generate

from util import (
    elimination_decomposition,
    is_valid_decomposition,
    random_graph,
    reference_min_fill,
    reference_nice_dp,
    reference_to_nice,
    sample_small,
)


def _grid(rows, cols, seed=1):
    return generate(GeneratorSpec("grid-spin-glass", seed, {"rows": rows, "cols": cols}))


class TestBuildDecomposition:
    def test_path_has_width_one(self):
        G = WeightedGraph(5, [(i, i + 1, 1.0) for i in range(4)])
        td = build_decomposition(G)
        validate_decomposition(G, td)
        assert td.width == 1

    def test_triangle_has_width_two(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        td = build_decomposition(G)
        validate_decomposition(G, td)
        assert td.width == 2

    def test_grid_width_within_heuristic_bound(self):
        G = _grid(4, 4)
        td = build_decomposition(G)
        validate_decomposition(G, td)
        assert td.width <= 4

    def test_width_cap_raises_capacity_error(self):
        n = 10
        G = WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
        with pytest.raises(CapacityError) as exc:
            build_decomposition(G, width_cap=5)
        assert exc.value.achieved > 5

    def test_random_decompositions_are_valid(self):
        for seed in range(60):
            G = sample_small(seed)
            td = build_decomposition(G)
            validate_decomposition(G, td)


def _as_tuple(td):
    return td.bags, td.parent, td.root


def _assert_matches_reference(G, ref, cap):
    """build_decomposition(G, cap) is `ref`, or refuses at the first bag of
    `ref` wider than `cap` (its bags are in elimination order)."""
    if ref.width > cap:
        with pytest.raises(CapacityError) as exc:
            build_decomposition(G, width_cap=cap)
        assert exc.value.achieved == next(len(b) - 1 for b in ref.bags if len(b) - 1 > cap)
    else:
        assert _as_tuple(build_decomposition(G, width_cap=cap)) == _as_tuple(ref)


class TestAgainstReferenceMinFill:
    """The heap-driven elimination must reproduce the full-scan min-fill."""

    GRIDS = [(1, 1), (1, 7), (2, 9), (4, 4), (5, 11), (8, 8), (10, 10), (12, 15), (15, 15)]

    def test_small_random_graphs(self):
        for seed in range(60):
            G = sample_small(seed)
            assert _as_tuple(build_decomposition(G, width_cap=G.n)) == _as_tuple(
                reference_min_fill(G)
            )

    def test_grids(self):
        for rows, cols in self.GRIDS:
            G = _grid(rows, cols, seed=rows * 100 + cols)
            ref = reference_min_fill(G)
            assert _as_tuple(build_decomposition(G, width_cap=ref.width)) == _as_tuple(ref)

    def test_sparse_random_graphs(self):
        for seed, (n, m) in enumerate([(200, 200), (200, 260), (190, 300), (210, 420)]):
            G = random_graph(500 + seed, n, m, real=seed % 2 == 1)
            ref = reference_min_fill(G)
            assert _as_tuple(build_decomposition(G, width_cap=ref.width)) == _as_tuple(ref)

    def test_refuses_exactly_when_reference_width_exceeds_cap(self):
        graphs = [_grid(r, c, seed=7) for r, c in [(6, 6), (10, 12), (15, 15)]]
        graphs += [random_graph(900 + s, 200, m) for s, m in enumerate((220, 260, 400))]
        for G in graphs:
            ref = reference_min_fill(G)
            for cap in range(2, 21):
                _assert_matches_reference(G, ref, cap)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_reference_from_forests_to_dense_graphs(self, data):
        # dense graphs add many fill edges with common neighbours, the case
        # sparse graphs and grids barely reach
        n = data.draw(st.integers(1, 40), label="n")
        m = data.draw(st.integers(0, max(n - 1, n * n // 4)), label="m")
        seed = data.draw(st.integers(0, 10**6), label="seed")
        cap = data.draw(st.integers(1, n), label="cap")
        G = random_graph(seed, n, m)
        _assert_matches_reference(G, reference_min_fill(G), cap)


class TestValidateDecomposition:
    def test_rejects_uncovered_edge(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        td = TreeDecomposition(((0, 1), (2,)), (None, 0), 0)
        with pytest.raises(ValidationError):
            validate_decomposition(G, td)

    def test_rejects_cyclic_tree_links(self):
        # bags 2 and 3 point at each other; bag 0 is the only root
        G = WeightedGraph(2, [(0, 1, -1.0)])
        td = TreeDecomposition(((0,), (1,), (0, 1), (0, 1)), (None, 0, 3, 2), 0)
        with pytest.raises(ValidationError, match="cycle"):
            validate_decomposition(G, td)

    def test_rejects_second_root_and_unknown_parent(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        for parent in [(None, None), (None, 5), (1, 0)]:
            with pytest.raises(ValidationError):
                validate_decomposition(G, TreeDecomposition(((0, 1), (1,)), parent, 0))

    def test_rejects_disconnected_vertex_trace(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        td = TreeDecomposition(((0, 1), (1,), (1, 2), (0,)), (None, 0, 1, 2), 0)
        with pytest.raises(ValidationError):
            validate_decomposition(G, td)

    @pytest.mark.parametrize("root", [0, 2])
    def test_dp_rejects_disconnected_trace_without_validation(self, root):
        # every vertex and edge is covered, but vertex 0 is in bags 0 and 2 only
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        parent = (None, 0, 1) if root == 0 else (1, 2, None)
        td = TreeDecomposition(((0, 1), (1, 2), (0, 2)), parent, root)
        with pytest.raises(ValidationError, match="vertex 0 are not connected"):
            solve_treewidth(G, td)

    def test_dp_rejects_uncovered_edge_without_validation(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        td = TreeDecomposition(((0, 1), (1, 2)), (None, 0), 0)
        with pytest.raises(ValidationError, match=r"edge \(0, 2\) covered by no bag"):
            solve_treewidth(G, td)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_dp_rejects_unknown_vertex_without_validation(self, bad):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        td = TreeDecomposition(((0, 1, 2), (2, bad)), (None, 0), 0)
        with pytest.raises(ValidationError, match=r"outside 0\.\.2"):
            solve_treewidth(G, td)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_random_edits_rejected_exactly_when_invalid(self, seed, data):
        G = sample_small(seed)
        order = list(range(G.n))
        SplitMix64(seed).shuffle(order)
        td = elimination_decomposition(G, order)
        bags = [list(b) for b in td.bags]
        parent, root = list(td.parent), td.root
        k = len(bags)
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, k - 1))
            edit = data.draw(st.sampled_from(["drop", "add", "parent", "root"]))
            if edit == "drop" and bags[i]:
                bags[i].remove(data.draw(st.sampled_from(bags[i])))
            elif edit == "add":
                v = data.draw(st.integers(-1, G.n))
                if v not in bags[i]:
                    bags[i].append(v)
            elif edit == "parent":
                parent[i] = data.draw(st.one_of(st.none(), st.integers(-1, k)))
            else:
                root = data.draw(st.integers(0, k - 1))
        td = TreeDecomposition(tuple(map(tuple, bags)), tuple(parent), root)
        if is_valid_decomposition(G, td):
            validate_decomposition(G, td)
        else:
            with pytest.raises(ValidationError):
                validate_decomposition(G, td)
            with pytest.raises(ValidationError):  # the DP's own checks
                solve_treewidth(G, td)


def _check_postorder(td, out):
    """to_nice keeps the bags and width, numbers children first, root last."""
    assert sorted(map(sorted, out.bags)) == sorted(map(sorted, td.bags))
    assert out.width == td.width
    assert out.root == len(out.bags) - 1 and out.parent[out.root] is None
    assert all(p > i for i, p in enumerate(out.parent) if p is not None)
    assert all(list(bag) == sorted(bag) for bag in out.bags)


class TestToNice:
    def test_single_edge_root_is_last(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        td = TreeDecomposition(((1, 0), (1,)), (None, 0), 0)
        validate_decomposition(G, td)
        out = to_nice(td)
        _check_postorder(td, out)
        assert out.bags == ((1,), (0, 1))

    def test_star_keeps_width(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        td = build_decomposition(G)
        _check_postorder(td, to_nice(td))
        assert td.width == 1

    def test_idempotent(self):
        for seed in range(150):
            G = sample_small(seed)
            order = list(range(G.n))
            SplitMix64(seed).shuffle(order)
            for td in (build_decomposition(G), elimination_decomposition(G, order)):
                once = to_nice(td)
                assert to_nice(once) == once

    def test_random_conversions_keep_bags_and_number_children_first(self):
        for seed in range(60):
            G = sample_small(seed)
            order = list(range(G.n))
            SplitMix64(seed).shuffle(order)
            for td in (build_decomposition(G), elimination_decomposition(G, order)):
                out = to_nice(td)
                _check_postorder(td, out)
                validate_decomposition(G, out)


class TestSolveTreewidth:
    def test_single_edge(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        a = solve_treewidth(G, build_decomposition(G))
        assert a.value == 1.0
        assert a.values[0] == a.values[1]

    def test_path_with_mixed_signs(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, -1.0)])
        a = solve_treewidth(G, build_decomposition(G))
        assert a.value == 2.0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_any_numbering_root_and_bag_order(self, seed, data):
        # a valid decomposition, re-rooted at a random bag, its bags renumbered
        # by a random permutation and each bag's vertices shuffled
        G = sample_small(seed)
        order = list(range(G.n))
        SplitMix64(seed).shuffle(order)
        td = elimination_decomposition(G, order)
        k = len(td.bags)
        parent = list(td.parent)
        node, above = data.draw(st.integers(0, k - 1)), None
        while node is not None:  # reverse the links on the path to the old root
            parent[node], above, node = above, node, parent[node]
        perm = data.draw(st.permutations(range(k)))
        new_of = {old: new for new, old in enumerate(perm)}
        shuffled = TreeDecomposition(
            tuple(tuple(data.draw(st.permutations(td.bags[old]))) for old in perm),
            tuple(None if parent[old] is None else new_of[parent[old]] for old in perm),
            new_of[parent.index(None)],
        )
        validate_decomposition(G, shuffled)
        a = solve_treewidth(G, shuffled)
        assert abs(a.value - brute_force(G).value) <= value_tol(G)
        b = solve_treewidth(G, to_nice(shuffled))
        assert (a.values, a.value) == (b.values, b.value)

    def test_wider_than_the_dp_limit_is_refused_before_any_table(self):
        n = MAX_DP_WIDTH + 2
        G = WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
        td = TreeDecomposition((tuple(range(n)),), (None,), 0)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="DP limit"):
                solve_treewidth(G, td)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(CapacityError):
            solve_exact(G, width_cap=100)

    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(150):
            G = sample_small(seed)
            a = solve_treewidth(G, build_decomposition(G))
            opt = brute_force(G).value
            if G.unit:
                assert a.value == opt
            else:
                assert a.value == pytest.approx(opt, abs=1e-9)
            assert a.value == pytest.approx(evaluate(G, a.values), abs=1e-9)

    def test_tree_optimum_is_total_absolute_weight(self):
        # on trees every edge can be made good, so opt = sum |w|
        rng = SplitMix64(5)
        for trial in range(20):
            n = 2 + rng.randrange(40)
            edges = []
            for v in range(1, n):
                edges.append((rng.randrange(v), v, float(rng.sign()) * (1 + rng.randrange(3))))
            G = WeightedGraph(n, edges)
            r = solve_exact(G)
            a, width = r.assignment, r.certificate["width"]
            assert width <= 1
            assert a.value == sum(abs(w) for _, _, w in G.edges)

    def test_edge_order_invariance(self):
        base = [(0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, -1.0)]
        G1 = WeightedGraph(4, base)
        G2 = WeightedGraph(4, list(reversed(base)))
        a1 = solve_exact(G1).assignment
        a2 = solve_exact(G2).assignment
        assert a1.values == a2.values
        assert a1.value == a2.value

    def test_grid_spin_glass_matches_brute_force(self):
        G = _grid(4, 4, seed=9)
        a = solve_exact(G).assignment
        assert a.value == brute_force(G).value
        assert a.value == evaluate(G, a.values)


def _dp_pair(G, td):
    new, ref = solve_treewidth(G, to_nice(td)), reference_nice_dp(G, reference_to_nice(td))
    return (new.values, new.value), (ref.values, ref.value)


class TestAgainstReferenceDP:
    """Bucket elimination over the bags picks the nice-form DP's signs."""

    def test_identical_to_reference_on_small_grid_and_sparse_graphs(self):
        graphs = [sample_small(seed) for seed in range(200)]
        graphs += [_grid(k, k, seed=seed) for k in range(3, 11) for seed in range(20)]
        graphs += [random_graph(700 + seed, 60, 90, real=True) for seed in range(10)]
        for G in graphs:
            new, ref = _dp_pair(G, build_decomposition(G))
            assert new == ref

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_elimination_order_matches_brute_force(self, seed):
        # a random order gives bags with several children and, between
        # components, bags that share no vertex with their parent
        G = sample_small(seed)
        order = list(range(G.n))
        SplitMix64(seed).shuffle(order)
        td = elimination_decomposition(G, order)
        validate_decomposition(G, td)
        new, ref = _dp_pair(G, td)
        assert new == ref
        assert new[1] == pytest.approx(brute_force(G).value, abs=1e-9)

    def test_peak_memory_is_a_few_tables(self):
        # 13x13 grid: width 17, largest half table 8 * 2^17 bytes, so the
        # bound is four of them; keeping every full table (the reference DP)
        # peaks near 40
        G = _grid(13, 13)
        td = to_nice(build_decomposition(G))
        largest = 8 << td.width
        tracemalloc.start()
        try:
            solve_treewidth(G, td)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert td.width == 17
        assert peak <= 4 * largest


def _merge_into_parents(td, merge):
    """Merge each non-root bag whose flag is set into its parent.

    Bags are visited children first, so a chain of set flags folds into one
    bag that forgets several vertices at once.  The result is numbered in
    reverse, so to_nice has to renumber it.
    """
    td = to_nice(td)
    bags = [set(b) for b in td.bags]
    parent = list(td.parent)
    alive = [True] * len(bags)
    for i in range(len(bags) - 1):
        if merge[i % len(merge)]:
            p = parent[i]
            bags[p] |= bags[i]
            parent = [p if q == i else q for q in parent]
            alive[i] = False
    kept = [i for i in reversed(range(len(bags))) if alive[i]]
    new = {old: j for j, old in enumerate(kept)}
    return TreeDecomposition(
        tuple(tuple(bags[i]) for i in kept),
        tuple(None if parent[i] is None else new[parent[i]] for i in kept),
        new[td.root],
    )


def _add_empty_leaves(td, attach):
    """One empty bag below each bag index in `attach` (taken modulo the count)."""
    k = len(td.bags)
    return TreeDecomposition(
        td.bags + ((),) * len(attach),
        td.parent + tuple(a % k for a in attach),
        td.root,
    )


def _shuffled(td, seed):
    """The same tree, its bags renumbered by a random permutation and each
    bag's vertices shuffled."""
    rng = SplitMix64(seed)
    perm = list(range(len(td.bags)))
    rng.shuffle(perm)
    new = {old: j for j, old in enumerate(perm)}
    bags = []
    for old in perm:
        bag = list(td.bags[old])
        rng.shuffle(bag)
        bags.append(tuple(bag))
    parent = tuple(None if td.parent[old] is None else new[td.parent[old]] for old in perm)
    return TreeDecomposition(tuple(bags), parent, new[td.root])


def _pinned_elsewhere(td):
    """How many bags send a message pinned at a vertex other than their
    parent's pin, by the rule solve_treewidth documents: vertices ranked by
    (forget bag, -id), a bag's pin is its last vertex in that order."""
    td = to_nice(td)
    forget_at = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            forget_at[v] = i  # bags come children first: the last holder forgets v
    pin = [max(bag, key=lambda v: (forget_at[v], -v), default=None) for bag in td.bags]
    return sum(
        1
        for i, p in enumerate(td.parent)
        if p is not None and pin[i] is not None and forget_at[pin[i]] != i and pin[i] != pin[p]
    )


class TestUnusualDecompositions:
    """Decompositions the min-fill builder never makes are solved as they are,
    with the reference DP's signs."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        single_bag=st.booleans(),
        merge=st.lists(st.booleans(), min_size=1, max_size=12),
        attach=st.lists(st.integers(0, 100), max_size=4),
        shuffle=st.booleans(),
    )
    def test_optimum_on_merged_single_and_empty_bags(
        self, seed, single_bag, merge, attach, shuffle
    ):
        G = sample_small(seed)
        if single_bag:
            td = TreeDecomposition((tuple(range(G.n)),), (None,), 0)
        else:
            order = list(range(G.n))
            SplitMix64(seed).shuffle(order)
            td = _merge_into_parents(elimination_decomposition(G, order), merge)
        td = _add_empty_leaves(td, attach)
        if shuffle:
            td = _shuffled(td, seed)
        validate_decomposition(G, td)
        a = solve_treewidth(G, td)
        assert abs(a.value - brute_force(G).value) <= value_tol(G)
        assert evaluate(G, a.values) == a.value
        new, ref = _dp_pair(G, td)
        assert new == ref == (a.values, a.value)

    def test_messages_pinned_elsewhere_match_the_reference(self):
        # a random elimination order often leaves a child whose kept vertices
        # miss the parent's pin, so its message is added to both halves of
        # the parent's table, the -1 half reading it reversed
        reversed_halves = 0
        for seed in range(300):
            G = sample_small(seed, max_n=14)
            order = list(range(G.n))
            SplitMix64(seed).shuffle(order)
            td = elimination_decomposition(G, order)
            if seed % 2:
                td = _shuffled(_merge_into_parents(td, [seed % 3 == 0, True, False]), seed)
            reversed_halves += _pinned_elsewhere(td)
            new, ref = _dp_pair(G, td)
            assert new == ref
        assert reversed_halves >= 100
