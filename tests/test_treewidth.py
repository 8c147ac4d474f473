"""Decomposition construction, the array form and its renumbering, and the
exact DP."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxqp import (
    CapacityError,
    InternalError,
    TreeDecomposition,
    ValidationError,
    WeightedGraph,
    brute_force,
    build_decomposition,
    evaluate,
    solve_baker,
    solve_exact,
    solve_partition_scheme,
    solve_treewidth,
    solve_treewidths,
    to_nice,
    validate_decomposition,
)
from maxqp import treewidth
from maxqp.graph import cell_dtype, induced_subgraph, value_tol
from maxqp.treewidth import MAX_DP_WIDTH, cuthill_mckee_order
from maxqp.oracle import GeneratorSpec, SplitMix64, generate
from maxqp.schemes import layer_residues

from util import (
    Links,
    edge_list,
    elimination_decomposition,
    interval_decomposition,
    is_valid_decomposition,
    links,
    random_graph,
    random_sign,
    reference_brute_force,
    reference_bucket_elimination,
    reference_cuthill_mckee,
    reference_min_fill,
    reference_nice_dp,
    reference_to_nice,
    sample_small,
    signs_and_value,
    traced_peak,
    vertex_separation,
)


def _grid(rows, cols, seed=1):
    return generate(GeneratorSpec("grid-spin-glass", seed, {"rows": rows, "cols": cols}))


def _graph(n, pairs, seed):
    """G on n vertices with edges `pairs` and seeded weights in {-2, -1, 1, 2}."""
    w = SplitMix64(seed).draw(len(pairs)) % 4
    return WeightedGraph(n, [(u, v, (-2.0, -1.0, 1.0, 2.0)[int(x)]) for (u, v), x in zip(pairs, w)])


def _non_integral(G):
    """G with every weight times 1.5: the same decompositions, in float64 cells."""
    return WeightedGraph(G.n, [(u, v, 1.5 * w) for u, v, w in edge_list(G)])


def _baker_remainders(G, k=8):
    """G less each residue class of its BFS layers mod k, with its min-fill
    decomposition, as `solve_baker` solves them: bands of narrow bags,
    joined by empty separators, that branch."""
    residue, classes = layer_residues(G, k)
    out = []
    for i in range(classes):
        sub, _ = induced_subgraph(G, np.flatnonzero(residue != i))
        out.append((sub, build_decomposition(sub)))
    return out


def _k_tree(n, k, seed):
    """A random k-tree on n > k vertices with shuffled ids: a (k+1)-clique,
    then each new vertex joined to a random k-clique of the graph so far."""
    rng = SplitMix64(seed)
    cliques = [tuple(range(k + 1))]
    pairs = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        drop = rng.randrange(k + 1)
        face = base[:drop] + base[drop + 1 :]
        pairs += [(u, v) for u in face]
        cliques.append((*face, v))
    perm = [int(i) for i in rng.draw(n).argsort()]
    return _graph(n, [(perm[u], perm[v]) for u, v in pairs], seed)


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


def _assert_matches_reference(G, ref, cap):
    """build_decomposition(G, cap) is `ref`, or refuses at the first bag of
    `ref` wider than `cap` (its bags are in elimination order)."""
    if ref.width > cap:
        with pytest.raises(CapacityError) as exc:
            build_decomposition(G, width_cap=cap)
        assert exc.value.achieved == next(len(b) - 1 for b in ref.bags if len(b) - 1 > cap)
    else:
        assert links(build_decomposition(G, width_cap=cap)) == ref


class TestAgainstReferenceMinFill:
    """The heap-driven elimination must reproduce the full-scan min-fill, bag
    for bag in elimination order."""

    GRIDS = [(1, 1), (1, 7), (2, 9), (4, 4), (5, 11), (8, 8), (10, 10), (12, 15), (15, 15)]

    def test_small_random_graphs(self):
        for seed in range(60):
            G = sample_small(seed)
            assert links(build_decomposition(G, width_cap=G.n)) == reference_min_fill(G)

    def test_grids(self):
        for rows, cols in self.GRIDS:
            G = _grid(rows, cols, seed=rows * 100 + cols)
            ref = reference_min_fill(G)
            assert links(build_decomposition(G, width_cap=ref.width)) == ref

    def test_sparse_random_graphs(self):
        for seed, (n, m) in enumerate([(200, 200), (200, 260), (190, 300), (210, 420)]):
            G = random_graph(500 + seed, n, m, real=seed % 2 == 1)
            ref = reference_min_fill(G)
            assert links(build_decomposition(G, width_cap=ref.width)) == ref

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

    def test_trees_and_k_trees_eliminate_simplicial_vertices(self):
        # every step of a chordal graph is simplicial, so the width is the
        # largest clique's: 1 on a tree, k on a k-tree
        for k in range(1, 6):
            for seed in range(4):
                G = _k_tree(60 + 20 * seed, k, seed)
                ref = reference_min_fill(G)
                assert ref.width == k
                for cap in range(k + 1):
                    _assert_matches_reference(G, ref, cap)

    def test_cliques_and_dense_triangle_heavy_graphs(self):
        # first fills far below C(deg, 2): many triangles at every vertex
        def clique(n):
            return [(u, v) for u in range(n) for v in range(u + 1, n)]

        graphs = [_graph(n, clique(n), n) for n in (2, 3, 9, 24)]
        # K20 less a perfect matching; a hub in 15 triangles that share only the hub
        graphs.append(_graph(20, [(u, v) for u, v in clique(20) if v != u + 10], 1))
        hub = [(0, v) for v in range(1, 31)] + [(v, v + 1) for v in range(1, 31, 2)]
        graphs.append(_graph(31, hub, 2))
        graphs += [random_graph(700 + seed, 30, 300 + 20 * seed) for seed in range(4)]
        for G in graphs:
            ref = reference_min_fill(G)
            for cap in range(ref.width + 1):
                _assert_matches_reference(G, ref, cap)

    def test_many_components_and_isolated_vertices(self):
        # lone bags of isolated vertices and of each component's last vertex
        # chain into one tree
        rng = SplitMix64(5)
        for seed in range(3):
            pairs, n = [], 0
            for part in range(25):
                size = 1 + rng.randrange(7)
                H = random_graph(800 + 100 * seed + part, size, rng.randrange(2 * size))
                pairs += [(n + u, n + v) for u, v, _ in edge_list(H)]
                n += size
            n += 15  # isolated vertices
            perm = [int(i) for i in rng.draw(n).argsort()]
            G = _graph(n, [(perm[u], perm[v]) for u, v in pairs], seed)
            ref = reference_min_fill(G)
            for cap in range(ref.width + 1):
                _assert_matches_reference(G, ref, cap)

    @staticmethod
    def _end_game_starts(monkeypatch) -> list[int]:
        """A list that gets the alive count each time min-fill's end game starts."""
        starts = []
        dense_end = treewidth._dense_end

        def spy(adj, fill, order, width_cap):
            starts.append(sum(f >= 0 for f in fill))
            dense_end(adj, fill, order, width_cap)

        monkeypatch.setattr(treewidth, "_dense_end", spy)
        return starts

    def test_end_game_on_sparse_graphs_like_auto_default(self, monkeypatch):
        # auto-default's sparse instances: the end game starts before the
        # refusal at cap 20 and in every run to the reference width
        starts = self._end_game_starts(monkeypatch)
        for seed in (1000, 1001, 1002):
            G = random_graph(seed, 350, 700, real=True)
            ref = reference_min_fill(G)
            for cap in (20, ref.width):
                starts.clear()
                _assert_matches_reference(G, ref, cap)
                assert len(starts) == 1
            for cap in range(2, 31):
                _assert_matches_reference(G, ref, cap)

    def test_end_game_holds_the_one_component_left(self, monkeypatch):
        # components of at most 7 vertices never reach fill 16, so they are
        # gone when the sparse one starts the end game: it starts with as
        # many vertices alive as on the sparse component alone
        starts = self._end_game_starts(monkeypatch)
        sparse = random_graph(1001, 350, 700)
        build_decomposition(sparse, width_cap=sparse.n)
        rng = SplitMix64(6)
        pairs, n = [(u, v) for u, v, _ in edge_list(sparse)], sparse.n
        for part in range(30):
            size = 1 + rng.randrange(7)
            H = random_graph(1100 + part, size, rng.randrange(2 * size))
            pairs += [(n + u, n + v) for u, v, _ in edge_list(H)]
            n += size
        G = _graph(n + 10, pairs, 6)  # and 10 isolated vertices
        ref = reference_min_fill(G)
        for cap in (20, ref.width):
            _assert_matches_reference(G, ref, cap)
        assert starts[1:] == starts[:1] * 2

    def test_end_game_pops_simplicial_vertices(self, monkeypatch):
        # K(8, 70): the first pop, a vertex of the 70 side (fill 28, 78
        # alive), starts the end game and joins the 8 side into a clique;
        # the other 69 are then simplicial and pop at fill 0
        starts = self._end_game_starts(monkeypatch)
        perm = [int(i) for i in SplitMix64(11).draw(78).argsort()]
        G = _graph(78, [(perm[a], perm[b]) for a in range(8) for b in range(8, 78)], 11)
        ref = reference_min_fill(G)
        assert ref.width == 8
        for cap in range(ref.width + 1):
            _assert_matches_reference(G, ref, cap)
        assert starts == [78] * (ref.width + 1)

    def test_sparse_refusal_memory(self):
        # the end game frees the alive vertices' sets for a small matrix:
        # peak 0.38 MB here, 0.50 MB with the sets to the refusal
        G = random_graph(1000, 350, 700, real=True)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build_decomposition(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 420_000

    @pytest.mark.parametrize("n", [0, 1])
    def test_graphs_with_no_edge_to_eliminate(self, n):
        G = WeightedGraph(n, [])
        td = build_decomposition(G, width_cap=0)
        assert links(td) == reference_min_fill(G) == Links(((0,),) * n, (None,) * n, 0)
        assert td.off.tolist() == list(range(n + 1))

    def test_star_builds_without_a_pair_per_hub_wedge(self):
        # the hub has C(20000, 2) = 2e8 neighbour pairs, 1.6 GB as an int64
        # array; counting triangles per edge keeps the peak near the 11 MiB
        # of the adjacency sets
        leaves = 20000
        hub = leaves // 2
        G = WeightedGraph(leaves + 1, [(hub, v, 1.0) for v in range(leaves + 1) if v != hub])
        gc.collect()
        tracemalloc.start()
        try:
            td = build_decomposition(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert links(td).width == 1 and len(td.off) == leaves + 2  # a bag per vertex


class TestValidateDecomposition:
    def test_rejects_uncovered_edge(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        td = to_nice(((0, 1), (2,)), (None, 0), 0)
        with pytest.raises(ValidationError):
            validate_decomposition(G, td)

    def test_rejects_cyclic_tree_links(self):
        # bags 2 and 3 point at each other; bag 0 is the only root
        G = WeightedGraph(2, [(0, 1, -1.0)])
        with pytest.raises(ValidationError, match="cycle"):
            to_nice(((0,), (1,), (0, 1), (0, 1)), (None, 0, 3, 2), 0)

    def test_rejects_second_root_and_unknown_parent(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        for parent in [(None, None), (None, 5), (1, 0)]:
            with pytest.raises(ValidationError):
                to_nice(((0, 1), (1,)), parent, 0)

    def test_rejects_disconnected_vertex_trace(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        td = to_nice(((0, 1), (1,), (1, 2), (0,)), (None, 0, 1, 2), 0)
        with pytest.raises(ValidationError):
            validate_decomposition(G, td)

    @pytest.mark.parametrize("root", [0, 2])
    def test_dp_rejects_disconnected_trace_without_validation(self, root):
        # every vertex and edge is covered, but vertex 0 is in bags 0 and 2 only
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        parent = (None, 0, 1) if root == 0 else (1, 2, None)
        td = to_nice(((0, 1), (1, 2), (0, 2)), parent, root)
        with pytest.raises(ValidationError, match="vertex 0 are not connected"):
            solve_treewidth(G, td)

    def test_dp_rejects_uncovered_edge_without_validation(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        td = to_nice(((0, 1), (1, 2)), (None, 0), 0)
        with pytest.raises(ValidationError, match=r"edge \(0, 2\) covered by no bag"):
            solve_treewidth(G, td)

    def test_rejects_a_bag_listing_a_vertex_twice(self):
        # refused when the array form is built, before any graph is seen
        with pytest.raises(ValidationError, match="a bag lists vertex 1 twice"):
            to_nice(((0, 1, 1), (1, 2)), (None, 0), 0)
        with pytest.raises(ValidationError, match="lists vertex 1 twice"):
            TreeDecomposition([0, 3, 5], [0, 1, 1, 1, 2], [1, -1])

    def test_bag_naming_a_vertex_of_an_empty_graph_is_refused(self):
        G = WeightedGraph(0, [])
        bad = (to_nice(((0,),), (None,), 0), to_nice(((), (0,)), (None, 0), 0))
        for td in bad:
            with pytest.raises(ValidationError, match="mentions vertex 0"):
                validate_decomposition(G, td)
            with pytest.raises(ValidationError, match="mentions vertex 0"):
                solve_treewidth(G, td)
        empty = to_nice(((),), (None,), 0)
        validate_decomposition(G, empty)
        assert signs_and_value(solve_treewidth(G, empty)) == ([], 0.0)
        assert signs_and_value(solve_treewidth(G, to_nice((), (), 0))) == ([], 0.0)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_dp_rejects_unknown_vertex_without_validation(self, bad):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        td = to_nice(((0, 1, 2), (2, bad)), (None, 0), 0)
        with pytest.raises(ValidationError, match=r"outside 0\.\.2"):
            solve_treewidth(G, td)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_random_edits_rejected_exactly_when_invalid(self, seed, data):
        G = sample_small(seed)
        order = list(range(G.n))
        SplitMix64(seed).shuffle(order)
        td = links(elimination_decomposition(G, order))
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
        td = Links(tuple(map(tuple, bags)), tuple(parent), root)
        if is_valid_decomposition(G, td):
            validate_decomposition(G, to_nice(*td))
        else:  # refused by to_nice's tree checks or by the DP's own
            with pytest.raises(ValidationError):
                validate_decomposition(G, to_nice(*td))
            with pytest.raises(ValidationError):
                solve_treewidth(G, to_nice(*td))


def _check_postorder(td, out):
    """to_nice keeps the bags and width, numbers children first, root last."""
    td, lk = links(td), links(out)
    assert sorted(map(sorted, lk.bags)) == sorted(map(sorted, td.bags))
    assert out.width == td.width
    assert lk.root == len(lk.bags) - 1 and lk.parent[lk.root] is None
    assert all(p > i for i, p in enumerate(lk.parent) if p is not None)
    assert all(list(bag) == sorted(bag) for bag in lk.bags)


class TestToNice:
    def test_single_edge_root_is_last(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        td = Links(((1, 0), (1,)), (None, 0), 0)
        out = to_nice(*td)
        validate_decomposition(G, out)
        _check_postorder(td, out)
        assert out.bags == ((1,), (0, 1))

    def test_star_keeps_width(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        td = build_decomposition(G)
        _check_postorder(td, to_nice(*links(td)))
        assert td.width == 1

    def test_idempotent(self):
        for seed in range(150):
            G = sample_small(seed)
            order = list(range(G.n))
            SplitMix64(seed).shuffle(order)
            for td in (build_decomposition(G), elimination_decomposition(G, order)):
                once = links(to_nice(*links(td)))
                assert links(to_nice(*once)) == once

    def test_random_conversions_keep_bags_and_number_children_first(self):
        for seed in range(60):
            G = sample_small(seed)
            order = list(range(G.n))
            SplitMix64(seed).shuffle(order)
            for td in (build_decomposition(G), elimination_decomposition(G, order)):
                out = to_nice(*links(td))
                _check_postorder(td, out)
                validate_decomposition(G, out)


class TestArrayForm:
    """The constructor refuses every broken invariant of the array form."""

    @pytest.mark.parametrize(
        "off, flat, parent, match",
        [
            ([0, 1, 2], [0, 1], [0, -1], "bag 0 of 2 has parent 0: want a later bag"),
            ([0, 1, 2, 3], [0, 1, 2], [2, 0, -1], "bag 1 of 3 has parent 0"),
            ([0, 1, 2, 3], [0, 1, 2], [2, -1, 1], "bag 1 of 3 has parent -1"),  # root not last
            ([0, 1, 2], [0, 1], [1, 0], "bag 1 of 2 has parent 0"),  # no root
            ([0, 1, 2], [0, 1], [-1, -1], "bag 0 of 2 has parent -1"),
            ([0, 1, 2], [0, 1], [5, -1], "bag 0 of 2 has parent 5"),
            ([0, 2, 3], [1, 0, 2], [1, -1], "bag 0 is not sorted"),
            ([0, 2, 3], [1, 1, 2], [1, -1], "a bag lists vertex 1 twice"),
            ([0, 2], [0, 1], [1, -1], "bag offsets"),
            ([1, 2], [0, 1], [-1], "bag offsets"),
            ([0, 2, 1], [0], [1, -1], "bag offsets"),
        ],
    )
    def test_broken_invariants_are_refused(self, off, flat, parent, match):
        with pytest.raises(ValidationError, match=match):
            TreeDecomposition(off, flat, parent)

    def test_empty_bags_and_the_form_with_no_bag_are_accepted(self):
        td = TreeDecomposition([0, 2, 2, 4], [0, 1, 1, 2], [2, 2, -1])
        assert td.bags == ((0, 1), (), (1, 2)) and td.width == 1
        assert not td.flat.flags.writeable
        empty = TreeDecomposition([0], [], [])
        assert empty.bags == () and empty.width == 0


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
        td = links(elimination_decomposition(G, order))
        k = len(td.bags)
        parent = list(td.parent)
        node, above = data.draw(st.integers(0, k - 1)), None
        while node is not None:  # reverse the links on the path to the old root
            parent[node], above, node = above, node, parent[node]
        perm = data.draw(st.permutations(range(k)))
        new_of = {old: new for new, old in enumerate(perm)}
        shuffled = to_nice(
            tuple(tuple(data.draw(st.permutations(td.bags[old]))) for old in perm),
            tuple(None if parent[old] is None else new_of[parent[old]] for old in perm),
            new_of[parent.index(None)],
        )
        validate_decomposition(G, shuffled)
        a = solve_treewidth(G, shuffled)
        assert abs(a.value - brute_force(G).value) <= value_tol(G)
        b = solve_treewidth(G, to_nice(*links(shuffled)))
        assert signs_and_value(a) == signs_and_value(b)

    def test_wider_than_the_dp_limit_is_refused_before_any_table(self):
        n = MAX_DP_WIDTH + 2
        G = WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
        td = to_nice((tuple(range(n)),), (None,), 0)
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
                edges.append((rng.randrange(v), v, float(random_sign(rng)) * (1 + rng.randrange(3))))
            G = WeightedGraph(n, edges)
            r = solve_exact(G)
            a, width = r.assignment, r.certificate["width"]
            assert width <= 1
            assert a.value == sum(abs(w) for _, _, w in edge_list(G))

    def test_edge_order_invariance(self):
        base = [(0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, -1.0)]
        G1 = WeightedGraph(4, base)
        G2 = WeightedGraph(4, list(reversed(base)))
        a1 = solve_exact(G1).assignment
        a2 = solve_exact(G2).assignment
        assert a1.values.tolist() == a2.values.tolist()
        assert a1.value == a2.value

    def test_grid_spin_glass_matches_brute_force(self):
        G = _grid(4, 4, seed=9)
        a = solve_exact(G).assignment
        assert a.value == brute_force(G).value
        assert a.value == evaluate(G, a.values)


def _planted(total):
    """A 3x3 grid plus two chords whose signed weights all agree with planted
    signs, so its one optimum is sum |w| = total: 13 weights of 1 to 3 and
    one heavy edge that makes up the rest (non-integral when total is)."""
    rng = SplitMix64(int(total))
    x = [1] + [1 - 2 * int(rng.draw(1)[0] & 1) for _ in range(8)]
    pairs = [(u, u + 1) for u in range(9) if u % 3 < 2] + [(u, u + 3) for u in range(6)]
    pairs += [(0, 8), (2, 6)]
    size = [1 + int(r % 3) for r in rng.draw(len(pairs) - 1)]
    size.insert(0, total - sum(size))
    return WeightedGraph(9, [(u, v, x[u] * x[v] * w) for (u, v), w in zip(pairs, size)])


class TestCellType:
    """Both exact solvers hold their tables in `cell_dtype(G)`; on either
    side of each type's bound they answer as the float64 references.  The
    optimum is sum |w| itself, so a type one size too small wraps it."""

    CASES = [
        (127, "int8"),
        (128, "int16"),
        (32767, "int16"),
        (32768, "int32"),
        (2**31 - 1, "int32"),
        (2**31, "float64"),
        (127.5, "float64"),
    ]

    @pytest.mark.parametrize("total, cells", CASES)
    def test_type_bounds_and_answers(self, total, cells):
        G = _planted(total)
        assert float(sum(abs(w) for _, _, w in edge_list(G))) == total
        assert cell_dtype(G) == cells
        ref = signs_and_value(reference_brute_force(G))
        assert ref[1] == total
        assert signs_and_value(brute_force(G)) == ref
        for td in (build_decomposition(G), interval_decomposition(G, range(G.n))):
            assert signs_and_value(solve_treewidth(G, td)) == ref
            assert signs_and_value(reference_bucket_elimination(G, td)) == ref

    def test_one_run_takes_the_widest_type_of_its_pairs(self):
        graphs = [_planted(total) for total, _ in self.CASES]
        pairs = [(G, build_decomposition(G)) for G in graphs]
        for (G, _), a in zip(pairs, solve_treewidths(pairs)):
            assert signs_and_value(a) == signs_and_value(reference_brute_force(G))


def _dp_pair(G, td):
    new, ref = solve_treewidth(G, td), reference_nice_dp(G, reference_to_nice(td))
    return signs_and_value(new), signs_and_value(ref)


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
        # 13x13 grid: width 17, largest half table 2^17 cells, so the bound
        # is four of them: 2 * 2^17 bytes each in the unit grid's int16
        # cells (the peak is near 2.7 of them), 8 * 2^17 in float64 (near
        # 2); keeping every full float64 table (the reference DP) peaks
        # near 40
        unit = _grid(13, 13)
        for G in (unit, _non_integral(unit)):
            td = build_decomposition(G)
            largest = cell_dtype(G).itemsize << td.width
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
    td = links(td)
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
    return to_nice(
        tuple(tuple(bags[i]) for i in kept),
        tuple(None if parent[i] is None else new[parent[i]] for i in kept),
        new[td.root],
    )


def _add_empty_leaves(td, attach):
    """One empty bag below each bag index in `attach` (taken modulo the count)."""
    td = links(td)
    k = len(td.bags)
    return to_nice(
        td.bags + ((),) * len(attach),
        td.parent + tuple(a % k for a in attach),
        td.root,
    )


def _shuffled(td, seed):
    """The same tree, its bags renumbered by a random permutation and each
    bag's vertices shuffled, put back in the array form by to_nice."""
    td = links(td)
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
    return to_nice(tuple(bags), parent, new[td.root])


def _pinned_elsewhere(td):
    """How many bags send a message pinned at a vertex other than their
    parent's pin, by the rule solve_treewidth documents: vertices ranked by
    (forget bag, -id), a bag's pin is its last vertex in that order."""
    td = links(td)
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
            td = to_nice((tuple(range(G.n)),), (None,), 0)
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
        assert new == ref == signs_and_value(a)

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


def _hung_under_a_wide_bag(G1, G2):
    """G1 and G2 side by side (G2's ids after G1's), decomposed by G1's
    min-fill decomposition with G2's hung below G1's first bag that has two
    vertices and a child: an empty separator, so G2's root sends a 0-d
    message that shifts every cell of that bag's table."""
    n1 = G1.n
    edges = edge_list(G1) + [(u + n1, v + n1, w) for u, v, w in edge_list(G2)]
    t1, t2 = links(build_decomposition(G1)), links(build_decomposition(G2))
    at = next(i for i, b in enumerate(t1.bags) if len(b) >= 2 and i in t1.parent)
    k1 = len(t1.bags)
    bags = t1.bags + tuple(tuple(v + n1 for v in b) for b in t2.bags)
    parent = t1.parent + tuple(at if p is None else p + k1 for p in t2.parent)
    return WeightedGraph(n1 + G2.n, edges), to_nice(bags, parent, t1.root)


def _wide_grids_side_by_side():
    """Three 8x8 grids side by side (each one's ids after the previous
    ones') with their min-fill decomposition: wide bags of the three grids
    interleave in its numbering."""
    edges, n = [], 0
    for seed in range(3):
        G = _grid(8, 8, seed=seed)
        edges += [(u + n, v + n, w) for u, v, w in edge_list(G)]
        n += G.n
    G = WeightedGraph(n, edges)
    return G, build_decomposition(G)


class TestSolveTreewidths:
    """All pairs in one run give each pair the signs of a run of it alone
    and of the nice-form reference DP."""

    def _pairs(self):
        pairs = [(WeightedGraph(0, []), to_nice((), (), 0))]
        graphs = [_grid(r, c, seed=r * c) for r, c in [(1, 1), (3, 3), (4, 7), (6, 6), (2, 12)]]
        graphs += [random_graph(800 + s, 40, 45 + 5 * s, real=True) for s in range(6)]
        graphs += [random_graph(900 + s, 30, 12, real=True) for s in range(3)]  # many components
        graphs += [sample_small(seed) for seed in range(40)]
        for i, G in enumerate(graphs):
            pairs.append((G, build_decomposition(G)))
            order = list(range(G.n))
            SplitMix64(i).shuffle(order)
            pairs.append((G, elimination_decomposition(G, order)))
            pairs.append((G, interval_decomposition(G, cuthill_mckee_order(G))))
        for s in range(4):
            small = random_graph(1000 + s, 12, 20, real=True)
            large = random_graph(1100 + s, 40, 70, real=True)
            pairs.append(_hung_under_a_wide_bag(small, large))
            pairs.append(_hung_under_a_wide_bag(large, small))
        pairs.append(_wide_grids_side_by_side())
        return pairs

    def test_same_signs_as_alone_and_as_the_references(self):
        pairs = self._pairs()
        together = solve_treewidths(pairs)
        assert len(together) == len(pairs)
        for (G, td), a in zip(pairs, together):
            validate_decomposition(G, td)
            alone = solve_treewidth(G, td)
            ref = reference_nice_dp(G, reference_to_nice(td))
            assert signs_and_value(a) == signs_and_value(alone) == signs_and_value(ref)
            assert signs_and_value(a) == signs_and_value(reference_bucket_elimination(G, td))

    def test_same_roundings_as_the_per_bag_loop(self):
        # weights 1e16 apart make a sum depend on its order, so a cell that
        # got its additions in another order would often compare otherwise
        weights = [1e16, -1e16, 1.0, -1.0, 3.0, -3.0, 0.5]
        pairs = []
        for seed in range(400):
            rng = SplitMix64(seed)
            n = 8 + rng.randrange(9)
            edges = {}
            for _ in range(2 * n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges[min(u, v), max(u, v)] = weights[rng.randrange(len(weights))]
            G = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
            order = list(range(n))
            rng.shuffle(order)
            pairs.append((G, elimination_decomposition(G, order)))
        graphs = [G for G, _ in pairs]
        pairs += [_hung_under_a_wide_bag(G1, G2) for G1, G2 in zip(graphs[:20], graphs[20:40])]
        for (G, td), a in zip(pairs, solve_treewidths(pairs)):
            assert signs_and_value(a) == signs_and_value(reference_bucket_elimination(G, td))

    @staticmethod
    def _wide_pairs():
        """Tables of 10 to 16 axes, weights from an order-sensitive set: the
        interval form of grids and min-fill decompositions of random graphs."""
        weights = [1e16, -1e16, 1.0, -1.0, 3.0, -3.0, 0.5]

        def reweighted(G, seed):
            draw = SplitMix64(seed).draw(G.m) % len(weights)
            edges = [(u, v, weights[int(x)]) for (u, v, _), x in zip(edge_list(G), draw)]
            return WeightedGraph(G.n, edges)

        pairs = []
        for r, c in [(12, 12), (13, 13), (14, 14), (12, 20), (14, 20)]:
            G = reweighted(_grid(r, c), r * c)
            pairs.append((G, interval_decomposition(G, cuthill_mckee_order(G))))
        for n, m in [(34, 85), (40, 100), (44, 120), (46, 130)]:
            for s in range(4):
                G = reweighted(random_graph(3000 + s, n, m), n + s)
                pairs.append((G, build_decomposition(G)))
        assert {td.width for _, td in pairs} == set(range(10, 17))
        return pairs

    @staticmethod
    def _narrow_pairs():
        """Baker remainders of a grid, in unit weights and as a non-integral
        copy: many branching pieces of narrow bags."""
        unit = _baker_remainders(_grid(12, 12))
        return unit + [(_non_integral(G), td) for G, td in unit]

    @pytest.mark.parametrize("long_axes", [treewidth.LONG_TERM_AXES, 64, 0])
    def test_wide_tables_round_as_the_per_bag_loop(self, monkeypatch, long_axes):
        # edge terms written out over a table's last axes, over the whole
        # table, or never, and bags of up to that many axes run by height:
        # each cell must get the same additions in the same order as in the
        # per-bag loop
        monkeypatch.setattr(treewidth, "LONG_TERM_AXES", long_axes)
        pairs = self._wide_pairs() + self._narrow_pairs()
        together = solve_treewidths(pairs)
        for (G, td), a in zip(pairs, together):
            ref = signs_and_value(reference_bucket_elimination(G, td))
            assert signs_and_value(a) == signs_and_value(solve_treewidth(G, td)) == ref

    def test_an_invalid_pair_is_refused_before_any_table(self):
        # the 13x13 grid alone would allocate tables of 2 * 2^17 bytes
        G = _grid(13, 13)
        assert cell_dtype(G) == "int16"
        bad = to_nice(((0, 1), (1, 2)), (None, 0), 0)
        triangle = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        pairs = [(G, build_decomposition(G)), (triangle, bad), (G, build_decomposition(G))]
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"edge \(0, 2\) covered by no bag"):
                solve_treewidths(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 17

    def test_narrow_bags_run_once_their_children_have(self):
        # a bag of at most LONG_TERM_AXES axes runs at the step after its
        # latest child's (0 for a leaf), a wider one at its own number
        narrow = _baker_remainders(_grid(10, 10))
        wide = self._wide_pairs()
        mixed = [_hung_under_a_wide_bag(G1, G2) for (G1, _), (G2, _) in zip(wide[5:], narrow)]
        moved = kept = 0
        for G, td in narrow + wide + mixed + [_wide_grids_side_by_side()]:
            t = links(td)
            step = treewidth._prepare(G, td, MAX_DP_WIDTH).step.tolist()
            latest = [-1] * len(t.bags)
            for i, p in enumerate(t.parent):
                if len(t.bags[i]) - 1 <= treewidth.LONG_TERM_AXES:
                    assert step[i] == latest[i] + 1
                    moved += step[i] != i
                else:
                    assert step[i] == i > latest[i]
                    kept += 1
                if p is not None:
                    latest[p] = max(latest[p], step[i])
        assert moved >= 100 and kept >= 100

    def test_baker_peak_memory_runs_narrow_bags_by_height(self):
        # the 40x40 grid's remainders are bands of bags of width 4 or less.
        # The peak is reached while the DP lists its sub-batches, before any
        # table; run by height, the bands make half as many of them as in
        # the piece order of each band: near 4.9 MiB, against 5.7 MiB
        G = _grid(40, 40)
        assert G.unit
        gc.collect()
        tracemalloc.start()
        try:
            solve_baker(G, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.3 * 2**20

    def test_baker_peak_memory_with_one_problem_for_all_pairs(self):
        # the remainders' columns are concatenated into one problem, each
        # pair's copy freed once concatenated, and the DP drops each link and
        # edge column once sorted: near 3.7 MiB, against 4.86 MiB when every
        # pair's columns lived beside their concatenation and sorted copies
        G = _grid(40, 40)
        assert G.unit
        assert traced_peak(lambda: solve_baker(G, 0.5)) < 4.2 * 2**20

    def test_strip_peak_memory_follows_the_piece_order(self):
        # the width-20 strip runs its bags one at a time, children first, as
        # in a run of its own.  In float64 cells that peaks near 13.8 MiB,
        # where running all bags of one height together keeps two wide
        # branches alive, near 15.3 MiB.  In the unit grid's int16 cells the
        # widest table's steps set the peak, near 4.7 MiB in either order
        unit = generate(GeneratorSpec("grid-spin-glass", 1002, {"rows": 14, "cols": 30}))
        for G, bound in ((unit, 5.0), (_non_integral(unit), 14.6)):
            td = build_decomposition(G)
            tracemalloc.start()
            try:
                solve_treewidths([(G, td)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert td.width == 20
            assert peak < bound * 2**20

    def test_one_run_over_a_mixed_list(self):
        # pairs whose bag, entry and edge offsets all differ in the one
        # problem: no vertex, one vertex, no edge; int8, int16 and float64
        # cells; narrow and wide bags
        none, one, edgeless = WeightedGraph(0, []), WeightedGraph(1, []), WeightedGraph(7, [])
        wide = _grid(12, 12, seed=5)
        pairs = [(none, to_nice((), (), 0)), (one, build_decomposition(one))]
        pairs += [(edgeless, build_decomposition(edgeless)), (_planted(127), None)]
        pairs += [(wide, interval_decomposition(wide, cuthill_mckee_order(wide)))]
        pairs += _baker_remainders(_grid(10, 10, seed=6))[:3]
        pairs += [(_non_integral(wide), None), (none, to_nice((), (), 0))]
        pairs = [(G, build_decomposition(G) if td is None else td) for G, td in pairs]
        assert {"int8", "int16", "float64"} <= {str(cell_dtype(G)) for G, _ in pairs}
        widths = {td.width for _, td in pairs}
        assert min(widths) <= treewidth.LONG_TERM_AXES < max(widths)
        together = solve_treewidths(pairs)
        assert len(together) == len(pairs)
        for (G, td), a in zip(pairs, together):
            ref = signs_and_value(reference_bucket_elimination(G, td))
            assert signs_and_value(a) == signs_and_value(solve_treewidth(G, td)) == ref
        # an invalid pair among them is refused with its own 0-based vertex
        triangle = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        bad = (triangle, to_nice(((0, 1),), (None,), 0))
        with pytest.raises(ValidationError, match=r"^vertex 2 appears in no bag$"):
            solve_treewidths(pairs[:4] + [bad] + pairs[4:])

    def test_backtracked_value_is_checked_against_the_dp_optimum(self, monkeypatch):
        G = _grid(4, 4)
        pairs = [(G, build_decomposition(G)), (G, interval_decomposition(G, range(G.n)))]
        monkeypatch.setattr(treewidth, "evaluate", lambda G, x: evaluate(G, x) + 1.0)
        for td in (pair[1] for pair in pairs):
            with pytest.raises(InternalError, match="DP optimum"):
                solve_treewidth(G, td)
        with pytest.raises(InternalError, match="DP optimum"):
            solve_treewidths(pairs)


class TestNoSolvePathRenumbers:
    """The builders number their bags as the DP runs them, so no solver
    calls the renumbering step."""

    def test_every_solver_answers_with_to_nice_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("to_nice called on a solve path")

        graphs = [_grid(4, 5, seed=3), _grid(2, 9, seed=4)]  # grids
        graphs += [random_graph(1200 + s, 16, 24, real=s == 1) for s in range(3)]  # sparse
        graphs += [random_graph(1300 + s, 18, 8) for s in range(2)]  # several components
        graphs += [WeightedGraph(0, []), WeightedGraph(1, []), WeightedGraph(6, [])]
        monkeypatch.setattr(treewidth, "to_nice", refuse)
        pairs = []
        for G in graphs:
            opt = brute_force(G).value
            assert abs(solve_exact(G, G.n).value - opt) <= value_tol(G)
            schemes = [solve_baker(G, 0.5)]
            if G.unit:
                schemes.append(solve_partition_scheme(G, 0.5))
            for r in schemes:
                assert r.value == evaluate(G, r.assignment.values) <= opt + value_tol(G)
            pairs += [(G, build_decomposition(G, G.n)), (G, interval_decomposition(G, range(G.n)))]
        for (G, _), a in zip(pairs, solve_treewidths(pairs)):
            assert abs(a.value - brute_force(G).value) <= value_tol(G)


def _interval_cases():
    """Random graphs, plus the builder's edge cases: n = 1, edgeless graphs,
    isolated vertices and several components, also with degree ties."""
    graphs = [sample_small(seed) for seed in range(80)]
    graphs += [WeightedGraph(1, []), WeightedGraph(6, [])]
    graphs += [random_graph(300 + s, 14, 4 + 2 * s, real=s % 2 == 1) for s in range(8)]
    graphs += [_grid(3, 4, seed=2), _grid(5, 2, seed=3)]
    # several components with degree ties, their ids interleaved: a triangle
    # and a 4-cycle with two isolated vertices, and two grids
    ring = [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (5, 7), (1, 7)]
    graphs.append(WeightedGraph(9, [(u, v, 1.0) for u, v in ring]))
    a, b = edge_list(_grid(3, 3, seed=4)), edge_list(_grid(2, 4, seed=5))
    evens = [(2 * u, 2 * v, w) for u, v, w in a]
    graphs.append(WeightedGraph(17, evens + [(2 * u + 1, 2 * v + 1, w) for u, v, w in b]))
    return graphs


def _cells(td):
    return sum(1 << max(len(b) - 1, 0) for b in td.bags)


class TestIntervalDecomposition:
    def test_cuthill_mckee_order_is_the_reference_permutation(self):
        for G in _interval_cases():
            order = cuthill_mckee_order(G)
            assert sorted(order) == list(range(G.n))
            assert order == reference_cuthill_mckee(G)

    def test_cuthill_mckee_order_peak_on_a_long_path(self):
        # the sweeps read the flat lists of one neighbour array; a list per
        # vertex took 346 bytes a vertex here, the flat lists about 250
        n = 200_000
        G = _grid(1, n)
        gc.collect()
        tracemalloc.start()
        try:
            order = cuthill_mckee_order(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * n
        assert order == list(range(n - 1, -1, -1))  # from the far end of the first sweep

    def test_valid_with_the_width_of_the_reversed_vertex_separation(self):
        for seed, G in enumerate(_interval_cases()):
            shuffled = list(range(G.n))
            SplitMix64(seed).shuffle(shuffled)
            for order in (shuffled, cuthill_mckee_order(G)):
                td = interval_decomposition(G, order)
                validate_decomposition(G, td)
                assert is_valid_decomposition(G, td)
                assert td.parent.tolist() == [*range(1, G.n), -1]
                assert all(v in bag for v, bag in zip(order, td.bags))
                assert td.width == vertex_separation(G, order[::-1])

    def test_edgeless_and_empty_graphs(self):
        assert links(interval_decomposition(WeightedGraph(0, []), [])) == Links((), (), 0)
        with pytest.raises(ValidationError, match="each of the 0 vertices once"):
            interval_decomposition(WeightedGraph(0, []), [0])
        td = interval_decomposition(WeightedGraph(3, []), [2, 0, 1])
        assert td.bags == ((2,), (0,), (1,)) and td.width == 0

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 3], [0, 1, -1], [[0, 1, 2]]])
    def test_an_order_that_is_not_a_permutation_is_refused(self, order):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValidationError, match="each of the 3 vertices once"):
            interval_decomposition(G, order)

    def test_every_builder_and_the_chooser_reach_the_optimum(self):
        for seed in range(150):
            G = sample_small(seed)
            shuffled = list(range(G.n))
            SplitMix64(seed).shuffle(shuffled)
            opt = brute_force(G).value
            tds = [build_decomposition(G, G.n), interval_decomposition(G, shuffled)]
            tds.append(interval_decomposition(G, cuthill_mckee_order(G)))
            for td in tds:
                assert abs(solve_treewidth(G, td).value - opt) <= value_tol(G)
            assert abs(solve_exact(G, G.n).value - opt) <= value_tol(G)

    def test_the_chooser_runs_the_decomposition_with_fewer_cells(self):
        graphs = [_grid(r, c, seed=r * c) for r, c in [(8, 8), (9, 12), (10, 11), (12, 12)]]
        graphs += [sample_small(seed) for seed in range(60)]
        graphs += [random_graph(400 + s, 40, 60) for s in range(4)]
        picked_interval = 0
        for G in graphs:
            mf = build_decomposition(G)
            iv = interval_decomposition(G, cuthill_mckee_order(G))
            use = iv if _cells(iv) < _cells(mf) else mf  # ties keep min-fill
            picked_interval += use is iv
            r = solve_exact(G)
            assert r.certificate == {"width": use.width}
            assert signs_and_value(r.assignment) == signs_and_value(solve_treewidth(G, use))
        assert picked_interval >= 3

    def test_a_star_keeps_min_fill(self):
        G = WeightedGraph(41, [(0, v, 1.0 if v % 2 else -1.0) for v in range(1, 41)])
        assert interval_decomposition(G, cuthill_mckee_order(G)).width == 39
        r = solve_exact(G)
        assert r.certificate == {"width": 1}
        assert r.value == 40.0

    def test_grid_width_is_at_most_the_short_side(self):
        for rows in range(3, 13):
            for cols in range(rows, 13):
                G = _grid(rows, cols, seed=rows * 100 + cols)
                assert interval_decomposition(G, cuthill_mckee_order(G)).width <= rows

    def test_answers_where_only_the_interval_form_fits_the_cap(self):
        G = _grid(8, 8, seed=3)
        with pytest.raises(CapacityError):
            build_decomposition(G, width_cap=8)
        r = solve_exact(G, width_cap=8)
        assert r.certificate == {"width": 8}
        assert r.value == solve_exact(G, width_cap=20).value

    def test_refusal_is_min_fills_when_neither_fits(self):
        G = _grid(12, 12, seed=5)
        with pytest.raises(CapacityError) as mf:
            build_decomposition(G, width_cap=9)
        with pytest.raises(CapacityError) as exc:
            solve_exact(G, width_cap=9)
        assert (str(exc.value), exc.value.achieved) == (str(mf.value), mf.value.achieved)

    @pytest.mark.parametrize("cap", [8, 9])
    def test_a_refused_min_fill_leaves_no_cycle(self, cap):
        # A cycle through the error's traceback would keep min-fill's frame,
        # its sets and heap, alive until the cyclic collector next runs.
        G = _grid(12, 12, seed=5) if cap == 9 else _grid(8, 8, seed=3)
        gc.collect()
        gc.disable()
        try:
            try:
                solve_exact(G, width_cap=cap)
            except CapacityError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()
