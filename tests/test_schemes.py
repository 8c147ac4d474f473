"""BFS layering, Baker-style residue deletion, and the partition scheme."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import maxqp.schemes
from maxqp import (
    CapacityError,
    ValidationError,
    VertexPartition,
    WeightedGraph,
    bfs_layers,
    brute_force,
    solve_baker,
    solve_exact,
    solve_partition_scheme,
)
from maxqp.graph import degrees
from maxqp.oracle import GeneratorSpec, generate
from maxqp.schemes import layer_residues, parse_partition

from util import (
    edge_list,
    heuristic_partition,
    layers_of,
    partition_of,
    parts,
    random_graph,
    reference_baker,
    reference_bfs_layers,
    reference_partition_scheme,
    residue_classes,
    signs_and_value,
)


def _grid(rows, cols, seed=1):
    return generate(GeneratorSpec("grid-spin-glass", seed, {"rows": rows, "cols": cols}))


def _classes(residue, classes):
    """The vertices of each residue class, in id order."""
    return [np.flatnonzero(residue == i).tolist() for i in range(classes)]


class TestBfsLayers:
    def test_star_from_center(self):
        G = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
        layer_of = bfs_layers(G)
        assert layer_of.dtype == np.int64 and layer_of.tolist() == [0, 1, 1, 1, 1]
        assert layers_of(layer_of) == ((0,), (1, 2, 3, 4))

    def test_path_from_end(self):
        G = WeightedGraph(5, [(i, i + 1, 1.0) for i in range(4)])
        assert layers_of(bfs_layers(G)) == ((0,), (1,), (2,), (3,), (4,))

    def test_grid_from_corner_layer_sizes(self):
        layers = layers_of(bfs_layers(_grid(4, 4)))
        assert [len(layer) for layer in layers] == [1, 2, 3, 4, 3, 2, 1]

    def test_disconnected_components_all_layered(self):
        G = WeightedGraph(5, [(0, 1, 1.0), (3, 4, 1.0)])
        assert all(li >= 0 for li in bfs_layers(G))

    def test_edges_stay_within_adjacent_layers(self):
        for seed in range(60):
            G = random_graph(seed, 10, 3 + seed % 15)
            layer_of = bfs_layers(G)
            for u, v, _ in edge_list(G):
                assert abs(layer_of[u] - layer_of[v]) <= 1

    def test_matches_the_frontier_set_reference(self):
        graphs = [WeightedGraph(0, []), WeightedGraph(1, []), WeightedGraph(6, [])]
        graphs += [random_graph(700 + s, 2 + s % 40, s % 50, real=s % 3 == 0) for s in range(120)]
        several = isolated = 0
        for G in graphs:
            ref = reference_bfs_layers(G)
            layer_of = bfs_layers(G)
            assert layer_of.dtype == np.int64 and layer_of.tolist() == ref
            several += ref.count(0) > 1  # one 0 per component
            isolated += (degrees(G) == 0).any()
        assert several > 60 and isolated > 60

    def test_residue_classes_partition_vertices(self):
        G = _grid(3, 5)
        residue, classes = layer_residues(G, 3)
        assert classes == 3
        assert ((0 <= residue) & (residue < classes)).all()
        assert _classes(residue, classes) == residue_classes(bfs_layers(G).tolist(), 3)

    def test_residue_classes_past_the_layers_are_one_empty_class(self):
        G = _grid(3, 5)  # 7 layers from vertex 0
        layer_of = bfs_layers(G).tolist()
        for k in (1, 3, 7, 8, 9, 400, 10**12, 10**30):
            residue, classes = layer_residues(G, k)
            ref = residue_classes(layer_of, k)
            assert classes == len(ref) == min(k, 8)
            assert _classes(residue, classes) == ref
        assert residue_classes((), 5) == [[]]
        residue, classes = layer_residues(WeightedGraph(0, []), 5)
        assert (residue.tolist(), classes) == ([], 1)


class TestBaker:
    def test_path_is_solved_exactly(self):
        G = WeightedGraph(6, [(i, i + 1, 1.0 if i % 2 else -1.0) for i in range(5)])
        r = solve_baker(G, 0.5)
        assert r.value == 5.0
        assert r.certificate["k"] == 8

    def test_small_grid_all_classes_empty_gives_optimum(self):
        G = _grid(4, 4, seed=3)
        opt = brute_force(G).value
        r = solve_baker(G, 0.5)  # k=8 exceeds the layer count, some class empty
        assert r.value == opt
        assert r.guarantee == Fraction(1, 2)

    def test_six_by_six_grid_meets_guarantee(self):
        G = _grid(6, 6, seed=11)
        opt = solve_exact(G).assignment
        r = solve_baker(G, 0.5)
        assert r.value >= 0.5 * opt.value - 1e-9

    def test_epsilon_validation(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            solve_baker(G, 0.0)
        with pytest.raises(ValidationError):
            solve_baker(G, 1.5)

    @pytest.mark.parametrize("rows, cols, seed", [(4, 4, 3), (6, 6, 11), (3, 9, 5), (8, 8, 2)])
    def test_same_result_as_solving_every_class(self, rows, cols, seed):
        # k = 80 is far past the layer count, so most classes are empty
        G = _grid(rows, cols, seed=seed)
        r, ref = solve_baker(G, 0.05), reference_baker(G, 0.05)
        assert signs_and_value(r.assignment) == signs_and_value(ref.assignment)
        assert (r.guarantee, r.certificate) == (ref.guarantee, ref.certificate)

    def test_tiny_epsilon_solves_the_empty_class_once(self):
        G = _grid(6, 6, seed=4)
        start = time.perf_counter()
        r = solve_baker(G, 1e-9)
        assert time.perf_counter() - start < 1.0
        assert r.value == solve_exact(G).value
        assert r.certificate["k"] == 4 * 10**9
        assert r.certificate["chosen_class"] <= 11  # 11 layers: class 11 is the first empty one

    @pytest.mark.parametrize("eps", [1e-320, 5e-324])
    def test_epsilon_whose_class_count_overflows_is_refused(self, eps):
        # 4/eps and 6h/eps are inf; at 1e-300 they are finite, and k is their ceiling
        G = _grid(4, 4, seed=6)  # m/n = 24/16: h = 2
        for solve in (solve_baker, solve_partition_scheme):
            with pytest.raises(ValidationError, match="is too small"):
                solve(G, eps)
        assert solve_baker(G, 1e-300).certificate["k"] == math.ceil(4 / 1e-300)
        assert solve_partition_scheme(G, 1e-300).certificate["k"] == math.ceil(12 / 1e-300)

    def test_epsilon_one_allows_any_value(self):
        G = _grid(3, 3, seed=2)
        r = solve_baker(G, 1.0)
        assert r.certificate["k"] == 4
        assert r.guarantee == Fraction(0)
        assert r.value >= 0.0


class TestPartitions:
    def test_external_partition_accepted(self):
        source = np.array([0, 0, 1], dtype=np.int32)
        P = VertexPartition(source, 2)
        source[0] = 1
        assert P.part_of.tolist() == [0, 0, 1]
        assert P.part_of.dtype == np.int64 and not P.part_of.flags.writeable
        assert P.k == 2

    @pytest.mark.parametrize(
        "part_of, k",
        [
            (np.zeros((2, 2), dtype=np.int64), 2),  # not one vector
            (np.array([0.0, 1.0]), 2),  # not integers
            (np.array([True, False]), 2),
            (np.array([0, -1, 1]), 2),  # an entry below 0
            (np.array([0, 2, 1]), 2),  # an entry at k
            (np.array([0, 0]), 0),  # no part
        ],
    )
    def test_form_outside_0_to_k_refused(self, part_of, k):
        with pytest.raises(ValidationError, match=r"parts in 0\.\.k-1"):
            VertexPartition(part_of, k)

    def test_external_partition_must_cover(self):
        with pytest.raises(ValidationError, match="partition does not cover every vertex"):
            parse_partition("1 2\n", 3)

    def test_external_partition_must_be_disjoint(self):
        with pytest.raises(ValidationError, match="partition parts overlap"):
            parse_partition("1 2\n2 3\n", 3)

    def test_heuristic_on_path_alternates_layers(self):
        G = WeightedGraph(6, [(i, i + 1, 1.0) for i in range(5)])
        P = heuristic_partition(G, 2)
        assert parts(P) == ((0, 2, 4), (1, 3, 5))

    def test_heuristic_on_grid_forms_bands(self):
        G = _grid(5, 5)
        P = heuristic_partition(G, 3)
        layer_of = bfs_layers(G)
        for i, part in enumerate(parts(P)):
            assert all(layer_of[v] % 3 == i for v in part)

    def test_heuristic_keeps_k_parts_past_the_layers(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert parts(heuristic_partition(G, 5)) == ((0,), (1,), (2,), (), ())


class TestPartitionScheme:
    def test_perfect_matching_solved_exactly(self):
        G = generate(GeneratorSpec("perfect-matching", 4, {"n": 10}))
        r = solve_partition_scheme(G, 0.5)
        assert r.value == 5.0

    def test_grid_meets_guarantee_with_heuristic_partition(self):
        G = _grid(4, 4, seed=6)
        opt = brute_force(G).value
        r = solve_partition_scheme(G, 0.5)
        assert r.value >= float(r.guarantee) * opt - 1e-9
        assert r.certificate["k"] == 24  # m/n = 24/16 gives h=2, k = 6h/eps

    def test_external_partition_used_as_given(self):
        G = _grid(3, 4, seed=8)
        P = VertexPartition(np.arange(G.n), G.n)
        r = solve_partition_scheme(G, 1.0, partition=P)
        assert r.certificate["k"] == G.n
        assert r.certificate["partition_source"] == "external-file"
        assert r.value >= float(r.guarantee) * brute_force(G).value - 1e-9

    @pytest.mark.parametrize("rows, cols, seed, eps", [(4, 4, 6, 0.5), (8, 8, 1, 0.5), (5, 7, 3, 0.2)])
    def test_same_result_as_solving_every_part(self, rows, cols, seed, eps):
        G = _grid(rows, cols, seed=seed)
        r, ref = solve_partition_scheme(G, eps), reference_partition_scheme(G, eps)
        assert signs_and_value(r.assignment) == signs_and_value(ref.assignment)
        assert (r.guarantee, r.certificate) == (ref.guarantee, ref.certificate)

    def test_repeated_empty_parts_of_an_external_partition(self):
        G = _grid(3, 4, seed=8)
        P = partition_of(G.n, [[], range(6), [], range(6, 12), []])
        r = solve_partition_scheme(G, 1.0, partition=P)
        ref = reference_partition_scheme(G, 1.0, partition=P)
        assert signs_and_value(r.assignment) == signs_and_value(ref.assignment)
        assert r.certificate == ref.certificate
        assert r.certificate["k"] == 5

    def test_external_partition_with_far_more_parts_than_vertices(self):
        # parts 2..10^30 - 1 are empty, so part 2 stands for all of them
        G = _grid(3, 4, seed=8)
        part_of = np.repeat([1, 0], 6)
        r = solve_partition_scheme(G, 1.0, VertexPartition(part_of, 10**30))
        ref = reference_partition_scheme(G, 1.0, partition=VertexPartition(part_of, 3))
        assert signs_and_value(r.assignment) == signs_and_value(ref.assignment)
        assert r.certificate["chosen_part"] == ref.certificate["chosen_part"]
        assert r.certificate["k"] == 10**30

    def test_tiny_epsilon_builds_only_the_classes_that_occur(self):
        # k = 1.2e10 parts, of which the 11 BFS layers and one empty class occur
        G = _grid(6, 6, seed=2)
        start = time.perf_counter()
        r = solve_partition_scheme(G, 1e-9)
        assert time.perf_counter() - start < 1.0
        assert r.certificate["k"] == 12 * 10**9
        ref = reference_partition_scheme(G, 0.05)  # k = 240: the same classes occur
        assert signs_and_value(r.assignment) == signs_and_value(ref.assignment)
        assert r.certificate["chosen_part"] == ref.certificate["chosen_part"]

    def test_partition_of_fewer_vertices_refused(self):
        # vertices 5..7 of the 2 x 4 grid lie in no part
        G = generate(GeneratorSpec("grid-spin-glass", 3, {"rows": 2, "cols": 4}))
        with pytest.raises(ValidationError, match="does not cover exactly the 8 vertices"):
            solve_partition_scheme(G, 0.5, VertexPartition(np.array([0, 0, 1, 1, 1]), 2))

    def test_partition_of_more_vertices_refused(self):
        G = generate(GeneratorSpec("grid-spin-glass", 3, {"rows": 2, "cols": 4}))
        P = VertexPartition(np.repeat([0, 1], 5), 2)
        with pytest.raises(ValidationError, match="does not cover exactly the 8 vertices"):
            solve_partition_scheme(G, 0.5, P)

    def test_rejects_real_weights(self):
        with pytest.raises(ValidationError):
            solve_partition_scheme(WeightedGraph(2, [(0, 1, 0.5)]), 0.5)


class TestRefusalBeforeAnyDP:
    """Every subproblem is decomposed before the one DP run, so a scheme run
    that a subproblem's width refuses builds no DP table."""

    @pytest.fixture
    def dp_calls(self, monkeypatch):
        calls = []
        solve = maxqp.schemes.solve_treewidths

        def counted(pairs):
            calls.append(len(pairs))
            return solve(pairs)

        monkeypatch.setattr(maxqp.schemes, "solve_treewidths", counted)
        return calls

    def test_partition_refused_at_a_later_subproblem(self, dp_calls):
        # G[V_0] .. G[V \ V_1] fit the cap; the fifth subproblem does not
        with pytest.raises(CapacityError, match=r"while solving G\[V \\ V_2\] \(bag of width 21\)"):
            solve_partition_scheme(_grid(18, 18, seed=1), 0.5)
        assert dp_calls == []

    def test_baker_refused_at_a_small_cap(self, dp_calls):
        with pytest.raises(CapacityError, match=r"while solving G_0 \(bag of width 3\)"):
            solve_baker(_grid(8, 8, seed=1), 0.5, width_cap=2)
        assert dp_calls == []

    def test_one_dp_run_per_scheme_run(self, dp_calls):
        solve_baker(_grid(8, 8, seed=1), 0.5)
        solve_partition_scheme(_grid(8, 8, seed=1), 0.5)
        assert dp_calls == [8, 31]  # 15 layers: 15 parts with two subproblems, one empty part
