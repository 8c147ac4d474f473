"""Good/bad predicates, easy packings, and the three approximation drivers."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxqp import (
    EasyPacking,
    ValidationError,
    WeightedGraph,
    brute_force,
    easypack,
    evaluate,
    greedy_sorted_matching,
    induced_subgraph,
    matching_to_solution,
    maximal_matching,
    packing_to_solution,
    solve_bounded_degree,
    solve_degenerate,
    solve_dense,
    star_packing,
    stats,
)
from maxqp.graph import value_tol
from maxqp.oracle import SplitMix64

from util import (
    adjacency,
    check_easy_packing,
    covered,
    edge_is_good,
    edge_list,
    packing,
    parts,
    random_float,
    random_graph,
    random_sign,
    reference_easypack,
    reference_packing_to_solution,
    reference_star_packing,
    sample_small,
    triangle_is_good,
    tutte_matching_size,
    unit_graphs,
)


def _unit_graph(seed, n, m):
    return random_graph(seed, n, m, real=False)


def _centers(P) -> tuple[tuple[int, int], ...]:
    return tuple(map(tuple, P.centers.tolist()))


def _shared_triangles(k: int, t: int, how, sign, perm) -> WeightedGraph:
    """Pairs (2i, 2i+1) for i < k, then t vertices w, each joined to both ends
    of pair i (how(w, i) == 1), to one end (2 or 3) or to none (0); unit
    weights sign(), ids relabelled by perm.  With the identity the maximal
    matching is the pairs, and many unmatched w share the same pairs."""
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    for w in range(2 * k, 2 * k + t):
        for i in range(k):
            h = how(w, i)
            edges += [(2 * i, w)] * (h in (1, 2)) + [(2 * i + 1, w)] * (h in (1, 3))
    return WeightedGraph(2 * k + t, [(perm[u], perm[v], sign()) for u, v in edges])


@st.composite
def _triangle_rich_graphs(draw) -> WeightedGraph:
    k, t = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    hows = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3]), min_size=k * t, max_size=k * t))
    signs = iter(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=2 * k * t + k, max_size=2 * k * t + k)))
    perm = draw(st.one_of(st.just(range(2 * k + t)), st.permutations(range(2 * k + t))))
    return _shared_triangles(k, t, lambda w, i: hows[(w - 2 * k) * k + i], lambda: next(signs), perm)


class TestPredicates:
    def test_positive_edge_equal_signs_is_good(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        assert edge_is_good(G, [1, 1], 0, 1)
        assert not edge_is_good(G, [1, -1], 0, 1)

    def test_triangle_product_sign(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
        assert not triangle_is_good(G, 0, 1, 2)
        H = WeightedGraph(3, [(0, 1, -1.0), (1, 2, -1.0), (0, 2, 1.0)])
        assert triangle_is_good(H, 0, 1, 2)

    def test_triangle_predicate_requires_unit_weights(self):
        G = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 1.0), (0, 2, 1.0)])
        with pytest.raises(ValidationError):
            triangle_is_good(G, 0, 1, 2)


class TestMatchingToSolution:
    def test_single_negative_edge_opposite_signs(self):
        G = WeightedGraph(2, [(0, 1, -1.0)])
        a = matching_to_solution(G, greedy_sorted_matching(G))
        assert a.values[0] != a.values[1]
        assert a.value == 1.0

    def test_two_disjoint_weighted_edges(self):
        G = WeightedGraph(4, [(0, 1, 2.0), (2, 3, -3.0)])
        a = matching_to_solution(G, greedy_sorted_matching(G))
        assert a.value >= 5.0

    def test_value_at_least_matching_weight_on_random_graphs(self):
        for seed in range(120):
            G = sample_small(seed)
            for M in (greedy_sorted_matching(G), maximal_matching(G)):
                a = matching_to_solution(G, M)
                assert a.value >= M.total_abs_weight - 1e-9
                assert a.value == pytest.approx(evaluate(G, a.values), abs=1e-9)


class TestPackingToSolution:
    def test_star_all_positive(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        P = packing(4, parts=((0, 1, 2, 3),), centers=((0, 1),), edge_count=3)
        check_easy_packing(G, P)
        assert packing_to_solution(G, P).value == 3.0

    def test_good_triangle_part(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        P = packing(3, parts=((0, 1, 2),), centers=((0, 1),), edge_count=3)
        assert packing_to_solution(G, P).value == 3.0

    def test_rejects_non_unit_instance(self):
        G = WeightedGraph(2, [(0, 1, 2.0)])
        P = packing(2, ((0, 1),), ((0, 1),), 1)
        with pytest.raises(ValidationError):
            packing_to_solution(G, P)


def _same_outcome(G, P):
    """packing_to_solution and the per-part walk give the same signs and
    value, or raise the same ValidationError text."""
    try:
        want = reference_packing_to_solution(G, P)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            packing_to_solution(G, P)
        assert str(got.value) == str(exc)
        return False
    got = packing_to_solution(G, P)
    assert got.values.tolist() == want.values.tolist()
    assert got.value.hex() == want.value.hex()
    return True


class TestPackingToSolutionDifferential:
    """The numpy passes against `reference_packing_to_solution`."""

    @settings(max_examples=150, deadline=None)
    @given(G=unit_graphs(max_isolated=4))
    def test_same_as_reference_on_packer_outputs(self, G):
        assert _same_outcome(G, easypack(G))
        H, _ = induced_subgraph(G, [v for v, nbrs in enumerate(adjacency(G)) if nbrs])
        if H.n:
            assert _same_outcome(H, star_packing(H))

    @pytest.mark.parametrize(
        "edges, parts_, centers, text",
        [
            # the center is no edge
            ([(0, 1, 1.0)], ((0, 2),), ((0, 2),), "no edge (0, 2)"),
            # w(0,2) * w(1,2) * w(0,1) < 0
            ([(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)], ((0, 1, 2),), ((0, 1),), "bad triangle (2, 0, 1)"),
            # centers are oriented as given: (1, 0) has its own triangle text
            ([(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)], ((0, 1, 2),), ((1, 0),), "bad triangle (2, 1, 0)"),
            ([(0, 1, 1.0), (2, 3, 1.0)], ((0, 1, 2),), ((0, 1),), "disconnected at vertex 2"),
            # part 1 fails at vertices 4 (triangle) and 5 (disconnected), part 2
            # at its center: the first part's first vertex is reported
            (
                [(0, 1, 1.0), (2, 3, -1.0), (2, 4, 1.0), (3, 4, 1.0), (6, 7, 1.0)],
                ((0, 1), (2, 3, 4, 5), (6, 8)),
                ((0, 1), (2, 3), (6, 8)),
                "bad triangle (4, 2, 3)",
            ),
            # within a part, a missing center edge comes before its vertices
            ([(0, 2, 1.0), (1, 3, 1.0)], ((0, 1, 2, 4),), ((0, 1),), "no edge (0, 1)"),
            (
                [(0, 1, 1.0), (2, 3, 1.0), (2, 4, 1.0)],
                ((0, 1, 5), (2, 3, 4, 6)),
                ((0, 1), (2, 3)),
                "disconnected at vertex 5",
            ),
        ],
    )
    def test_same_error_text_on_invalid_packings(self, edges, parts_, centers, text):
        n = 1 + max([v for p in parts_ for v in p] + [v for e in edges for v in e[:2]])
        G = WeightedGraph(n, edges)
        P = packing(G.n, parts_, centers, 0)
        assert not _same_outcome(G, P)
        with pytest.raises(ValidationError, match=re.escape(text)):
            packing_to_solution(G, P)

    def test_same_outcome_on_random_packings(self):
        # random disjoint vertex pairs as centers (edges or not) and random
        # parts for the other vertices: valid and invalid packings alike
        outcomes = set()
        for seed in range(400):
            rng = SplitMix64(seed)
            n = 3 + rng.randrange(14)
            G = _unit_graph(3000 + seed, n, rng.randrange(n * (n - 1) // 2 + 1))
            order = list(range(n))
            rng.shuffle(order)
            k = 1 + rng.randrange(n // 2)
            centers = [tuple(order[2 * i : 2 * i + 2]) for i in range(k)]
            groups = [list(c) for c in centers]
            for v in order[2 * k :]:
                b = rng.randrange(k + 2) - 2  # a third of them or so uncovered
                if b >= 0:
                    groups[b].append(v)
            outcomes.add(_same_outcome(G, packing(n, groups, centers, 0)))
        assert outcomes == {False, True}

    def test_rejects_malformed_arrays(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        P = packing(3, ((0, 1, 2),), ((0, 1),), 2)
        with pytest.raises(ValidationError, match="length 2, not n = 3"):
            packing_to_solution(G, EasyPacking(P.centers, P.part_of[:2], 2))
        with pytest.raises(ValidationError, match=re.escape("center (1, 2) is not inside its part 0")):
            packing_to_solution(G, packing(3, ((0, 1),), ((1, 2),), 1))
        with pytest.raises(ValidationError, match="out-of-range"):
            packing_to_solution(G, EasyPacking(P.centers, np.array([0, 0, 1]), 2))


class TestValidator:
    def test_rejects_overlapping_parts(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        # part_of holds one part per vertex: overlapping parts cannot be built
        with pytest.raises(ValidationError, match="not disjoint"):
            packing(3, ((0, 1), (1, 2)), ((0, 1), (1, 2)), 2)
        # a center endpoint assigned to another part is caught by the validator
        P = packing(3, ((0,), (1, 2)), ((0, 1), (1, 2)), 1)
        with pytest.raises(ValidationError, match="center endpoints"):
            check_easy_packing(G, P)

    def test_rejects_outside_vertex_with_non_center_neighbor(self):
        # 0-1 center, 2 and 3 outside but adjacent to each other
        G = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0)])
        P = packing(4, ((0, 1, 2, 3),), ((0, 1),), 4)
        with pytest.raises(ValidationError):
            check_easy_packing(G, P)

    def test_rejects_bad_triangle_inside_part(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
        P = packing(3, ((0, 1, 2),), ((0, 1),), 3)
        with pytest.raises(ValidationError):
            check_easy_packing(G, P)

    def test_rejects_missing_center_edge(self):
        G = WeightedGraph(3, [(0, 1, 1.0)])
        P = packing(3, ((0, 2),), ((0, 2),), 0)
        with pytest.raises(ValidationError):
            check_easy_packing(G, P)


class TestEasypack:
    def test_good_triangle_absorbed_into_one_part(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        P = easypack(G)
        assert parts(P) == ((0, 1, 2),)
        assert P.edge_count == 3

    def test_bad_triangle_third_vertex_left_over(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
        P = easypack(G)
        assert parts(P) == ((0, 1),)
        assert P.edge_count == 1
        assert set(range(G.n)) - covered(P) == {2}

    def test_requires_unit_weights(self):
        with pytest.raises(ValidationError):
            easypack(WeightedGraph(2, [(0, 1, 0.5)]))

    def test_random_outputs_are_valid_and_dense_enough(self):
        for seed in range(120):
            G = _unit_graph(300 + seed, 4 + seed % 9, 2 + seed % 14)
            P = easypack(G)
            check_easy_packing(G, P)
            assert 2 * P.edge_count >= len(covered(P))

    def test_each_center_meets_at_most_one_leftover_triangle(self):
        # leftover non-isolated vertices form at most one triangle per center
        for seed in range(120):
            G = _unit_graph(600 + seed, 5 + seed % 8, 3 + seed % 12)
            P = easypack(G)
            adj = adjacency(G)
            center_vs = set(P.centers.ravel().tolist())
            istar = {v for v in range(G.n) if v not in center_vs and adj[v]}
            for x, y in P.centers.tolist():
                assert len(adj[x].keys() & adj[y].keys() & istar) <= 1


class TestStarPacking:
    def test_path_third_vertex_attaches(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        P = star_packing(G)
        assert parts(P) == ((0, 1, 2),)
        assert P.edge_count == 2

    def test_perfect_matching_is_its_own_packing(self):
        G = WeightedGraph(6, [(0, 1, 1.0), (2, 3, -1.0), (4, 5, 1.0)])
        P = star_packing(G)
        assert P.edge_count == 3
        assert covered(P) == set(range(G.n))

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValidationError):
            star_packing(WeightedGraph(3, [(0, 1, 1.0)]))

    def test_parts_are_stars_and_leftover_bound_holds(self):
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            G = _unit_graph(900 + seed, 4 + seed % 8, 4 + seed % 12)
            adj = adjacency(G)
            if not all(adj):
                continue
            P = star_packing(G)
            check_easy_packing(G, P)
            st = stats(G)
            assert P.edge_count >= G.m / (3 * float(st.density)) - 1e-9
            leftover = set(range(G.n)) - covered(P)
            for part in parts(P):
                # at most one leftover vertex touches each part
                touching = {v for v in leftover if any(u in part for u in adj[v])}
                assert len(touching) <= 1
            checked += 1


class TestPackingDifferential:
    """The indexed packers against the scan-every-center references."""

    @settings(max_examples=150, deadline=None)
    @given(G=unit_graphs(max_isolated=4))
    def test_easypack_same_as_reference(self, G):
        P = easypack(G)
        check_easy_packing(G, P)
        assert (parts(P), _centers(P)) == reference_easypack(G)

    @settings(max_examples=150, deadline=None)
    @given(G=unit_graphs())
    def test_star_packing_same_as_reference(self, G):
        H, _ = induced_subgraph(G, [v for v, nbrs in enumerate(adjacency(G)) if nbrs])
        P = star_packing(H)
        check_easy_packing(H, P)
        assert (parts(P), _centers(P)) == reference_star_packing(H)
        assert len(P.centers) == tutte_matching_size(H)

    @settings(max_examples=200, deadline=None)
    @given(G=_triangle_rich_graphs())
    def test_easypack_same_as_reference_on_shared_triangles(self, G):
        P = easypack(G)
        check_easy_packing(G, P)
        assert (parts(P), _centers(P)) == reference_easypack(G)

    def test_shared_triangles_split_and_refuse_splits(self):
        # seeded: the same reference check, and both outcomes of a pair with
        # two or more free common neighbours occur: split, and refused because
        # an earlier pair took them
        split = refused = 0
        for seed in range(150):
            rng = SplitMix64(7500 + seed)
            k, t = 1 + rng.randrange(6), rng.randrange(10)
            G = _shared_triangles(k, t, lambda w, i: rng.randrange(3), lambda: random_sign(rng), range(2 * k + t))
            P = easypack(G)
            assert (parts(P), _centers(P)) == reference_easypack(G)
            adj = adjacency(G)
            free = set(range(2 * k, 2 * k + t))
            for i in range(k):
                if len(adj[2 * i].keys() & adj[2 * i + 1].keys() & free) >= 2:
                    if (2 * i, 2 * i + 1) in _centers(P):
                        refused += 1
                    else:
                        split += 1
        assert split >= 50 and refused >= 50

    def test_later_pair_sharing_both_free_neighbours_does_not_split(self):
        # pairs (0, 1) and (2, 3); 4 and 5 touch all four: the first pair
        # takes both, so the second has no free common neighbour left
        G = WeightedGraph(6, [(0, 1, 1.0), (2, 3, 1.0)] + [(x, w, 1.0) for x in range(4) for w in (4, 5)])
        P = easypack(G)
        assert _centers(P) == ((0, 4), (1, 5), (2, 3))
        assert (parts(P), _centers(P)) == reference_easypack(G)

    def test_three_common_neighbours_two_smallest_taken(self):
        G = WeightedGraph(5, [(0, 1, 1.0)] + [(x, w, 1.0) for x in (0, 1) for w in (2, 3, 4)])
        P = easypack(G)
        assert _centers(P) == ((0, 2), (1, 3))
        assert (parts(P), _centers(P)) == reference_easypack(G)

    def test_same_as_reference_on_random_graphs(self):
        for seed in range(300):
            n = 10 + seed % 51
            pairs = n * (n - 1) // 2
            G = _unit_graph(7000 + seed, n, [n, 2 * n, pairs // 3, pairs][seed % 4])
            P = easypack(G)
            assert (parts(P), _centers(P)) == reference_easypack(G)
            H, _ = induced_subgraph(G, [v for v, nbrs in enumerate(adjacency(G)) if nbrs])
            P = star_packing(H)
            assert (parts(P), _centers(P)) == reference_star_packing(H)


class TestDrivers:
    def test_disjoint_edges_solved_exactly(self):
        G = WeightedGraph(4, [(0, 1, 2.0), (2, 3, -5.0)])
        r = solve_bounded_degree(G)
        assert r.value == 7.0
        assert r.guarantee == Fraction(1, 2)

    def test_bad_triangle_certificate(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
        r = solve_bounded_degree(G)
        assert r.value >= 3.0 / 4.0
        assert brute_force(G).value == 1.0

    def test_unit_five_cycle(self):
        G = WeightedGraph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
        r = solve_bounded_degree(G)
        assert r.value >= 5.0 / 4.0

    def test_degenerate_driver_good_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        r = solve_degenerate(G)
        assert r.value == 3.0
        assert r.guarantee == Fraction(1, 4)

    def test_degenerate_driver_rejects_real_weights(self):
        with pytest.raises(ValidationError):
            solve_degenerate(WeightedGraph(2, [(0, 1, 0.5)]))

    def test_dense_driver_perfect_matching(self):
        G = WeightedGraph(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, -1.0)])
        r = solve_dense(G)
        assert r.value == 3.0

    def test_dense_driver_strips_isolated_vertices(self):
        G = WeightedGraph(4, [(0, 1, 1.0)])
        r = solve_dense(G)
        assert r.value == 1.0
        assert r.certificate["m"] == 1

    def test_drivers_beat_their_guarantees_on_random_instances(self):
        for seed in range(60):
            G = _unit_graph(1500 + seed, 4 + seed % 9, 3 + seed % 10)
            opt = brute_force(G).value
            r1 = solve_bounded_degree(G)
            assert r1.value >= float(r1.guarantee) * opt - 1e-9
            r2 = solve_degenerate(G)
            assert r2.value >= float(r2.guarantee) * opt - 1e-9
            if all(adjacency(G)):
                r3 = solve_dense(G)
                assert r3.value >= float(r3.guarantee) * opt - 1e-9

    # k real weights near +-1e3 on a perfect matching.  The value and w(M) are
    # sums of the same k terms in different orders; from 1632 pairs (summed in
    # scan order) and 2382 pairs (summed pairwise by numpy) on, they differ by
    # more than an absolute slack of 1e-9.
    @pytest.mark.parametrize("k", [1632, 2382])
    def test_self_check_tolerance_scales_with_total_weight(self, k):
        rng = SplitMix64(4)
        G = WeightedGraph(
            2 * k, [(2 * i, 2 * i + 1, (2 * random_float(rng) - 1) * 1e3 + 1e-3) for i in range(k)]
        )
        r = solve_bounded_degree(G)
        assert r.value == pytest.approx(sum(abs(w) for _, _, w in edge_list(G)), rel=1e-12)
        assert r.value == pytest.approx(evaluate(G, r.assignment.values), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(G=unit_graphs(max_n=40, max_isolated=3))
    def test_degenerate_certificate_is_the_degeneracy(self, G):
        assert solve_degenerate(G).certificate["degeneracy"] == stats(G).degeneracy

    def test_easypack_upper_bound_on_optimum(self):
        # packed vertex count times degeneracy bounds the optimum from above
        for seed in range(60):
            G = _unit_graph(2000 + seed, 4 + seed % 8, 3 + seed % 10)
            if G.m == 0:
                continue
            P = easypack(G)
            d = stats(G).degeneracy
            assert brute_force(G).value <= d * len(covered(P)) + 1e-9


def _naive_degeneracy(G: WeightedGraph) -> int:
    """Largest degree at removal when a vertex of least remaining degree is
    removed each time, found by a full scan per step."""
    adj = adjacency(G)
    alive = set(range(G.n))
    d = 0
    while alive:
        deg = {v: sum(1 for u in adj[v] if u in alive) for v in alive}
        v = min(alive, key=deg.__getitem__)
        d = max(d, deg[v])
        alive.remove(v)
    return d


def _reports_true_value(G: WeightedGraph, r) -> bool:
    return abs(r.value - evaluate(G, r.assignment.values)) <= value_tol(G)


class TestFactorsAgainstBruteForce:
    """Each approximation solver's stated factor against the optimum, on n <= 12."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), density=st.floats(0, 1), seed=st.integers(0, 2**32), real=st.booleans())
    def test_greedy_matching_within_one_over_twice_max_degree(self, n, density, seed, real):
        G = random_graph(seed, n, round(density * n * (n - 1) / 2), real=real)
        r = solve_bounded_degree(G)
        assert _reports_true_value(G, r)
        if G.m:
            delta = max(len(nbrs) for nbrs in adjacency(G))
            assert r.guarantee == Fraction(1, 2 * delta)
            assert r.value >= brute_force(G).value / (2 * delta) - value_tol(G)

    @settings(max_examples=150, deadline=None)
    @given(G=unit_graphs(max_n=12))
    def test_easypack_within_one_over_twice_degeneracy(self, G):
        r = solve_degenerate(G)
        assert _reports_true_value(G, r)
        if G.m:
            d = _naive_degeneracy(G)
            assert r.guarantee == Fraction(1, 2 * d)
            assert r.value >= brute_force(G).value / (2 * d) - value_tol(G)

    @settings(max_examples=150, deadline=None)
    @given(G=unit_graphs(max_n=12))
    def test_star_pack_within_one_over_three_density(self, G):
        # relabel the non-isolated vertices 0..k-1: star-pack's bound needs none isolated
        alive = [v for v, nbrs in enumerate(adjacency(G)) if nbrs]
        new_of = {v: i for i, v in enumerate(alive)}
        H = WeightedGraph(len(alive), [(new_of[u], new_of[v], w) for u, v, w in edge_list(G)])
        if H.m == 0:
            return
        r = solve_dense(H)
        assert _reports_true_value(H, r)
        assert r.guarantee == Fraction(H.n, 3 * H.m)
        assert r.value >= brute_force(H).value * H.n / (3 * H.m) - value_tol(H)
