"""Easy packings and the three matching/packing-based approximation drivers.

An *easy* subgraph is a connected split graph whose clique side is a single
center edge, whose remaining (outside) vertices form an independent set
adjacent only to the center endpoints, and which contains no bad triangle
(one whose three unit weights multiply to -1).  Packing disjoint easy
subgraphs yields a solution worth one unit per packed edge on unit-weight
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import InternalError, ValidationError
from .graph import (
    ApproxResult,
    Assignment,
    WeightedGraph,
    degeneracy,
    degrees,
    evaluate,
    glue_blocks,
    induced_subgraph,
    value_tol,
)
from .matching import Matching, greedy_sorted_matching, maximal_matching, maximum_matching


@dataclass(frozen=True, eq=False)
class EasyPacking:
    """Disjoint vertex sets each inducing an easy subgraph of G, as arrays.

    `centers` is a k x 2 int64 array of the center edges in packing order.
    `part_of[v]` is the index of v's part, or -1 when v is uncovered (an int64
    array of length n); part i holds both endpoints of center i.
    `edge_count` is the number of edges inside the parts.
    """

    centers: np.ndarray
    part_of: np.ndarray
    edge_count: int


def _glue_with_rest(G: WeightedGraph, block_of, inner, k: int) -> Assignment:
    """Glue blocks 0..k-1, then each vertex still at block -1 alone, in id order."""
    block_of = np.array(block_of, dtype=np.int64)
    rest = np.flatnonzero(block_of < 0)
    block_of[rest] = k + np.arange(len(rest))
    return glue_blocks(G, block_of, inner)


def matching_to_solution(G: WeightedGraph, M: Matching) -> Assignment:
    """Solution with value >= w(M) in O(n + m).

    Each matched pair is a block oriented so its own edge contributes |a_uv|;
    the pairs are glued on in the row order of `M.edges` (by first vertex),
    then the unmatched vertices one at a time in id order.
    """
    k = len(M.edges)
    block_of = np.full(G.n, -1, dtype=np.int64)
    block_of[M.edges[:, 0]] = block_of[M.edges[:, 1]] = np.arange(k)
    # a pair's own edge is its only inner edge; its later endpoint copies the sign
    eu, ev, ew = G.edge_arrays()
    own = np.flatnonzero(M.partner[eu] == ev)
    inner = np.ones(G.n, dtype=np.int64)
    inner[ev[own]] = np.sign(ew[own])
    return _glue_with_rest(G, block_of, inner, k)


def packing_to_solution(G: WeightedGraph, P: EasyPacking) -> Assignment:
    """Solution with value >= m(F) for a valid easy packing of a unit instance.

    Within each part the center (cu, cv) is oriented cu -> +1, cv -> w(cu, cv);
    every outside vertex copies the sign forced by its edges to the center
    endpoints.  Good-triangle closure makes each in-part edge contribute +1.
    The parts are glued on in packing order, then the leftover vertices one at
    a time in id order.  Numpy passes over the edge columns find every sign.

    Raises ValidationError when `part_of` is not of length n or a center's
    endpoints are not in its own part, and then, first by part and within a
    part by vertex, on a center that is no edge, a bad triangle or an outside
    vertex with no center neighbour.
    """
    if not G.unit:
        raise ValidationError("packing_to_solution requires unit weights")
    n, k = G.n, len(P.centers)
    part, (cu, cv) = P.part_of, P.centers.T
    if len(part) != n:
        raise ValidationError(f"part_of has length {len(part)}, not n = {n}")
    if ((part < -1) | (part >= k)).any() or ((P.centers < 0) | (P.centers >= n)).any():
        raise ValidationError("packing holds an out-of-range vertex or part id")
    home = (part[cu] == np.arange(k)) & (part[cv] == np.arange(k))
    if not home.all():
        b = int(np.argmin(home))
        raise ValidationError(f"center ({cu[b]}, {cv[b]}) is not inside its part {b}")
    # each part holds exactly two center endpoints, its own: an edge inside a
    # part joins them (the center edge) or an outside vertex to one of them
    is_end = np.zeros(n, dtype=bool)
    is_end[cu] = is_end[cv] = True
    eu, ev, ew = G.edge_arrays()
    pu = part[eu]
    inside = (pu >= 0) & (pu == part[ev])
    end_u, end_v = is_end[eu], is_end[ev]
    center = inside & end_u & end_v
    sign = np.ones(n, dtype=np.int64)
    sign[cv] = 0  # stays 0 where the center is no edge
    sign[cv[pu[center]]] = ew[center]
    spoke = np.flatnonzero(inside & (end_u != end_v))
    o = np.where(end_v[spoke], eu[spoke], ev[spoke])
    forced = sign[eu[spoke] + ev[spoke] - o] * ew[spoke]
    plus = np.bincount(o[forced > 0], minlength=n)
    minus = np.bincount(o[forced < 0], minlength=n)
    outside = (part >= 0) & ~is_end
    bad_triangle = (plus > 0) & (minus > 0)
    wrong = np.flatnonzero(outside & (bad_triangle | (plus + minus == 0)))
    first = np.full(k, n, dtype=np.int64)  # each part's first wrong vertex
    np.minimum.at(first, part[wrong], wrong)
    failed = (sign[cv] == 0) | (first < n)
    if failed.any():
        b = int(np.argmax(failed))
        if sign[cv[b]] == 0:
            raise ValidationError(f"no edge ({cu[b]}, {cv[b]})")
        x = int(first[b])
        if bad_triangle[x]:
            raise ValidationError(f"bad triangle ({x}, {cu[b]}, {cv[b]}) inside a part")
        raise ValidationError(f"part is disconnected at vertex {x}")
    inner = np.where(outside, np.where(plus > 0, 1, -1), sign)
    out = _glue_with_rest(G, part, inner, k)
    if out.value + value_tol(G) < P.edge_count:
        raise InternalError("packing solution fell below its packed edge count")
    return out


def _attach(G: WeightedGraph, centers: np.ndarray, triangles: bool) -> EasyPacking:
    """Seed part i with center edge i (a k x 2 array of disjoint edges), then
    give every other vertex v the smallest idx that it fits: v touches
    exactly one endpoint of center idx or, when `triangles` is set, both, and
    the triangle is good (its three unit weights multiply to +1).

    Whether v fits idx depends only on v and idx, never on the vertices placed
    before, so every vertex is placed at once: the edges from each vertex
    outside the centers to a center endpoint give its (v, idx) pairs, a pair
    seen twice is a triangle, and the first fitting idx per v is kept.  The
    packed edges are counted in one more pass over the edge columns.
    """
    k = len(centers)
    part_of = np.full(G.n, -1, dtype=np.int64)
    part_of[centers[:, 0]] = part_of[centers[:, 1]] = np.arange(k)
    eu, ev, ew = G.edge_arrays()
    pu, pv = part_of[eu], part_of[ev]
    center_w = np.zeros(k)
    center = (pu >= 0) & (pu == pv)  # both ends in one center: the center edge
    center_w[pu[center]] = ew[center]
    to_v, to_u = (pu < 0) & (pv >= 0), (pu >= 0) & (pv < 0)
    key = np.concatenate((eu[to_v] * k + pv[to_v], ev[to_u] * k + pu[to_u]))
    w = np.concatenate((ew[to_v], ew[to_u]))
    # a (v, idx) pair listed twice is v touching both endpoints: a triangle,
    # good iff an odd number of its spokes is negative exactly when its center is
    key, at, count = np.unique(key, return_inverse=True, return_counts=True)
    odd = np.bincount(at, weights=w < 0, minlength=len(key)) % 2 == 1
    v, idx = np.divmod(key, max(k, 1))
    fits = (count == 1) | (triangles & (count == 2) & (odd == (center_w[idx] < 0)))
    v, idx = v[fits], idx[fits]
    first = np.ones(len(v), dtype=bool)  # sorted by (v, idx): each v's head, its smallest idx
    first[1:] = v[1:] != v[:-1]
    part_of[v[first]] = idx[first]
    pu = part_of[eu]
    edge_count = int(np.count_nonzero((pu >= 0) & (pu == part_of[ev])))
    return EasyPacking(centers, part_of, edge_count)


def easypack(G: WeightedGraph) -> EasyPacking:
    """Greedy easy packing seeded from a maximal matching.

    Steps: (1) maximal matching M, unmatched set I; (2-3) for each matched
    edge {x, y} in increasing order, if two vertices of I each form a
    triangle with it, split it into the two center edges {u, x} and {v, y}
    for the two smallest, which leave I; (4) seed parts from the resulting
    edges; (5) attach each remaining unmatched vertex v to the first center
    it forms a path or a good triangle with.

    The split step runs on keys, as `_attach` does: each edge from an
    unmatched w to pair p gives the key (p, w), and a key seen twice is w
    touching both ends of p.  Only pairs with two such w can split, and only
    they go through the loop; I shrinks in pair order, so the rule over
    them alone splits the same pairs.  After the matching's O(m) scan this
    is O(n + m) numpy passes, plus a sort of the keys here and in `_attach`
    (one per edge from an unmatched to a matched vertex) and a Python loop
    over the pairs that have two candidates.
    """
    if not G.unit:
        raise ValidationError("easypack requires unit weights")
    n = G.n
    centers = maximal_matching(G).edges
    pair_of = np.full(n, -1, dtype=np.int64)
    pair_of[centers[:, 0]] = pair_of[centers[:, 1]] = np.arange(len(centers))
    eu, ev, _ = G.edge_arrays()
    pu, pv = pair_of[eu], pair_of[ev]
    to_v, to_u = (pu < 0) & (pv >= 0), (pu >= 0) & (pv < 0)
    key = np.concatenate((pv[to_v] * n + eu[to_v], pu[to_u] * n + ev[to_u]))
    key, count = np.unique(key, return_counts=True)
    p, w = np.divmod(key[count == 2], max(n, 1))  # sorted by (p, w)
    same = p[1:] == p[:-1]
    two = np.zeros(len(p), dtype=bool)  # p holds two or more of these w
    two[1:] |= same
    two[:-1] |= same
    taken: set[int] = set()
    split: list[tuple[int, int, int]] = []
    for q, group in groupby(zip(p[two].tolist(), w[two].tolist()), itemgetter(0)):
        free = [x for _, x in group if x not in taken][:2]
        if len(free) == 2:
            taken.update(free)
            split.append((q, *free))
    if split:
        q, a, b = np.array(split, dtype=np.int64).T
        row = q + np.arange(len(q))  # pair q's first row, after the splits before it
        centers = np.insert(centers, q + 1, 0, axis=0)
        x, y = centers[row, 0], centers[row, 1]
        centers[row] = np.stack((np.minimum(a, x), np.maximum(a, x)), axis=1)
        centers[row + 1] = np.stack((np.minimum(b, y), np.maximum(b, y)), axis=1)
    return _attach(G, centers, triangles=True)


def star_packing(G: WeightedGraph) -> EasyPacking:
    """Star packing seeded from a maximum-cardinality matching.

    Each unmatched vertex is attached to the first touching center it is
    adjacent to at exactly one endpoint (both would close a triangle).  Each
    part is then a star around one endpoint, its hub: if unmatched v and w
    hung off opposite endpoints x, y of one center, v-x-y-w would be an
    augmenting path, and M is maximum.  Requires a unit instance without
    isolated vertices.
    """
    if not G.unit:
        raise ValidationError("star_packing requires unit weights")
    if not degrees(G).all():
        raise ValidationError("star_packing requires no isolated vertices")
    return _attach(G, maximum_matching(G).edges, triangles=False)


def _trivial_result(G: WeightedGraph, extra: dict) -> ApproxResult:
    x = np.ones(G.n, dtype=np.int8)  # no edge: every assignment is optimal
    return ApproxResult(Assignment(x, evaluate(G, x)), Fraction(1), {"trivial": True, **extra})


def solve_bounded_degree(G: WeightedGraph) -> ApproxResult:
    """Greedy-matching driver: 1/(2*max_degree) of the optimum, any weights."""
    if G.m == 0:
        return _trivial_result(G, {"abs_weight": 0.0})
    abs_weight = float(np.abs(G.edge_arrays()[2]).sum())
    max_degree = int(degrees(G).max())
    M = greedy_sorted_matching(G)
    out = matching_to_solution(G, M)
    guarantee = Fraction(1, 2 * max_degree)
    tol = value_tol(G)
    if out.value + tol < M.total_abs_weight:
        raise InternalError("matching solution fell below w(M*)")
    if out.value + tol < float(guarantee) * abs_weight:
        raise InternalError("bounded-degree certificate violated")
    cert = {
        "matching_weight": M.total_abs_weight,
        "abs_weight": abs_weight,
        "max_degree": max_degree,
    }
    return ApproxResult(out, guarantee, cert)


def solve_degenerate(G: WeightedGraph) -> ApproxResult:
    """EasyPack driver: 1/(2*degeneracy) of the optimum on unit instances."""
    if not G.unit:
        raise ValidationError("solve_degenerate requires unit weights")
    d = degeneracy(G)
    if G.m == 0:
        return _trivial_result(G, {"degeneracy": d})
    P = easypack(G)
    out = packing_to_solution(G, P)
    guarantee = Fraction(1, 2 * d)
    covered = int(np.count_nonzero(P.part_of >= 0))
    if 2 * P.edge_count < covered:
        raise InternalError("easy packing fell below |V_F|/2 packed edges")
    cert = {
        "packed_edges": P.edge_count,
        "covered": covered,
        "degeneracy": d,
    }
    return ApproxResult(out, guarantee, cert)


def solve_dense(G: WeightedGraph) -> ApproxResult:
    """Star-packing driver: 1/(3*density) of the optimum on unit instances.

    Isolated vertices are stripped first; the density in the guarantee is the
    stripped graph's, since the bound only holds without isolated vertices.
    """
    if not G.unit:
        raise ValidationError("solve_dense requires unit weights")
    if G.m == 0:
        return _trivial_result(G, {"density": "0"})
    H, old_of = induced_subgraph(G, np.flatnonzero(degrees(G)))
    P = star_packing(H)
    x = np.ones(G.n, dtype=np.int8)  # an isolated vertex takes +1: no edge to glue
    x[old_of] = packing_to_solution(H, P).values
    out = Assignment(x, evaluate(G, x))
    density = Fraction(H.m, H.n)
    guarantee = Fraction(1, 1) / (3 * density)
    if out.value + value_tol(G) < float(Fraction(H.m, 1) / (3 * density)):
        raise InternalError("dense certificate violated")
    cert = {
        "packed_edges": P.edge_count,
        "m": H.m,
        "density": str(density),
    }
    return ApproxResult(out, guarantee, cert)
