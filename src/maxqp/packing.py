"""Local structures: good/bad predicates, easy packings, and the three
matching/packing-based approximation drivers.

An *easy* subgraph is a connected split graph whose clique side is a single
center edge, whose remaining (outside) vertices form an independent set
adjacent only to the center endpoints, and which contains no bad triangle.
Packing disjoint easy subgraphs yields a solution worth one unit per packed
edge on unit-weight instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalError, ValidationError
from .graph import (
    ApproxResult,
    Assignment,
    WeightedGraph,
    extend_from_induced,
    glue_blocks,
    induced_subgraph,
    stats,
    value_tol,
)
from .matching import Matching, greedy_sorted_matching, maximal_matching, maximum_matching


def triangle_is_good(G: WeightedGraph, u: int, v: int, w: int) -> bool:
    """True iff the three (unit) weights of the triangle multiply to +1.

    Exactly the triangles all of whose edges can be made good simultaneously.
    """
    if not G.unit:
        raise ValidationError("triangle predicate requires unit weights")
    p = G.weight(u, v) * G.weight(v, w) * G.weight(w, u)
    return p > 0


@dataclass(frozen=True)
class EasyPacking:
    """Disjoint vertex sets each inducing an easy subgraph of G."""

    parts: tuple[tuple[int, ...], ...]
    centers: tuple[tuple[int, int], ...]
    edge_count: int
    covered: frozenset[int]


def _part_edge_count(G: WeightedGraph, part) -> int:
    inpart = set(part)
    return sum(1 for u in part for v in G.adjacency[u] if u < v and v in inpart)


def _glue_with_rest(G: WeightedGraph, block_of, inner, k: int) -> Assignment:
    """Glue blocks 0..k-1, then each vertex still at block -1 alone, in id order."""
    block_of = np.asarray(block_of, dtype=np.int64)
    rest = np.flatnonzero(block_of < 0)
    block_of[rest] = k + np.arange(len(rest))
    signs, value = glue_blocks(G, block_of, inner)
    return Assignment(tuple(signs), value)


def matching_to_solution(G: WeightedGraph, M: Matching) -> Assignment:
    """Solution with value >= w(M) in O(n + m).

    Each matched pair is a block oriented so its own edge contributes |a_uv|;
    the pairs are glued on in `M.edges` order, then the unmatched vertices
    one at a time in id order.
    """
    k = len(M.edges)
    block_of = np.full(G.n, -1, dtype=np.int64)
    if k:
        me = np.array(M.edges, dtype=np.int64)
        block_of[me[:, 0]] = block_of[me[:, 1]] = np.arange(k)
    # a pair's own edge is its only inner edge; its later endpoint copies the sign
    eu, ev, ew = G.edge_arrays()
    own = np.flatnonzero((block_of[eu] >= 0) & (block_of[eu] == block_of[ev]))
    inner = np.ones(G.n, dtype=np.int64)
    inner[ev[own]] = np.sign(ew[own])
    return _glue_with_rest(G, block_of, inner, k)


def packing_to_solution(G: WeightedGraph, P: EasyPacking) -> Assignment:
    """Solution with value >= m(F) for a valid easy packing of a unit instance.

    Within each part the center edge is oriented first; every outside vertex
    copies the sign forced by its center neighbor(s).  Good-triangle closure
    makes each in-part edge contribute +1.  The parts are glued on in packing
    order, then the leftover vertices one at a time in id order.
    """
    if not G.unit:
        raise ValidationError("packing_to_solution requires unit weights")
    block_of = [-1] * G.n
    inner = [1] * G.n
    for b, (part, (cu, cv)) in enumerate(zip(P.parts, P.centers)):
        local = {cu: 1, cv: 1 if G.weight(cu, cv) > 0 else -1}
        for o in part:
            if o in (cu, cv):
                continue
            nbrs = G.adjacency[o]
            forced = None
            for c in (cu, cv):
                if c in nbrs:
                    want = local[c] * (1 if nbrs[c] > 0 else -1)
                    if forced is None:
                        forced = want
                    elif forced != want:
                        raise ValidationError(
                            f"bad triangle ({o}, {cu}, {cv}) inside a part"
                        )
            if forced is None:
                raise ValidationError(f"part is disconnected at vertex {o}")
            local[o] = forced
        for v, s in local.items():
            block_of[v] = b
            inner[v] = s
    out = _glue_with_rest(G, block_of, inner, len(P.parts))
    if out.value + value_tol(G) < P.edge_count:
        raise InternalError("packing solution fell below its packed edge count")
    return out


def _attach(G: WeightedGraph, centers, vertices, fits) -> EasyPacking:
    """Seed one part per center edge, then give each vertex, in order, to the
    first center with an endpoint in N(v) that `fits(idx, v)` accepts.

    Centers are disjoint edges, so each endpoint indexes one center; a center
    outside N(v) can never take v, so only the touching ones are tried, in
    index order.
    """
    parts = [[x, y] for x, y in centers]
    center_of = [-1] * G.n
    for idx, (x, y) in enumerate(centers):
        center_of[x] = center_of[y] = idx
    for v in vertices:
        for idx in sorted({center_of[u] for u in G.adjacency[v] if center_of[u] >= 0}):
            if fits(idx, v):
                parts[idx].append(v)
                break
    covered = frozenset(v for part in parts for v in part)
    edge_count = sum(_part_edge_count(G, part) for part in parts)
    return EasyPacking(tuple(tuple(sorted(p)) for p in parts), tuple(centers), edge_count, covered)


def easypack(G: WeightedGraph) -> EasyPacking:
    """Greedy easy packing seeded from a maximal matching.

    Steps: (1) maximal matching M, unmatched set I; (2-3) for each matched
    edge {x, y}, if two unmatched vertices each form a triangle with it, split
    it into the two center edges {u, x} and {v, y}; (4) seed parts from the
    resulting edges; (5) attach each remaining unmatched vertex v to the
    first center it forms a path or a good triangle with.  All scans in
    increasing id order, O(n + m) after the maximal matching.
    """
    if not G.unit:
        raise ValidationError("easypack requires unit weights")
    M = maximal_matching(G)
    istar = {v for v in range(G.n) if M.matched[v] is None and G.degree(v) > 0}
    centers: list[tuple[int, int]] = []
    for x, y in M.edges:
        common = sorted(G.adjacency[x].keys() & G.adjacency[y].keys() & istar)
        if len(common) >= 2:
            u, v = common[0], common[1]
            centers.append(tuple(sorted((u, x))))
            centers.append(tuple(sorted((v, y))))
            istar -= {u, v}
        else:
            centers.append((x, y))

    def fits(idx: int, v: int) -> bool:
        # a touching center has an endpoint in N(v): a path unless both are
        cx, cy = centers[idx]
        nbrs = G.adjacency[v]
        return (cx in nbrs) != (cy in nbrs) or triangle_is_good(G, v, cx, cy)

    return _attach(G, centers, sorted(istar), fits)


def star_packing(G: WeightedGraph) -> EasyPacking:
    """Star packing seeded from a maximum-cardinality matching.

    Unmatched vertices are scanned in increasing id order and each is
    attached to the first touching center it is adjacent to at exactly one
    endpoint (both would close a triangle).  Each part is then a star around
    one endpoint, its hub: if unmatched v and w hung off opposite endpoints
    x, y of one center, v-x-y-w would be an augmenting path, and M is
    maximum.  Requires a unit instance without isolated vertices.
    """
    if not G.unit:
        raise ValidationError("star_packing requires unit weights")
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise ValidationError("star_packing requires no isolated vertices")
    M = maximum_matching(G)

    def fits(idx: int, v: int) -> bool:
        x, y = M.edges[idx]
        nbrs = G.adjacency[v]
        return not (x in nbrs and y in nbrs)

    unmatched = [v for v in range(G.n) if M.matched[v] is None]
    return _attach(G, M.edges, unmatched, fits)


def _trivial_result(G: WeightedGraph, extra: dict) -> ApproxResult:
    out = extend_from_induced(G, {})
    return ApproxResult(out, Fraction(1), {"trivial": True, **extra})


def solve_bounded_degree(G: WeightedGraph) -> ApproxResult:
    """Greedy-matching driver: 1/(2*max_degree) of the optimum, any weights."""
    if G.m == 0:
        return _trivial_result(G, {"abs_weight": 0.0})
    eu, ev, ew = G.edge_arrays()
    abs_weight = float(np.abs(ew).sum())
    max_degree = int(np.bincount(np.concatenate((eu, ev))).max())
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
    st = stats(G)
    if G.m == 0:
        return _trivial_result(G, {"degeneracy": st.degeneracy})
    P = easypack(G)
    out = packing_to_solution(G, P)
    guarantee = Fraction(1, 2 * st.degeneracy)
    if 2 * P.edge_count < len(P.covered):
        raise InternalError("easy packing fell below |V_F|/2 packed edges")
    cert = {
        "packed_edges": P.edge_count,
        "covered": len(P.covered),
        "degeneracy": st.degeneracy,
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
    alive = [v for v in range(G.n) if G.degree(v) > 0]
    H, old_of = induced_subgraph(G, alive)
    P = star_packing(H)
    sol_h = packing_to_solution(H, P)
    signs = {old_of[i]: s for i, s in enumerate(sol_h.values)}
    out = extend_from_induced(G, signs)
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
