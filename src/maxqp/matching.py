"""Matching algorithms: weight-greedy, maximal, and maximum cardinality.

All tie-breaks are lexicographic by vertex id so every run is reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .graph import WeightedGraph


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges with total absolute weight.

    `matched[v]` is v's partner, or None when v is unmatched.
    """

    edges: tuple[tuple[int, int], ...]
    total_abs_weight: float
    matched: tuple[int | None, ...]


def _make_matching(
    G: WeightedGraph, pairs, total: float | None = None
) -> Matching:
    """Wrap vertex-disjoint (u, v) pairs, given in any order, as a Matching."""
    p = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if total is None:
        total = sum(abs(G.weight(u, v)) for u, v in p.tolist())
    p.sort(axis=1)
    p = p[np.argsort(p[:, 0], kind="stable")]  # no vertex is in two pairs
    partner = np.full(G.n, -1, dtype=np.int64)
    partner[p[:, 0]] = p[:, 1]
    partner[p[:, 1]] = p[:, 0]
    if np.count_nonzero(partner >= 0) != 2 * len(p):
        raise InternalError("matching pairs share a vertex")
    matched = np.full(G.n, None, dtype=object)
    hit = np.flatnonzero(partner >= 0)
    matched[hit] = partner[hit].tolist()
    edges = tuple(zip(p[:, 0].tolist(), p[:, 1].tolist()))
    return Matching(edges, total, tuple(matched.tolist()))


def greedy_sorted_matching(G: WeightedGraph) -> Matching:
    """Greedy matching over edges in non-increasing |weight| order.

    Equal weights are broken by (u, v) lexicographic order.  The result is
    maximal, and its weight is at least w(E) / (2 * max_degree).
    """
    if G.m == 0:
        return _make_matching(G, [], 0.0)
    eu, ev, ew = G.edge_arrays()
    # edges are stored in (u, v) order, so a stable sort keeps ties lexicographic
    order = np.argsort(-np.abs(ew), kind="stable")
    us, vs, ws = eu[order].tolist(), ev[order].tolist(), ew[order].tolist()
    free = bytearray([1]) * G.n
    pairs = []
    total = 0.0
    for u, v, w in zip(us, vs, ws):
        if free[u] and free[v]:
            free[u] = free[v] = 0
            pairs.append((u, v))
            total += abs(w)
    return _make_matching(G, pairs, total)


def maximal_matching(G: WeightedGraph) -> Matching:
    """Inclusion-wise maximal matching by a single scan in canonical edge order."""
    eu, ev, _ = G.edge_arrays()
    free = [True] * G.n
    pairs = []
    for u, v in zip(eu.tolist(), ev.tolist()):
        if free[u] and free[v]:
            free[u] = free[v] = False
            pairs.append((u, v))
    return _make_matching(G, pairs)


def maximum_matching(G: WeightedGraph) -> Matching:
    """Maximum-cardinality matching via blossom (odd cycle) contraction.

    One alternating-tree search per unmatched root, in id order (Edmonds,
    *Paths, trees, and flowers*, 1965).  The search state is allocated once;
    each search, LCA walk and contraction resets only the entries it set, and
    a contraction relabels only the k vertices of the new blossom, found from
    per-base member lists and taken in id order (O(k log k)).  So a search
    costs O(m) for its edge scans plus its contractions, and never reads the
    vertices outside its tree.  One search per root makes it O(n * m) plus
    the contractions; the O(m * sqrt(n)) bound of Micali & Vazirani (FOCS
    1980) needs phases of shortest augmenting paths, which this does not use.
    """
    n = G.n
    match: list[int] = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used_path = [False] * n
    blossom = [False] * n
    # vertices the current search set parent, base or used on, each once
    touched: list[int] = []
    # the vertices with base b, for each blossom base b; absent means [b]
    members: dict[int, list[int]] = {}

    def find_lca(a: int, b: int) -> int:
        path = []
        while True:
            a = base[a]
            used_path[a] = True
            path.append(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used_path[b]:
                break
            b = parent[match[b]]
        for a in path:
            used_path[a] = False
        return b

    def mark_path(marked: list[int], v: int, b: int, child: int):
        while base[v] != b:
            for x in (base[v], base[match[v]]):
                if not blossom[x]:
                    blossom[x] = True
                    marked.append(x)
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        used[root] = True
        touched.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in G.adjacency[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = find_lca(v, to)
                    marked: list[int] = []
                    mark_path(marked, v, curbase, to)
                    mark_path(marked, to, curbase, v)
                    # every vertex whose base is in the blossom, in id order
                    inside = [i for x in marked for i in members.pop(x, (x,))]
                    inside.sort()
                    for i in inside:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                    if not blossom[curbase]:
                        inside += members.get(curbase, (curbase,))
                    members[curbase] = inside
                    for x in marked:
                        blossom[x] = False
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    touched.append(match[to])
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting(v)
            while end != -1:
                pv = parent[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv
            for t in touched:
                parent[t] = -1
                base[t] = t
                used[t] = False
            touched.clear()
            members.clear()

    pairs = [(v, match[v]) for v in range(n) if match[v] > v]
    return _make_matching(G, pairs)
