"""Matching algorithms: weight-greedy, maximal, and maximum cardinality.

All tie-breaks are lexicographic by vertex id so every run is reproducible.
Every matcher returns a `Matching` of numpy arrays: the pairs as a k x 2
array sorted by their first vertex, and each vertex's partner.  The greedy
and maximal scans record only the indices of the edges they accept; the
arrays are built from those in numpy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .graph import WeightedGraph, rows


@dataclass(frozen=True, eq=False)
class Matching:
    """A set of vertex-disjoint edges with total absolute weight.

    `edges` is a k x 2 int64 array of the pairs, u < v in each row, rows
    sorted by u.  `partner[v]` is v's partner, or -1 when v is unmatched (an
    int64 array of length n).  `total_abs_weight` is the running sum of |w|
    over the pairs, in the order the matcher accepted them.
    """

    edges: np.ndarray
    partner: np.ndarray
    total_abs_weight: float


def _make_matching(G: WeightedGraph, accepted) -> Matching:
    """The Matching of G's edges with these column indices, in acceptance order.

    Raises InternalError when two of the edges share a vertex.
    """
    idx = np.asarray(accepted, dtype=np.int64)
    eu, ev, ew = G.edge_arrays()
    absw = np.abs(ew[idx])
    total = float(np.add.accumulate(absw, out=absw)[-1]) if len(idx) else 0.0
    # edge index order is (u, v) order, so disjoint pairs sort by u
    idx = np.sort(idx)
    edges = np.empty((len(idx), 2), dtype=np.int64)
    edges[:, 0], edges[:, 1] = eu[idx], ev[idx]
    partner = np.full(G.n, -1, dtype=np.int64)
    partner[edges[:, 0]] = edges[:, 1]
    partner[edges[:, 1]] = edges[:, 0]
    if np.count_nonzero(partner >= 0) != 2 * len(idx):
        raise InternalError("matching pairs share a vertex")
    return Matching(edges, partner, total)


def _first_fit(n: int, us: np.ndarray, vs: np.ndarray) -> list[int]:
    """The scan: the positions i, in order, of the pairs (us[i], vs[i]) whose
    two vertices no earlier accepted pair holds."""
    free = bytearray([1]) * n
    accepted = []
    for i, (u, v) in enumerate(rows(us, vs)):
        if free[u] and free[v]:
            free[u] = free[v] = 0
            accepted.append(i)
    return accepted


def greedy_sorted_matching(G: WeightedGraph) -> Matching:
    """Greedy matching over edges in non-increasing |weight| order.

    Equal weights are broken by (u, v) lexicographic order.  The result is
    maximal, and its weight is at least w(E) / (2 * max_degree).
    """
    eu, ev, ew = G.edge_arrays()
    # edges are stored in (u, v) order, so a stable sort keeps ties lexicographic
    order = np.argsort(-np.abs(ew), kind="stable")
    return _make_matching(G, order[_first_fit(G.n, eu[order], ev[order])])


def maximal_matching(G: WeightedGraph) -> Matching:
    """Inclusion-wise maximal matching by a single scan in canonical edge order."""
    eu, ev, _ = G.edge_arrays()
    return _make_matching(G, _first_fit(G.n, eu, ev))


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

    mate = np.array(match, dtype=np.int64)
    u = np.flatnonzero(mate > np.arange(n))
    # (u, v) keys ascend with the column index, so a search finds each pair's edge
    eu, ev, _ = G.edge_arrays()
    return _make_matching(G, np.searchsorted(eu * n + ev, u * n + mate[u]))
