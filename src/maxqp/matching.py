"""Matching algorithms: weight-greedy, maximal, and maximum cardinality.

All tie-breaks are lexicographic by vertex id so every run is reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges with total absolute weight.

    `matched[v]` is v's partner, or None when v is unmatched.
    """

    edges: tuple[tuple[int, int], ...]
    total_abs_weight: float
    matched: tuple[int | None, ...]

    def __len__(self) -> int:
        return len(self.edges)


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
    assert np.count_nonzero(partner >= 0) == 2 * len(p), "pairs share a vertex"
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
    free = [True] * G.n
    pairs = []
    for u, v, _ in G.edges:
        if free[u] and free[v]:
            free[u] = free[v] = False
            pairs.append((u, v))
    return _make_matching(G, pairs)


def maximum_matching(G: WeightedGraph) -> Matching:
    """Maximum-cardinality matching via blossom (odd cycle) contraction.

    Augmenting-path search with blossom shrinking, O(n * m) per augmentation,
    O(n^2 * m) overall; adequate at the instance sizes this toolkit targets.
    """
    n = G.n
    match: list[int] = [-1] * n
    parent = [0] * n
    base = [0] * n

    def find_lca(a: int, b: int) -> int:
        used_path = [False] * n
        while True:
            a = base[a]
            used_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(used: list[bool], blossom: list[bool], v: int, b: int, child: int):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        used = [False] * n
        for v in range(n):
            parent[v] = -1
            base[v] = v
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in G.adjacency[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = find_lca(v, to)
                    blossom = [False] * n
                    mark_path(used, blossom, v, curbase, to)
                    mark_path(used, blossom, to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting(v)
            if end == -1:
                continue
            while end != -1:
                pv = parent[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv

    pairs = [(v, match[v]) for v in range(n) if match[v] > v]
    return _make_matching(G, pairs)
