"""Shared helpers for the test suite: small-instance sampling and
independent oracles that do not go through the code under test."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np
from hypothesis import strategies as st

from maxqp import (
    ApproxResult,
    Assignment,
    CapacityError,
    EasyPacking,
    GeneratorSpec,
    ParseError,
    SplitMix64,
    TreeDecomposition,
    ValidationError,
    VertexPartition,
    WeightedGraph,
    bfs_layers,
    evaluate,
    extend_from_induced,
    generate,
    glue_blocks,
    induced_subgraph,
    Matching,
    maximal_matching,
    solve_exact,
    to_nice,
    triangle_is_good,
)
from maxqp.schemes import residue_classes


# One small instance of every generator kind (sparse-random with both weight types).
GENERATOR_SPECS = [
    ("grid-spin-glass", {"rows": 3, "cols": 4}),
    ("sparse-random", {"n": 12, "m": 20}),
    ("sparse-random", {"n": 12, "m": 20, "real": True}),
    ("d-regular", {"n": 10, "degree": 3}),
    ("perfect-matching", {"n": 10}),
    ("clique-plus-matching", {"n": 18}),
    ("maxcut-subdivision", {"n": 7, "m": 9}),
]


def edge_list(G: WeightedGraph) -> list[tuple[int, int, float]]:
    """G's edges as (u, v, w) tuples, in the order of its columns."""
    return list(zip(*(c.tolist() for c in G.edge_arrays())))


def pairs(M: Matching) -> tuple[tuple[int, int], ...]:
    """M's matched pairs as (u, v) tuples, in the row order of `M.edges`."""
    return tuple(map(tuple, M.edges.tolist()))


def reference_evaluate(G: WeightedGraph, values) -> float:
    """The objective as a plain running sum over the edges, from 0.0."""
    total = 0.0
    for u, v, w in edge_list(G):
        total += w * values[u] * values[v]
    return total


def heuristic_partition(G: WeightedGraph, k: int) -> VertexPartition:
    """Part i = vertices whose BFS layer index is congruent to i mod k, all
    k parts listed (the partition scheme's default, padded with empty parts)."""
    classes = residue_classes(bfs_layers(G), k)
    classes += [[]] * (k - len(classes))
    return VertexPartition(tuple(tuple(c) for c in classes), "bfs-layer-heuristic")


def random_graph(seed: int, n: int, m: int, real: bool = False) -> WeightedGraph:
    m = min(m, n * (n - 1) // 2)
    return generate(GeneratorSpec("sparse-random", seed, {"n": n, "m": m, "real": real}))


def reference_sample_pairs(rng: SplitMix64, n: int, m: int) -> list[tuple[int, int]]:
    """`generate`'s pair sampler one attempt at a time: u, then v, each
    `randrange(n)`; u == v is skipped and a pair counts once."""
    if m > n * (n - 1) // 2:
        raise ValidationError(f"cannot place {m} edges on {n} vertices")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


def reference_real_weight(rng: SplitMix64) -> float:
    """One real weight 2r - 1, drawn again while it is 0.0."""
    w = 0.0
    while w == 0.0:
        w = 2.0 * rng.random() - 1.0
    return w


def reference_generate(spec: GeneratorSpec) -> WeightedGraph:
    """`generate` one draw at a time, through the validating constructor, for
    the kinds whose draws are taken in numpy blocks (all but d-regular)."""
    rng = SplitMix64(spec.seed)
    p = spec.params

    def sign() -> float:
        return float(rng.sign())

    if spec.kind == "grid-spin-glass":
        rows, cols = p["rows"], p["cols"]
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1, sign()))
                if r + 1 < rows:
                    edges.append((v, v + cols, sign()))
        return WeightedGraph(rows * cols, edges)
    n = p["n"]
    if spec.kind == "perfect-matching":
        return WeightedGraph(n, [(2 * i, 2 * i + 1, sign()) for i in range(n // 2)])
    if spec.kind == "clique-plus-matching":
        c = int(n**0.5)
        clique = [(i, j, sign()) for i in range(c) for j in range(i + 1, c)]
        return WeightedGraph(n, clique + [(i, i + 1, sign()) for i in range(c, n, 2)])
    pairs = reference_sample_pairs(rng, n, p["m"])
    if spec.kind == "sparse-random":
        if p.get("real"):
            return WeightedGraph(n, [(u, v, reference_real_weight(rng)) for u, v in pairs])
        return WeightedGraph(n, [(u, v, sign()) for u, v in pairs])
    assert spec.kind == "maxcut-subdivision"  # edge t becomes u -(+1)- n + t -(-1)- v
    return WeightedGraph(
        n + len(pairs),
        [e for t, (u, v) in enumerate(pairs) for e in ((u, n + t, 1.0), (v, n + t, -1.0))],
    )


@st.composite
def unit_graphs(draw, max_n: int = 60, max_isolated: int = 0) -> WeightedGraph:
    """A unit sparse-random graph, from empty through complete, on n <= max_n
    vertices, followed by up to max_isolated extra isolated vertices."""
    n = draw(st.integers(1, max_n))
    pairs = n * (n - 1) // 2
    m = draw(st.one_of(st.integers(0, min(2 * n, pairs)), st.integers(0, pairs)))
    G = random_graph(draw(st.integers(0, 2**32)), n, m)
    extra = draw(st.integers(0, max_isolated))
    return WeightedGraph(n + extra, edge_list(G)) if extra else G


def assert_same_graph(G: WeightedGraph, H: WeightedGraph) -> None:
    """Every stored field of G equals H's, the numpy edge columns included."""
    assert (G.n, edge_list(G), G.unit) == (H.n, edge_list(H), H.unit)
    # dict equality ignores key order, so compare the maps as item lists
    assert [list(a.items()) for a in G.adjacency] == [list(a.items()) for a in H.adjacency]
    for a, b in zip(G.edge_arrays(), H.edge_arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def reference_parse_instance(text: str) -> WeightedGraph:
    """The instance parser as one loop over lines, then a running dict sum per
    pair, as `parse_instance` was before it read canonical text by columns.

    Raises what it would: `ParseError` with the first bad line's number, then
    `ValidationError` for the first non-finite entry (0-based ids as written)
    or the first non-finite average in pair order; the validating constructor
    then checks n and the total weight.
    """
    n = None
    m = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header line", line=lineno)
            if len(fields) != 4 or fields[1] != "maxqp":
                raise ParseError("header must be 'p maxqp <n> <m>'", line=lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-integer header fields", line=lineno) from None
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before header", line=lineno)
            if len(fields) != 4:
                raise ParseError("edge line must be 'e <u> <v> <w>'", line=lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
                w = float(fields[3])
            except ValueError:
                raise ParseError("malformed edge entry", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n}", line=lineno)
            if u == v:
                raise ParseError("self-loop is not allowed", line=lineno)
            entries.append((u - 1, v - 1, w))
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing header line")
    if m is not None and len(entries) != m:
        raise ParseError(f"header declares {m} edges, found {len(entries)}")
    sums: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for u, v, w in entries:
        if not math.isfinite(w):
            raise ValidationError(f"non-finite weight on edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        sums[key] = sums.get(key, 0.0) + w
        counts[key] = counts.get(key, 0) + 1
    merged = []
    for key in sorted(sums):
        w = sums[key] / counts[key]
        if not math.isfinite(w):
            raise ValidationError(f"non-finite weight on edge ({key[0]}, {key[1]})")
        if w != 0.0:
            merged.append((*key, w))
    return WeightedGraph(n, merged)


def sample_small(seed: int, max_n: int = 12, real_every: int = 3):
    """One reproducible small instance per seed; weights alternate unit/real."""
    rng = SplitMix64(seed)
    n = 2 + rng.randrange(max_n - 1)
    m = rng.randrange(n * (n - 1) // 2 + 1)
    return random_graph(10_000 + seed, n, m, real=(seed % real_every == 0))


def exhaustive_opt(G: WeightedGraph) -> float:
    """Plain enumeration of all 2^n assignments; intentionally naive."""
    best = 0.0
    for mask in range(1 << G.n):
        x = [1 if mask >> i & 1 else -1 for i in range(G.n)]
        val = sum(w * x[u] * x[v] for u, v, w in edge_list(G))
        best = max(best, val)
    return best


def reference_brute_force(G: WeightedGraph) -> Assignment:
    """Gray-code enumeration of the 2^(n-1) assignments with vertex 0 at +1.

    Each step flips one vertex and updates the value by the local move, so
    the value it reports is a running sum that can differ from
    `evaluate(G, x)` in the last bits.  Ties go to the lexicographically
    smallest assignment (+1 before -1), as in `brute_force`.
    """
    n = G.n
    if n == 0:
        return Assignment((), 0.0)
    adj = [list(nbrs.items()) for nbrs in G.adjacency]
    x = [1] * n
    val = evaluate(G, x)
    best_val = val
    best = tuple(x)
    best_key = tuple(0 for _ in x)
    for idx in range(1, 1 << (n - 1)):
        v = (idx & -idx).bit_length()  # flipped vertex: lowest set bit + 1
        s = 0.0
        xv = x[v]
        for u, w in adj[v]:
            s += w * x[u]
        val -= 2.0 * xv * s
        x[v] = -xv
        if val > best_val:
            best_val = val
            best = tuple(x)
            best_key = tuple(0 if t == 1 else 1 for t in best)
        elif val == best_val:
            key = tuple(0 if t == 1 else 1 for t in x)
            if key < best_key:
                best = tuple(x)
                best_key = key
    return Assignment(best, best_val)


def max_matching_size(G: WeightedGraph) -> int:
    """Maximum-cardinality matching size by bitmask DP over vertex subsets."""
    pairs = [(u, v) for u, v, _ in edge_list(G)]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        out = best(mask & ~(1 << v))  # leave v unmatched
        for a, b in pairs:
            if (a == v or b == v) and mask >> a & 1 and mask >> b & 1:
                out = max(out, 1 + best(mask & ~(1 << a) & ~(1 << b)))
        return out

    result = best((1 << G.n) - 1)
    best.cache_clear()
    return result


def tutte_matching_size(G: WeightedGraph, seed: int = 0) -> int:
    """Maximum matching size as half the rank of a random Tutte matrix mod p.

    The rank over GF(p) is 2 * nu(G) unless the random entries hit a root of
    a nonzero polynomial of degree <= n, which has probability <= n / p
    (Lovász, 1979).  p = 2^61 - 1 and the entries are seeded, so the answer
    is reproducible and does not go through any matching code.
    """
    p = (1 << 61) - 1
    rng = SplitMix64(seed)
    n = G.n
    A = [[0] * n for _ in range(n)]
    for u, v, _ in edge_list(G):
        x = 1 + rng.randrange(p - 1)
        A[u][v], A[v][u] = x, p - x
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if A[r][col]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][col], p - 2, p)
        for r in range(rank + 1, n):
            if A[r][col]:
                f = A[r][col] * inv % p
                A[r] = [(a - f * b) % p for a, b in zip(A[r], A[rank])]
        rank += 1
    return rank // 2


def reference_maximum_matching(G: WeightedGraph) -> tuple[tuple[int, int], ...]:
    """Blossom search per unmatched root in id order, every array reset per search.

    Each search clears parent, base and used for all n vertices, and each
    LCA walk and contraction allocates and scans n-element arrays, so it is
    O(n) per step by design.  maximum_matching must return the same pairs.
    """
    n = G.n
    match = [-1] * n
    parent = [0] * n
    base = [0] * n

    def find_lca(a, b):
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

    def mark_path(blossom, v, b, child):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root):
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
                    curbase = find_lca(v, to)
                    blossom = [False] * n
                    mark_path(blossom, v, curbase, to)
                    mark_path(blossom, to, curbase, v)
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
            while end != -1:
                pv = parent[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv
    return tuple((v, match[v]) for v in range(n) if match[v] > v)


def _part_edge_count(G: WeightedGraph, part) -> int:
    inpart = set(part)
    return sum(1 for u in part for v in G.adjacency[u] if u < v and v in inpart)


def check_easy_packing(G: WeightedGraph, P: EasyPacking) -> None:
    """Structural validator of an easy packing; raises ValidationError on any breach."""
    seen: set[int] = set()
    for part, (cu, cv) in zip(P.parts, P.centers):
        pset = set(part)
        if pset & seen:
            raise ValidationError("packing parts are not disjoint")
        seen |= pset
        if cu not in pset or cv not in pset:
            raise ValidationError("center endpoints not inside their part")
        if cv not in G.adjacency[cu]:
            raise ValidationError(f"center pair ({cu}, {cv}) is not an edge")
        outside = pset - {cu, cv}
        for o in outside:
            nbrs = G.adjacency[o].keys() & pset
            if not nbrs:
                raise ValidationError(f"part is disconnected at vertex {o}")
            if not nbrs <= {cu, cv}:
                raise ValidationError(f"outside vertex {o} adjacent to a non-center vertex")
            if nbrs == {cu, cv} and not triangle_is_good(G, o, cu, cv):
                raise ValidationError(f"bad triangle ({o}, {cu}, {cv}) inside a part")
    if seen != set(P.covered):
        raise ValidationError("covered set disagrees with parts")
    expected = sum(_part_edge_count(G, part) for part in P.parts)
    if expected != P.edge_count:
        raise ValidationError("edge_count disagrees with parts")


def reference_easypack(G: WeightedGraph):
    """easypack with step 5 scanning every center from index 0 for each vertex.

    Returns (parts, centers) in EasyPacking's form; easypack must match both.
    """
    M = maximal_matching(G)
    istar = {v for v in range(G.n) if M.partner[v] < 0 and G.degree(v) > 0}
    mstar = []
    for x, y in pairs(M):
        common = sorted(G.adjacency[x].keys() & G.adjacency[y].keys() & istar)
        if len(common) >= 2:
            u, v = common[0], common[1]
            mstar.append(tuple(sorted((u, x))))
            mstar.append(tuple(sorted((v, y))))
            istar -= {u, v}
        else:
            mstar.append((x, y))
    parts = [[a, b] for a, b in mstar]
    for v in sorted(istar):
        nbrs = G.adjacency[v]
        for idx, (cx, cy) in enumerate(mstar):
            adj_x, adj_y = cx in nbrs, cy in nbrs
            if adj_x != adj_y or (adj_x and adj_y and triangle_is_good(G, v, cx, cy)):
                parts[idx].append(v)
                break
    return tuple(tuple(sorted(p)) for p in parts), tuple(mstar)


def reference_star_packing(G: WeightedGraph):
    """star_packing over reference_maximum_matching, scanning every part from
    index 0 for each unmatched vertex.  Returns (parts, centers)."""
    centers = reference_maximum_matching(G)
    parts = [[x, y] for x, y in centers]
    hub = [None] * len(parts)
    matched = {v for c in centers for v in c}
    for v in range(G.n):
        if v in matched:
            continue
        nbrs = G.adjacency[v]
        for idx, (x, y) in enumerate(centers):
            adj_x, adj_y = x in nbrs, y in nbrs
            if adj_x == adj_y:
                continue  # no edge to the center, or a triangle
            t = x if adj_x else y
            if hub[idx] is None:
                hub[idx] = t
            elif hub[idx] != t:
                continue
            parts[idx].append(v)
            break
    return tuple(tuple(sorted(p)) for p in parts), centers


def is_bipartite(G: WeightedGraph) -> bool:
    color = [0] * G.n
    for s in range(G.n):
        if color[s]:
            continue
        color[s] = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for u in G.adjacency[v]:
                if color[u] == 0:
                    color[u] = -color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def evaluate_partial(G: WeightedGraph, signs: Mapping[int, int]) -> float:
    """Objective restricted to edges with both endpoints in `signs`."""
    total = 0.0
    for u, su in signs.items():
        for v, w in G.adjacency[u].items():
            if u < v and v in signs:
                total += w * su * signs[v]
    return total


def edge_is_good(G: WeightedGraph, values, u: int, v: int) -> bool:
    """True iff a_uv * x_u * x_v > 0 for the given assignment."""
    w = G.weight(u, v)
    return w * values[u] * values[v] > 0


def brute_force_maxcut(n: int, edges) -> int:
    """Maximum cut size of an unweighted graph, by enumeration (n <= 24)."""
    if n > 24:
        raise CapacityError(f"maxcut enumeration capped at n <= 24, got {n}")
    best = 0
    es = [(u, v) for u, v in edges]
    for mask in range(1 << max(n - 1, 0)):
        cut = 0
        for u, v in es:
            if ((mask >> u) ^ (mask >> v)) & 1:
                cut += 1
        best = max(best, cut)
    return best


def _clique_tree(order, bags) -> TreeDecomposition:
    """Parent of v's bag: the bag of the earliest-eliminated remaining member;
    bags without one chain onto the next such bag, so the result is one tree."""
    elim_pos = {v: i for i, v in enumerate(order)}
    parent = [None] * len(order)
    last_rootless = None
    for i, v in enumerate(order):
        rest = [u for u in bags[i] if u != v]
        if rest:
            parent[i] = elim_pos[min(rest, key=lambda u: elim_pos[u])]
        elif last_rootless is not None:
            parent[last_rootless] = i
            last_rootless = i
        else:
            last_rootless = i
    return TreeDecomposition(tuple(bags), tuple(parent), len(order) - 1)


def elimination_decomposition(G: WeightedGraph, order) -> TreeDecomposition:
    """Clique tree of an arbitrary elimination order (a permutation of V).

    A random order gives wide bags, bags with several children (so chains of
    join nodes in nice form) and, between components, forget chains down to
    the empty bag.
    """
    if G.n == 0:
        return TreeDecomposition((), (), 0)
    adj = [set(G.adjacency[v]) for v in range(G.n)]
    alive = set(range(G.n))
    bags = []
    for v in order:
        nbrs = sorted(u for u in adj[v] if u in alive)
        bags.append(tuple(sorted([v] + nbrs)))
        alive.discard(v)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    return _clique_tree(order, bags)


def reference_min_fill(G: WeightedGraph) -> TreeDecomposition:
    """Min-fill clique tree by a full scan of the alive vertices per step.

    Quadratic on purpose: it picks min (fill, id) with `min` over every alive
    vertex and applies no width cap, so build_decomposition can be checked
    against it bag for bag.
    """
    n = G.n
    if n == 0:
        return TreeDecomposition((), (), 0)
    adj = [set(G.adjacency[v]) for v in range(n)]
    alive = set(range(n))

    def fill_count(v):
        nbrs = [u for u in adj[v] if u in alive]
        return sum(
            1
            for i in range(len(nbrs))
            for j in range(i + 1, len(nbrs))
            if nbrs[j] not in adj[nbrs[i]]
        )

    fill = {v: fill_count(v) for v in alive}
    order, bags = [], []
    for _ in range(n):
        v = min(alive, key=lambda u: (fill[u], u))
        nbrs = sorted(u for u in adj[v] if u in alive)
        bags.append(tuple(sorted([v] + nbrs)))
        order.append(v)
        alive.discard(v)
        dirty = set(nbrs)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, b = nbrs[i], nbrs[j]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    dirty |= adj[a] & adj[b] & alive
        for u in dirty & alive:
            fill[u] = fill_count(u)
    return _clique_tree(order, bags)


def solution(G: WeightedGraph, values) -> Assignment:
    """Wrap a sign vector as an Assignment with its evaluated value."""
    return Assignment(tuple(values), evaluate(G, values))


def normalize_nonneg(G: WeightedGraph, start: Assignment | None = None) -> Assignment:
    """An assignment with value >= 0: glue_blocks with every vertex its own
    block, in id order, each starting from `start` (all +1 when absent)."""
    if start is not None and len(start.values) != G.n:
        raise ValidationError("start assignment length mismatch")
    inner = start.values if start is not None else [1] * G.n
    signs, value = glue_blocks(G, range(G.n), inner)
    return Assignment(tuple(signs), value)


def reference_scan(G: WeightedGraph, vertices, start=None) -> dict[int, int]:
    """Nonnegative scan over `vertices` in id order, one vertex at a time.

    Each vertex starts at start[v] (+1 when absent) and is flipped iff its
    edges to already-scanned vertices sum below zero, summed in adjacency
    order.  normalize_nonneg and extend_from_induced must match it.
    """
    order = sorted(vertices)
    inset = set(order)
    signs: dict[int, int] = {}
    for i in order:
        s = start[i] if start is not None else 1
        z = 0.0
        for j, w in G.adjacency[i].items():
            if j < i and j in inset:
                z += w * s * signs[j]
        signs[i] = -s if z < 0 else s
    return signs


def reference_combine(G: WeightedGraph, x1, x2) -> dict[int, int]:
    """x2 together with x1, x1 flipped iff its edges to x2 sum below zero."""
    small, big = (x1, x2) if len(x1) <= len(x2) else (x2, x1)
    c = 0.0
    for u, su in small.items():
        for v, w in G.adjacency[u].items():
            if v in big:
                c += w * su * big[v]
    out = dict(x2)
    out.update((v, s if c >= 0 else -s) for v, s in x1.items())
    return out


def reference_extend(G: WeightedGraph, x) -> tuple[int, ...]:
    """Scan the vertices outside x, then combine x onto them."""
    rest = reference_scan(G, [v for v in range(G.n) if v not in x])
    signs = reference_combine(G, x, rest)
    return tuple(signs[v] for v in range(G.n))


def reference_degeneracy_order(G: WeightedGraph) -> tuple[int, list[int]]:
    """Degeneracy and peeling order by a bucket queue over `G.adjacency`, as
    a list of buckets with lazy deletion; degeneracy_order must match both."""
    n = G.n
    if n == 0:
        return 0, []
    deg = [G.degree(v) for v in range(n)]
    buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    order = []
    d = 0
    cur = 0
    while len(order) < n:
        if not buckets[cur]:
            cur += 1
            continue
        v = buckets[cur].pop()
        if removed[v] or deg[v] != cur:  # re-bucketed at a lower degree since
            continue
        removed[v] = True
        order.append(v)
        d = max(d, cur)
        for u in G.adjacency[v]:
            if not removed[u]:
                deg[u] -= 1
                buckets[deg[u]].append(u)
                cur = min(cur, deg[u])
    return d, order


def reference_greedy_matching(G: WeightedGraph) -> tuple[tuple[tuple[int, int], ...], float]:
    """One scan over the edges by non-increasing |w|, ties by (u, v).

    Returns the matched edges in increasing order and their |w| summed in
    scan order; greedy_sorted_matching must match both exactly.
    """
    eu, ev, ew = G.edge_arrays()
    order = np.lexsort((ev, eu, -np.abs(ew)))
    free = [True] * G.n
    pairs = []
    total = 0.0
    for u, v, w in zip(eu[order].tolist(), ev[order].tolist(), ew[order].tolist()):
        if free[u] and free[v]:
            free[u] = free[v] = False
            pairs.append((u, v))
            total += abs(w)
    return tuple(sorted(pairs)), total


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted decomposition with leaf/introduce/forget/join nodes only."""

    bags: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]  # "leaf" | "introduce" | "forget" | "join"
    children: tuple[tuple[int, ...], ...]
    special: tuple[int | None, ...]  # introduced / forgotten vertex
    root: int

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def postorder(self) -> list[int]:
        out: list[int] = []
        stack = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                out.append(node)
            else:
                stack.append((node, True))
                for c in self.children[node]:
                    stack.append((c, False))
        return out


def reference_to_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form with the same width.

    A leaf bag starts from its lowest vertex (an empty one from the empty
    bag).  Where a bag forgets several vertices, the chain forgets the
    highest id first, and the root's bag is forgotten down to the empty bag,
    so the backtrack decides a bag's forgotten vertices lowest id first with
    ties kept at +1: the order in which solve_treewidth maxes them out.
    """
    if not td.bags:
        return NiceTreeDecomposition((), (), (), (), 0)
    bags: list[tuple[int, ...]] = []
    kinds: list[str] = []
    children: list[tuple[int, ...]] = []
    special: list[int | None] = []

    def add(bag, kind, ch, sp=None) -> int:
        bags.append(tuple(sorted(bag)))
        kinds.append(kind)
        children.append(tuple(ch))
        special.append(sp)
        return len(bags) - 1

    def chain(top: int, target) -> int:
        """Forget then introduce, one vertex at a time, from bags[top] to target."""
        cur = set(bags[top])
        target = set(target)
        for v in sorted(cur - target, reverse=True):
            cur.discard(v)
            top = add(cur, "forget", [top], v)
        for v in sorted(target - cur):
            cur.add(v)
            top = add(cur, "introduce", [top], v)
        return top

    ch_of = td.children()
    done: dict[int, int] = {}
    stack = [(td.root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            for c in ch_of[node]:
                stack.append((c, False))
            continue
        bag = td.bags[node]
        if not ch_of[node]:
            top = chain(add(sorted(bag)[:1], "leaf", []), bag)
        else:
            tops = [chain(done[c], bag) for c in ch_of[node]]
            top = tops[0]
            for t in tops[1:]:
                top = add(bag, "join", [top, t])
        done[node] = top
    root = chain(done[td.root], ())
    return NiceTreeDecomposition(tuple(bags), tuple(kinds), tuple(children), tuple(special), root)


def _sign_array(size: int, pos: int) -> np.ndarray:
    masks = np.arange(size, dtype=np.int64)
    return 1.0 - 2.0 * ((masks >> pos) & 1)


def _expand_index(size_child: int, pos: int) -> np.ndarray:
    """Index of each child mask inside the parent mask space, bit `pos` = 0."""
    masks = np.arange(size_child, dtype=np.int64)
    low = masks & ((1 << pos) - 1)
    high = (masks >> pos) << (pos + 1)
    return high | low


def _bag_value(G: WeightedGraph, bag: tuple[int, ...]) -> np.ndarray:
    """val_x(G[bag]) for every sign mask over the bag."""
    size = 1 << len(bag)
    pos = {v: i for i, v in enumerate(bag)}
    out = np.zeros(size)
    for u in bag:
        for v, w in G.adjacency[u].items():
            if u < v and v in pos:
                out += w * _sign_array(size, pos[u]) * _sign_array(size, pos[v])
    return out


def reference_nice_dp(G: WeightedGraph, ntd) -> Assignment:
    """The nice-form DP with flat tables, index arrays and per-edge sign arrays.

    Every table is kept until backtracking ends, so memory is
    O(nodes * 2^(width+1)).  solve_treewidth must return the same signs and
    value wherever the tables' sums are exact, as with the test graphs'
    weights.  A join node adds two child tables and subtracts the bag's own
    value, so where a sum's rounding depends on its order (weights 1e16
    apart) the two can differ; reference_bucket_elimination adds in
    solve_treewidth's order.
    Bag assignments are encoded as bitmasks (bit i set => bag[i] gets -1).
    """
    if G.n == 0:
        return Assignment((), 0.0)
    order = ntd.postorder()
    tables: dict[int, np.ndarray] = {}
    for node in order:
        bag = ntd.bags[node]
        kind = ntd.kinds[node]
        size = 1 << len(bag)
        if kind == "leaf":
            tables[node] = np.zeros(size)
        elif kind == "introduce":
            (c,) = ntd.children[node]
            v = ntd.special[node]
            p = bag.index(v)
            base = _expand_index(size >> 1, p)
            table = np.empty(size)
            child = tables[c]
            table[base] = child
            table[base | (1 << p)] = child
            sv = _sign_array(size, p)
            pos = {u: i for i, u in enumerate(bag)}
            for u, w in G.adjacency[v].items():
                if u in pos:
                    table += w * sv * _sign_array(size, pos[u])
            tables[node] = table
        elif kind == "forget":
            (c,) = ntd.children[node]
            v = ntd.special[node]
            p = ntd.bags[c].index(v)
            idx0 = _expand_index(size, p)
            child = tables[c]
            tables[node] = np.maximum(child[idx0], child[idx0 | (1 << p)])
        else:  # join
            cy, cz = ntd.children[node]
            tables[node] = tables[cy] + tables[cz] - _bag_value(G, bag)

    root_table = tables[ntd.root]
    best_mask = int(np.argmax(root_table))  # first maximum: deterministic

    signs = [0] * G.n
    stack: list[tuple[int, int]] = [(ntd.root, best_mask)]
    while stack:
        node, mask = stack.pop()
        bag = ntd.bags[node]
        for i, v in enumerate(bag):
            signs[v] = 1 if not (mask >> i) & 1 else -1
        kind = ntd.kinds[node]
        if kind == "leaf":
            continue
        if kind == "introduce":
            (c,) = ntd.children[node]
            p = bag.index(ntd.special[node])
            cm = ((mask >> (p + 1)) << p) | (mask & ((1 << p) - 1))
            stack.append((c, cm))
        elif kind == "forget":
            (c,) = ntd.children[node]
            p = ntd.bags[c].index(ntd.special[node])
            i0 = ((mask >> p) << (p + 1)) | (mask & ((1 << p) - 1))
            i1 = i0 | (1 << p)
            child = tables[c]
            cm = i1 if child[i1] > child[i0] else i0  # ties keep +1
            stack.append((c, cm))
        else:
            cy, cz = ntd.children[node]
            stack.append((cy, mask))
            stack.append((cz, mask))

    if any(s == 0 for s in signs):
        raise ValidationError("decomposition does not cover every vertex")
    value = evaluate(G, signs)
    return Assignment(tuple(signs), value)


def reference_bucket_elimination(G: WeightedGraph, td: TreeDecomposition) -> Assignment:
    """solve_treewidth's DP one bag at a time, with per-bag Python sets,
    dicts and index tuples: the loop the batched DP replaced.

    Each table cell receives the same additions in the same order as in the
    batched DP (children in numbering order, then bucket edges in edge
    order), so the two must agree bit for bit even where the order of
    additions changes a rounding.
    """
    td = to_nice(td)
    if G.n == 0:
        return Assignment((), 0.0)
    bagsets = [set(bag) for bag in td.bags]
    forget_at = [-1] * G.n
    forgets = [0] * len(td.bags)
    for i, bag in enumerate(td.bags):
        p = td.parent[i]
        for v in bag:
            if p is None or v not in bagsets[p]:
                forget_at[v] = i
                forgets[i] += 1
    bucket: list[list[tuple[int, int, float]]] = [[] for _ in td.bags]
    for u, v, w in edge_list(G):
        bucket[forget_at[u] if v in bagsets[forget_at[u]] else forget_at[v]].append((u, v, w))
    rank = {v: r for r, v in enumerate(sorted(range(G.n), key=lambda v: (forget_at[v], -v)))}
    sign = np.array([1.0, -1.0])
    inbox: list[list] = [[] for _ in td.bags]
    forgotten = []
    for i, bag in enumerate(td.bags):
        axes = sorted(bag, key=rank.__getitem__)
        pin = axes.pop() if axes else None
        d = len(axes)
        pos = dict(zip(axes, range(d)))
        table = np.zeros((2,) * d)
        for cpin, keep, msg in inbox[i]:
            idx: list = [None] * d
            for v in keep:
                idx[pos[v]] = slice(None)
            if cpin is None or cpin == pin:
                table += msg[tuple(idx)]
            else:
                a = pos[cpin]
                del idx[a]
                ix, flip = tuple(idx), (slice(None, None, -1),) * msg.ndim
                lo, hi = (slice(None),) * a + (0,), (slice(None),) * a + (1,)
                np.add(table[lo], msg[ix], out=table[lo])
                np.add(table[hi], msg[flip][ix], out=table[hi])
        for u, v, w in bucket[i]:
            ends = [pos[x] for x in (u, v) if x != pin]
            table += w * math.prod(
                sign.reshape((1,) * a + (2,) + (1,) * (d - 1 - a)) for a in ends
            )
        gone = min(forgets[i], d)
        for j in range(gone):
            forgotten.append((axes[j], pin, axes[j + 1 :], np.packbits(table > table[::-1])))
            table = np.maximum(table[0, ...], table[1, ...])
        if td.parent[i] is not None:
            inbox[td.parent[i]].append((pin if gone < d else None, axes[gone:], table))
    signs = [1] * G.n
    for v, pin, keep, bits in reversed(forgotten):
        s = signs[pin]
        mask = s > 0
        for u in keep:
            mask = mask << 1 | (signs[u] != s)
        signs[v] = -1 if int(bits[mask >> 3] >> (7 - (mask & 7))) & 1 else 1
    return Assignment(tuple(signs), evaluate(G, signs))


def layers_of(layer_of) -> tuple[tuple[int, ...], ...]:
    """The BFS layers, each in id order, from each vertex's layer index."""
    layers = [[] for _ in range(max(layer_of, default=-1) + 1)]
    for v, li in enumerate(layer_of):
        layers[li].append(v)
    return tuple(tuple(layer) for layer in layers)


def reference_baker(G: WeightedGraph, eps: float, width_cap: int = 20) -> ApproxResult:
    """solve_baker's loop over all k residue classes, empty ones included,
    each solved on its own."""
    k = math.ceil(4 / eps)
    classes: list[list[int]] = [[] for _ in range(k)]
    for v, li in enumerate(bfs_layers(G)):
        classes[li % k].append(v)
    best, best_i = None, -1
    for i in range(k):
        drop = set(classes[i])
        keep = [v for v in range(G.n) if v not in drop]
        sub, old_of = induced_subgraph(G, keep)
        values = solve_exact(sub, width_cap).assignment.values
        sol = extend_from_induced(G, {old_of[j]: s for j, s in enumerate(values)})
        if best is None or sol.value > best.value:
            best, best_i = sol, i
    cert = {"epsilon": eps, "k": k, "chosen_class": best_i}
    return ApproxResult(best, Fraction(max(k - 4, 0), k), cert)


def is_valid_decomposition(G: WeightedGraph, td: TreeDecomposition) -> bool:
    """The definition checked directly: the parent links form one tree rooted
    at td.root, every vertex and every edge lies in some bag, and the bags
    holding each vertex are connected in that tree."""
    k = len(td.bags)
    if k == 0:
        return G.n == 0
    if len(td.parent) != k or not 0 <= td.root < k:
        return False
    if any(p is not None and not (isinstance(p, int) and 0 <= p < k) for p in td.parent):
        return False
    if [i for i, p in enumerate(td.parent) if p is None] != [td.root]:
        return False
    for i in range(k):  # every bag reaches the root within k steps
        j, steps = i, 0
        while j != td.root and steps <= k:
            j, steps = td.parent[j], steps + 1
        if j != td.root:
            return False
    if any(not 0 <= v < G.n for bag in td.bags for v in bag):
        return False
    sets = [set(bag) for bag in td.bags]
    if set().union(*sets) != set(range(G.n)):
        return False
    if any(not any(u in b and v in b for b in sets) for u, v, _ in edge_list(G)):
        return False
    nbrs: list[set[int]] = [set() for _ in range(k)]
    for i, p in enumerate(td.parent):
        if p is not None:
            nbrs[i].add(p)
            nbrs[p].add(i)
    for v in range(G.n):
        holding = {i for i in range(k) if v in sets[i]}
        start = min(holding)
        seen, queue = {start}, deque([start])
        while queue:
            for j in nbrs[queue.popleft()] & holding:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if seen != holding:
            return False
    return True


def reference_partition_scheme(G: WeightedGraph, eps: float, partition=None) -> ApproxResult:
    """solve_partition_scheme's loop over every part of the (default
    heuristic) partition, empty parts included, each solved on its own."""
    h = max(1, math.ceil(G.m / G.n))
    if partition is None:
        partition = heuristic_partition(G, math.ceil(6 * h / eps))
    best, best_i = None, -1
    for i, part in enumerate(partition.parts):
        x = {}
        for vertices in (set(range(G.n)) - set(part), part):
            if vertices:
                sub, old_of = induced_subgraph(G, vertices)
                values = solve_exact(sub).assignment.values
                x.update((old_of[j], s) for j, s in enumerate(values))
        # both sides glued as blocks in combine_disjoint's order: outside, then part
        inside = set(part)
        block_of = [1 if v in inside else 0 for v in range(G.n)]
        signs, value = glue_blocks(G, block_of, [x[v] for v in range(G.n)])
        if best is None or value > best.value:
            best, best_i = Assignment(tuple(signs), value), i
    cert = {
        "epsilon": eps,
        "k": partition.k,
        "h": h,
        "partition_source": partition.source,
        "chosen_part": best_i,
    }
    return ApproxResult(best, Fraction(max(partition.k - 6 * h, 0), partition.k), cert)
