"""Shared helpers for the test suite: small-instance sampling and
independent oracles that do not go through the code under test."""

from __future__ import annotations

from functools import lru_cache

from maxqp import GeneratorSpec, SplitMix64, TreeDecomposition, WeightedGraph, generate


def random_graph(seed: int, n: int, m: int, real: bool = False) -> WeightedGraph:
    m = min(m, n * (n - 1) // 2)
    return generate(GeneratorSpec("sparse-random", seed, {"n": n, "m": m, "real": real}))


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
        val = sum(w * x[u] * x[v] for u, v, w in G.edges)
        best = max(best, val)
    return best


def max_matching_size(G: WeightedGraph) -> int:
    """Maximum-cardinality matching size by bitmask DP over vertex subsets."""
    pairs = [(u, v) for u, v, _ in G.edges]

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


def is_bipartite(G: WeightedGraph) -> bool:
    color = [0] * G.n
    for s in range(G.n):
        if color[s]:
            continue
        color[s] = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for u, _ in G.adjacency[v]:
                if color[u] == 0:
                    color[u] = -color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def reference_min_fill(G: WeightedGraph) -> TreeDecomposition:
    """Min-fill clique tree by a full scan of the alive vertices per step.

    Quadratic on purpose: it picks min (fill, id) with `min` over every alive
    vertex and applies no width cap, so build_decomposition can be checked
    against it bag for bag.
    """
    n = G.n
    if n == 0:
        return TreeDecomposition((), (), 0)
    adj = [set(u for u, _ in G.adjacency[v]) for v in range(n)]
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
    order, bags, elim_pos = [], [], {}
    for step in range(n):
        v = min(alive, key=lambda u: (fill[u], u))
        nbrs = sorted(u for u in adj[v] if u in alive)
        bags.append(tuple(sorted([v] + nbrs)))
        order.append(v)
        elim_pos[v] = step
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

    parent = [None] * n
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
    return TreeDecomposition(tuple(bags), tuple(parent), n - 1)


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
        for j, w in G.adjacency[i]:
            if j < i and j in inset:
                z += w * s * signs[j]
        signs[i] = -s if z < 0 else s
    return signs


def reference_combine(G: WeightedGraph, x1, x2) -> dict[int, int]:
    """x2 together with x1, x1 flipped iff its edges to x2 sum below zero."""
    small, big = (x1, x2) if len(x1) <= len(x2) else (x2, x1)
    c = 0.0
    for u, su in small.items():
        for v, w in G.adjacency[u]:
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
