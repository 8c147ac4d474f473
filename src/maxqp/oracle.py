"""Ground truth and instance machinery: exhaustive solver, the MaxCut
subdivision construction, and seeded instance generators."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from .errors import CapacityError, ValidationError
from .graph import Assignment, WeightedGraph, evaluate

DEFAULT_BRUTE_CAP = 28


class SplitMix64:
    """Minimal portable PRNG (splitmix64 finalizer) for reproducible instances.

    Identical sequences for identical seeds on every platform; deliberately
    independent of the interpreter's RNG.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, k: int) -> int:
        return self.next_u64() % k

    def sign(self) -> int:
        return 1 if self.next_u64() & 1 else -1

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def brute_force(G: WeightedGraph, cap: int = DEFAULT_BRUTE_CAP) -> Assignment:
    """True optimum by Gray-code enumeration of 2^(n-1) assignments.

    Vertex 0 is pinned to +1 (global sign symmetry); each step flips a single
    vertex and updates the value via the local-move identity.  Ties go to the
    lexicographically smallest assignment (+1 before -1).
    """
    n = G.n
    if n > cap:
        raise CapacityError(f"brute force capped at n <= {cap}, got {n}", achieved=n)
    if n == 0:
        return Assignment((), 0.0)
    # plain lists: calling .items() on every step costs about a fifth at n = 20
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


def subdivide_for_maxcut(G: WeightedGraph) -> WeightedGraph:
    """Replace each edge by a two-edge path through a fresh vertex.

    The edge toward the lower-id original endpoint gets weight +1, the other
    -1.  The result is bipartite and 2-degenerate, and its optimum is exactly
    twice the maximum cut of the input (weights of the input are ignored).
    """
    n, m = G.n, G.m
    out = []
    for t, (u, v, _) in enumerate(G.edges):
        mid = n + t
        out.append((u, mid, 1.0))
        out.append((v, mid, -1.0))
    return WeightedGraph._from_canonical(n + m, out)


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance description: same spec + seed, same instance."""

    kind: str
    seed: int
    params: dict = field(default_factory=dict)


def _sample_pairs(rng: SplitMix64, n: int, m: int) -> list[tuple[int, int]]:
    if m > n * (n - 1) // 2:
        raise ValidationError(f"cannot place {m} edges on {n} vertices")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        chosen.add((u, v))
    return sorted(chosen)


def _count(params: dict, key: str) -> int:
    """Generator parameter `key`, which must be a nonnegative integer."""
    v = params.get(key)
    if v is None:
        raise ValidationError(f"generator parameter {key!r} is missing")
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
        raise ValidationError(f"generator parameter {key!r} must be an integer >= 0, got {v!r}")
    return int(v)


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Build the instance described by `spec`, reproducibly from its seed."""
    rng = SplitMix64(spec.seed)
    p = spec.params
    kind = spec.kind
    if kind == "grid-spin-glass":
        rows, cols = _count(p, "rows"), _count(p, "cols")
        if rows < 1 or cols < 1:
            raise ValidationError("grid dimensions must be positive")
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1, float(rng.sign())))
                if r + 1 < rows:
                    edges.append((v, v + cols, float(rng.sign())))
        return WeightedGraph._from_canonical(rows * cols, edges)
    if kind == "sparse-random":
        n, m = _count(p, "n"), _count(p, "m")
        real = bool(p.get("real", False))
        pairs = _sample_pairs(rng, n, m)
        edges = []
        for u, v in pairs:
            if real:
                w = 0.0
                while w == 0.0:
                    w = 2.0 * rng.random() - 1.0
            else:
                w = float(rng.sign())
            edges.append((u, v, w))
        return WeightedGraph._from_canonical(n, edges)
    if kind == "d-regular":
        n, d = _count(p, "n"), _count(p, "degree")
        if n * d % 2 or d >= n:
            raise ValidationError(f"no simple {d}-regular graph on {n} vertices")
        for _ in range(1000):
            stubs = [v for v in range(n) for _ in range(d)]
            rng.shuffle(stubs)
            pairs = set()
            ok = True
            for i in range(0, len(stubs), 2):
                u, v = stubs[i], stubs[i + 1]
                if u == v:
                    ok = False
                    break
                if u > v:
                    u, v = v, u
                if (u, v) in pairs:
                    ok = False
                    break
                pairs.add((u, v))
            if ok:
                return WeightedGraph._from_canonical(
                    n, [(u, v, float(rng.sign())) for u, v in sorted(pairs)]
                )
        raise ValidationError("configuration model failed to produce a simple graph")
    if kind == "perfect-matching":
        n = _count(p, "n")
        if n % 2:
            raise ValidationError("perfect-matching instance needs even n")
        edges = [(2 * i, 2 * i + 1, float(rng.sign())) for i in range(n // 2)]
        return WeightedGraph._from_canonical(n, edges)
    if kind == "clique-plus-matching":
        n = _count(p, "n")
        c = int(n**0.5)
        if (n - c) % 2:
            raise ValidationError(
                f"clique-plus-matching needs n - isqrt(n) even, got n = {n}"
            )
        edges = []
        for i in range(c):
            for j in range(i + 1, c):
                edges.append((i, j, float(rng.sign())))
        for i in range(c, n, 2):
            edges.append((i, i + 1, float(rng.sign())))
        return WeightedGraph._from_canonical(n, edges)
    if kind == "maxcut-subdivision":
        n, m = _count(p, "n"), _count(p, "m")
        pairs = _sample_pairs(rng, n, m)
        base = WeightedGraph._from_canonical(n, [(u, v, 1.0) for u, v in pairs])
        return subdivide_for_maxcut(base)
    raise ValidationError(f"unknown generator kind: {kind!r}")
