"""Ground truth and instance machinery: exhaustive solver, the MaxCut
subdivision construction, and seeded instance generators.

`brute_force` enumerates every assignment in dense numpy blocks and reports
the true `evaluate(G, x)` of the one it picks; a plain Gray-code loop kept
in the tests is its reference.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError
from .graph import Assignment, WeightedGraph, evaluate, value_tol

DEFAULT_BRUTE_CAP = 28
LOW_BITS = 14  # the low block: 2^14 sign rows of 14 vertices, 1.75 MiB
CHUNK_CELLS = 1 << 20  # values per chunk table: 8 MiB of float64


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


def _signs(start: int, stop: int, bits: int) -> np.ndarray:
    """Row i: the signs of `bits` vertices under mask start + i, the first
    vertex on the most significant bit and a set bit meaning -1."""
    masks = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return 1.0 - 2.0 * ((masks[:, None] >> shifts) & 1)


def _block_values(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Value of each sign row of S on the edges of W, stored once above the diagonal."""
    return ((S @ W) * S).sum(axis=1)


def _mask_values(G: WeightedGraph, masks: np.ndarray) -> np.ndarray:
    """`evaluate` of every mask, bit-identical: each edge adds +-w in edge order."""
    n = G.n
    total = np.zeros(len(masks))
    for u, v, w in G.edges:
        total += np.where(((masks >> (n - 1 - u)) ^ (masks >> (n - 1 - v))) & 1, -w, w)
    return total


def brute_force(G: WeightedGraph, cap: int = DEFAULT_BRUTE_CAP) -> Assignment:
    """True optimum over all 2^(n-1) assignments with vertex 0 pinned to +1.

    An assignment is a mask of n bits, vertex v on bit n-1-v and a set bit
    meaning -1, so numeric mask order is the lexicographic order with +1
    first.  The last b = min(n-1, 14) vertices form the low block: its 2^b
    sign rows and their inner values are built once.  The high assignments
    go in chunks of at most CHUNK_CELLS values, each a dense table of the
    high values, plus the cross terms by one matrix product, plus the low
    values.  The cells within `value_tol` of the chunk's maximum, or of the
    winner so far when that is higher, are re-evaluated exactly as
    `evaluate` sums them, so rounding in the table never picks the winner.
    Ties go to the smallest mask, i.e. the lexicographically smallest
    assignment; the reported value is `evaluate(G, x)`.
    """
    n = G.n
    if n > cap:
        raise CapacityError(f"brute force capped at n <= {cap}, got {n}", achieved=n)
    if n == 0:
        return Assignment((), 0.0)
    b = min(n - 1, LOW_BITS)
    k = n - b  # high block: vertex 0 (its bit is always clear) and vertices 1..k-1
    eu, ev, ew = G.edge_arrays()
    W = np.zeros((n, n))
    W[eu, ev] = ew  # u < v: each edge once, above the diagonal
    S_low = _signs(0, 1 << b, b)
    low_values = _block_values(S_low, W[k:, k:])
    tol = value_tol(G)
    rows, step = 1 << (k - 1), max(1, CHUNK_CELLS >> b)
    best_mask, best_val = -1, -math.inf
    for r0 in range(0, rows, step):
        S_high = _signs(r0, min(r0 + step, rows), k)
        T = (S_high @ W[:k, k:]) @ S_low.T
        T += _block_values(S_high, W[:k, :k])[:, None]
        T += low_values
        near = np.flatnonzero(T >= max(float(T.max()), best_val) - tol)
        del T  # one chunk's arrays alive at a time
        if near.size:
            near += r0 << b
            values = _mask_values(G, near)
            i = int(np.argmax(values))  # first of the chunk's best: its smallest mask
            if values[i] > best_val:  # a tie keeps the earlier chunk's smaller mask
                best_mask, best_val = int(near[i]), float(values[i])
            del values
        del near
    x = tuple(-1 if best_mask >> (n - 1 - v) & 1 else 1 for v in range(n))
    return Assignment(x, evaluate(G, x))


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
