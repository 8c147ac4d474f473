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
from .graph import Assignment, WeightedGraph, check_vertex_count, evaluate, value_tol

DEFAULT_BRUTE_CAP = 28
LOW_BITS = 14  # the low block: 2^14 sign rows of 14 vertices, 1.75 MiB
CHUNK_CELLS = 1 << 20  # values per chunk table: 8 MiB of float64


class SplitMix64:
    """Minimal portable PRNG (splitmix64 finalizer) for reproducible instances.

    Identical sequences for identical seeds on every platform; deliberately
    independent of the interpreter's RNG.  `draw` gives the next outputs as
    one numpy block, the same values that as many `next_u64` calls give
    (Steele, Lea & Flood, *Fast splittable pseudorandom number generators*,
    OOPSLA 2014).
    """

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def draw(self, k: int) -> np.ndarray:
        """The next k outputs of `next_u64` as a uint64 array; the state
        advances by k.  numpy's uint64 arithmetic wraps as MASK does."""
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(self.GAMMA) + np.uint64(self.state)
        self.state = (self.state + k * self.GAMMA) & self.MASK
        z ^= z >> 30
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        return z

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
    eu, ev, _ = G.edge_arrays()
    ends = np.stack((eu, ev), axis=1).ravel()  # u0, v0, u1, v1, ...
    mids = np.repeat(np.arange(n, n + m, dtype=np.int64), 2)
    ws = np.tile([1.0, -1.0], m)
    order = np.argsort(ends, kind="stable")  # mids rise along ends: ties stay in mid order
    return WeightedGraph._from_columns(n + m, ends[order], mids[order], ws[order])


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance description: same spec + seed, same instance."""

    kind: str
    seed: int
    params: dict = field(default_factory=dict)


def _sample_pairs(rng: SplitMix64, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m distinct pairs u < v as int64 columns sorted by (u, v), by rejection.

    An attempt draws u = randrange(n), then v = randrange(n); it is skipped
    when u == v and counts only at the first occurrence of its pair.  The
    attempts are drawn in blocks, and the stream is left just after the
    attempt that gives the m-th pair, as one attempt at a time would leave it.
    """
    total = n * (n - 1) // 2
    if m > total:
        raise ValidationError(f"cannot place {m} edges on {n} vertices")
    check_vertex_count(n)  # so u * n + v fits in int64
    found = np.empty(0, dtype=np.int64)  # the pairs so far as u * n + v, sorted
    while len(found) < m:
        need, start = m - len(found), rng.state
        # an attempt gives a new pair with chance 2 * (pairs not found) / n^2:
        # draw a little over the expected number of attempts for `need` of them
        k = 16 + need * n * n * 9 // ((total - len(found)) * 16)
        d = rng.draw(2 * k) % np.uint64(n)
        u, v = d[0::2].astype(np.int64), d[1::2].astype(np.int64)
        key = np.where(u == v, -1, np.minimum(u, v) * n + np.maximum(u, v))
        order = np.argsort(key, kind="stable")
        sk = key[order]
        head = np.ones(k, dtype=bool)  # the first attempt at each pair in this block
        head[1:] = sk[1:] != sk[:-1]
        head &= sk >= 0
        head[head] = ~np.isin(sk[head], found)
        is_new = np.zeros(k, dtype=bool)
        is_new[order[head]] = True
        new = np.flatnonzero(is_new)[:need]  # the attempts that give new pairs, in draw order
        if len(new) == need:
            rng.state = (start + 2 * (int(new[-1]) + 1) * rng.GAMMA) & rng.MASK
        found = np.sort(np.concatenate((found, key[new])))
    return found // n, found % n


def _sign_weights(rng: SplitMix64, k: int) -> np.ndarray:
    """k weights of +-1, one `sign()` draw each."""
    return np.where(rng.draw(k) & 1, 1.0, -1.0)


def _real_weights(rng: SplitMix64, k: int) -> np.ndarray:
    """k weights 2r - 1 for r = `random()`, in draw order; a draw that gives
    0.0 is skipped, as a redraw loop per weight skips it."""
    parts, got = [np.empty(0)], 0
    while got < k:
        w = 2.0 * ((rng.draw(k - got) >> 11).astype(np.float64) / float(1 << 53)) - 1.0
        parts.append(w[w != 0.0])
        got += len(parts[-1])
    return np.concatenate(parts)


def _signed(rng: SplitMix64, n: int, u: np.ndarray, v: np.ndarray) -> WeightedGraph:
    """The graph on canonical pairs (u, v), a random sign drawn per pair in order."""
    return WeightedGraph._from_columns(n, u, v, _sign_weights(rng, len(u)))


def _count(params: dict, key: str) -> int:
    """Generator parameter `key`, which must be a nonnegative integer."""
    v = params.get(key)
    if v is None:
        raise ValidationError(f"generator parameter {key!r} is missing")
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
        raise ValidationError(f"generator parameter {key!r} must be an integer >= 0, got {v!r}")
    return int(v)


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Build the instance described by `spec`, reproducibly from its seed.

    Every kind reads one SplitMix64 stream seeded with `spec.seed`, mostly in
    numpy blocks that hold the values one `next_u64` call per draw would give,
    in the same order.  sparse-random and maxcut-subdivision sample their
    pairs by rejection (`_sample_pairs`); then each edge, in (u, v) order,
    draws its weight: a sign from one draw's low bit, or a real 2r - 1 drawn
    again while it is 0.0.  grid-spin-glass draws a sign per edge in row-major
    order, right edge before down edge; d-regular shuffles its stubs one draw
    at a time.  The graph is built from its columns.
    """
    rng = SplitMix64(spec.seed)
    p = spec.params
    kind = spec.kind
    if kind == "grid-spin-glass":
        rows, cols = _count(p, "rows"), _count(p, "cols")
        if rows < 1 or cols < 1:
            raise ValidationError("grid dimensions must be positive")
        check_vertex_count(rows * cols)
        v = np.arange(rows * cols, dtype=np.int64)
        # row-major: each vertex's edge to the right, then its edge down
        has = np.stack((v % cols + 1 < cols, v // cols + 1 < rows), axis=1)
        ends = np.stack((v + 1, v + cols), axis=1)
        return _signed(rng, rows * cols, np.repeat(v, has.sum(axis=1)), ends[has])
    if kind == "sparse-random":
        n, m = _count(p, "n"), _count(p, "m")
        real = bool(p.get("real", False))
        u, v = _sample_pairs(rng, n, m)
        w = _real_weights(rng, m) if real else _sign_weights(rng, m)
        return WeightedGraph._from_columns(n, u, v, w)
    if kind == "d-regular":
        n, d = _count(p, "n"), _count(p, "degree")
        if n * d % 2 or d >= n:
            raise ValidationError(f"no simple {d}-regular graph on {n} vertices")
        check_vertex_count(n)
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
                cols = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
                return _signed(rng, n, cols[:, 0].copy(), cols[:, 1].copy())
        raise ValidationError("configuration model failed to produce a simple graph")
    if kind == "perfect-matching":
        n = _count(p, "n")
        if n % 2:
            raise ValidationError("perfect-matching instance needs even n")
        check_vertex_count(n)
        u = np.arange(0, n, 2, dtype=np.int64)
        return _signed(rng, n, u, u + 1)
    if kind == "clique-plus-matching":
        n = _count(p, "n")
        c = int(n**0.5)
        if (n - c) % 2:
            raise ValidationError(
                f"clique-plus-matching needs n - isqrt(n) even, got n = {n}"
            )
        check_vertex_count(n)
        iu, ju = np.triu_indices(c, 1)  # the clique's pairs in (i, j) order
        mu = np.arange(c, n, 2, dtype=np.int64)
        return _signed(rng, n, np.concatenate((iu, mu)), np.concatenate((ju, mu + 1)))
    if kind == "maxcut-subdivision":
        n, m = _count(p, "n"), _count(p, "m")
        u, v = _sample_pairs(rng, n, m)
        return subdivide_for_maxcut(WeightedGraph._from_columns(n, u, v, np.ones(m)))
    raise ValidationError(f"unknown generator kind: {kind!r}")
