"""Core instance/solution types and the sign-flip composition primitives.

Every way of putting local solutions together without losing value goes
through `glue_blocks`: blocks of vertices with fixed inner signs are placed
one after another, and a block is flipped when its edges to the blocks
already placed sum below zero.  `combine_disjoint` and `extend_from_induced`
are choices of blocks, as are the matching and packing drivers in
:mod:`maxqp.packing`.

The objective used everywhere is the edge-based sum over stored undirected
edges: val_x(G) = sum over {u,v} in E of a_uv * x_u * x_v.  This is half of
the full symmetric double sum over the matrix A; one convention is used
throughout and all reported values follow it.

Vertex ids are 0-based in this module; the file formats in :mod:`maxqp.io`
translate from the 1-based external convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ValidationError

MAX_VERTICES = 10**7  # a larger n is refused before anything is allocated per vertex
ROW_BLOCK = 1 << 13  # entries converted to Python objects at a time by `rows`


def rows(*columns: np.ndarray) -> Iterable[tuple]:
    """`zip` of the columns' entries as Python scalars, for a scan loop.

    The columns are converted ROW_BLOCK entries at a time, so the converted
    lists stay small and in cache instead of holding every entry at once.
    """
    return chain.from_iterable(
        zip(*(c[a : a + ROW_BLOCK].tolist() for c in columns))
        for a in range(0, len(columns[0]), ROW_BLOCK)
    )


def check_vertex_count(n: int) -> None:
    """Reject a negative vertex count, or one over MAX_VERTICES."""
    if n < 0:
        raise ValidationError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} exceeds cap {MAX_VERTICES}", achieved=n)


def _check_entry(n: int, u: int, v: int, w: float) -> None:
    """Reject an out-of-range vertex id, a self-loop or a non-finite weight."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValidationError(f"vertex id out of range: ({u}, {v})")
    if u == v:
        raise ValidationError(f"self-loop on vertex {u} is not allowed")
    if not math.isfinite(w):
        raise ValidationError(f"non-finite weight on edge ({u}, {v})")


class WeightedGraph:
    """Symmetric sparse MaxQP instance as an undirected edge-weighted graph.

    Immutable after construction: no self-loops, each unordered edge stored
    once with a nonzero weight.  `unit` is true iff every |w| == 1.  The stored
    form is three numpy columns (u, v, w): int64 ids with u < v and float64
    weights, sorted by (u, v), which `edge_arrays` returns: the one edge
    list.  `adjacency` is built from it on first read: `adjacency[v]` maps
    each neighbour of v to the edge weight, keys in increasing id order, so
    `u in adjacency[v]` and `adjacency[v][u]` are O(1).
    """

    __slots__ = ("n", "unit", "_arrays", "_adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        canon = []
        seen = set()
        for u, v, w in edges:
            _check_entry(n, u, v, w)
            if w == 0:
                raise ValidationError(f"zero weight on edge ({u}, {v})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canon.append((u, v, float(w)))
        check_vertex_count(n)  # so every id fits in int64
        canon.sort()
        u, v, w = zip(*canon) if canon else ((), (), ())
        ids = np.array((u, v), dtype=np.int64)
        self._build(n, ids[0], ids[1], np.array(w, dtype=np.float64))

    @classmethod
    def _from_columns(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """Trusted path from canonical columns: int64 ids u < v, each pair once
        and sorted by (u, v), with finite nonzero float64 weights."""
        self = cls.__new__(cls)
        self._build(n, u, v, w)
        return self

    def _build(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        """The one place that sets every field, from canonical columns."""
        check_vertex_count(n)
        absw = np.abs(w)
        # every value and partial sum lies within +-sum |w|, so the difference of
        # two values (a self-check's margin) lies within 2 * sum |w|: keep that finite
        with np.errstate(over="ignore"):
            total = float(absw.sum())
        if total > 1e307:  # near overflow the order of summation decides: sum as given
            total = sum(absw.tolist())
        if not math.isfinite(2.0 * total):
            raise ValidationError("total absolute weight overflows: 2 * sum |w| is not finite")
        self.n = n
        self.unit = bool((absw == 1.0).all())
        self._arrays = (u, v, w)
        self._adjacency = None

    def edge_arrays(self):
        """The (u, v, w) numpy columns, the stored form, for bulk passes."""
        return self._arrays

    @property
    def adjacency(self) -> list[dict[int, float]]:
        """Neighbour -> weight map of each vertex, built on first read."""
        if self._adjacency is None:
            adjacency: list[dict[int, float]] = [{} for _ in range(self.n)]
            for u, v, w in zip(*(c.tolist() for c in self._arrays)):
                adjacency[u][v] = w
                adjacency[v][u] = w
            self._adjacency = adjacency
        return self._adjacency

    @property
    def m(self) -> int:
        return len(self._arrays[0])

    def weight(self, u: int, v: int) -> float:
        """Weight of edge {u, v}; raises if the edge is absent."""
        w = self.adjacency[u].get(v)
        if w is None:
            raise ValidationError(f"no edge ({u}, {v})")
        return w

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, unit={self.unit})"


def load_graph(n: int, entries: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Build a graph from raw (possibly asymmetric/duplicated) entries.

    All entries for the same unordered pair are merged by averaging, the
    symmetrization rule a' = (a_uv + a_vu) / 2 applied uniformly.  Pairs whose
    average is zero are dropped.  Self-loops are rejected, and so is a pair
    whose finite entries overflow to a non-finite average.
    """
    us, vs, ws = [], [], []
    for u, v, w in entries:
        _check_entry(n, u, v, w)
        us.append(u)
        vs.append(v)
        ws.append(w)
    return merge_columns(n, us, vs, ws)


def merge_columns(n: int, u, v, w) -> WeightedGraph:
    """`load_graph` on entries given as columns: u, v 0-based ids, w weights.

    The first entry (in column order) with an out-of-range id, a self-loop or
    a non-finite weight raises `_check_entry`'s error.  Each pair's entries
    are summed in entry order from 0.0, as a running float sum would: a stable
    sort keeps that order within a pair, and `np.add.at` adds unbuffered, one
    entry after another.  The first non-finite average in pair order raises.
    """
    try:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
    except OverflowError:  # an id past 2^63 - 1, so n is far over the cap
        raise CapacityError(f"vertex count {n} exceeds cap {MAX_VERTICES}", achieved=n) from None
    w = np.asarray(w, dtype=np.float64)
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v) | ~np.isfinite(w)
    if bad.any():
        i = int(np.argmax(bad))
        _check_entry(n, int(u[i]), int(v[i]), float(w[i]))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    span = int(hi.max(initial=0)) + 1
    # one int64 key per entry, in (lo, hi) order; ids of 2^31 on are past the vertex cap
    order = np.argsort(lo * span + hi, kind="stable") if span < 2**31 else np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    if not first.all():  # some pair has several entries: average them
        group = np.cumsum(first) - 1
        sums = np.zeros(int(group[-1]) + 1)
        with np.errstate(over="ignore"):
            np.add.at(sums, group, w)
        lo, hi = lo[first], hi[first]
        w = sums / np.bincount(group)
        bad = ~np.isfinite(w)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"non-finite weight on edge ({int(lo[i])}, {int(hi[i])})")
    keep = w != 0.0
    return WeightedGraph._from_columns(n, lo[keep], hi[keep], w[keep])


@dataclass(frozen=True)
class Assignment:
    """A vector x in {-1,+1}^n with its cached objective value."""

    values: tuple[int, ...]
    value: float

    def __post_init__(self):
        if not set(self.values) <= {-1, 1}:
            raise ValidationError("assignment entries must be -1 or +1")


@dataclass(frozen=True)
class ApproxResult:
    """What every solver returns: a solution, its proved factor (1 when exact)
    and the certificate quantities the factor was computed from."""

    assignment: Assignment
    guarantee: Fraction
    certificate: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.assignment.value


def evaluate(G: WeightedGraph, values: Sequence[int]) -> float:
    """Edge-based objective: sum of a_uv * x_u * x_v over stored edges.

    The terms are added one after another in edge order, from 0.0:
    `np.add.accumulate` is a running sum, unlike the pairwise `np.sum`, so
    every value reported anywhere is this one, bit for bit.
    """
    if len(values) != G.n:
        raise ValidationError(f"assignment length {len(values)} != n = {G.n}")
    eu, ev, ew = G.edge_arrays()
    if not len(ew):
        return 0.0
    x = np.asarray(values, dtype=np.float64)
    terms = ew * x[eu] * x[ev]
    # + 0.0, the running sum's start, makes a sum of -0.0 terms 0.0
    return float(np.add.accumulate(terms, out=terms)[-1]) + 0.0


def value_tol(G: WeightedGraph) -> float:
    """Slack for self-checks on float values: 1e-9 * max(1, sum |w|).

    Summing the same terms in another order can move a value by a few ulps of
    sum |w|, which an absolute tolerance does not cover on large instances.
    """
    return 1e-9 * max(1.0, float(np.abs(G.edge_arrays()[2]).sum()))


def glue_blocks(
    G: WeightedGraph, block_of: Sequence[int], inner: Sequence[int]
) -> tuple[list[int], float]:
    """The lossless composition step: place blocks in order, flipping as needed.

    `block_of[v]` is v's block id (ids dense from 0), or -1 to leave v out;
    `inner[v]` is v's sign inside its block.  Blocks are placed in increasing
    id, and block b is flipped iff the sum of a_uv * x_u * x_v over its edges
    to earlier blocks is negative (a tie keeps it).  Every block then adds a
    nonnegative amount to the blocks before it, so the result is worth at
    least the sum of the blocks' inner values.

    Returns the signs (0 for left-out vertices) and `evaluate` of them, the
    value on the subgraph induced by the included vertices.  O(n + m): numpy
    buckets the cross edges by their later block, with both inner signs
    folded into each coefficient, and one loop over those edges fixes the
    flips.  The per-edge quantities are computed in edge order, and only two
    are then permuted into bucket order.
    """
    if len(block_of) != G.n or len(inner) != G.n:
        raise ValidationError("block and sign vectors must have length n")
    block = np.asarray(block_of, dtype=np.int64)
    sign = np.asarray(inner, dtype=np.int64)
    eu, ev, ew = G.edge_arrays()
    bu, bv = block[eu], block[ev]
    cross = np.flatnonzero((bu >= 0) & (bv >= 0) & (bu != bv))
    bu, bv = bu[cross], bv[cross]
    later, earlier = np.maximum(bu, bv), np.minimum(bu, bv)
    coeff = ew[cross] * sign[eu[cross]] * sign[ev[cross]]
    flip = [1] * (int(block.max(initial=0)) + 1)
    # the keys later * k + position are distinct (and below len(flip) * m, far
    # inside int64), so numpy's fast unstable sort of them is a stable sort by later
    k = len(cross)
    key = later * k + np.arange(k)
    key.sort()
    later, order = np.divmod(key, max(k, 1))
    earlier, coeff = earlier[order], coeff[order]
    cur, c = -1, 0.0
    for b, e, w in rows(later, earlier, coeff):
        if b != cur:  # every edge of block cur is summed: fix its sign
            if c < 0:
                flip[cur] = -1
            cur, c = b, 0.0
        c += w * flip[e]
    if c < 0:
        flip[cur] = -1
    signs = np.where(block >= 0, sign * np.asarray(flip, dtype=np.int64)[block], 0)
    return signs.tolist(), evaluate(G, signs)


def _check_vertices(G: WeightedGraph, x: Mapping[int, int]) -> None:
    for v in x:
        if not 0 <= v < G.n:
            raise ValidationError(f"vertex id out of range: {v}")


def combine_disjoint(
    G: WeightedGraph, x1: Mapping[int, int], x2: Mapping[int, int]
) -> tuple[dict[int, int], float]:
    """Merge solutions of two disjoint induced subgraphs without losing value.

    x2 is placed first and x1 second, so the result is whichever of x1 u x2
    and (-x1) u x2 has value on the union >= the sum of the values of x1 and
    x2 on their own subgraphs (the unflipped one when both qualify), together
    with that value.
    """
    if any(v in x2 for v in x1):
        raise ValidationError("vertex sets of the two solutions overlap")
    _check_vertices(G, x1)
    _check_vertices(G, x2)
    block_of = [-1] * G.n
    inner = [1] * G.n
    for b, x in enumerate((x2, x1)):
        for v, s in x.items():
            block_of[v] = b
            inner[v] = s
    signs, value = glue_blocks(G, block_of, inner)
    return {v: signs[v] for part in (x2, x1) for v in part}, value


def extend_from_induced(G: WeightedGraph, x: Mapping[int, int]) -> Assignment:
    """Complete a solution on an induced subgraph to all of G.

    The other vertices are glued on one at a time in id order, then x as one
    last block, so the result has value >= the value of x on the induced
    subgraph.
    """
    _check_vertices(G, x)
    keys = np.fromiter(x.keys(), dtype=np.int64, count=len(x))
    inner = np.ones(G.n, dtype=np.int64)
    inner[keys] = np.fromiter(x.values(), dtype=np.int64, count=len(x))
    rest = np.ones(G.n, dtype=bool)
    rest[keys] = False
    block_of = np.cumsum(rest) - 1
    block_of[keys] = G.n - len(x)
    signs, value = glue_blocks(G, block_of, inner)
    return Assignment(tuple(signs), value)


@dataclass(frozen=True)
class InstanceStats:
    abs_weight: float
    max_degree: int
    degeneracy: int
    density: Fraction = field(default_factory=lambda: Fraction(0))


def degeneracy_order(G: WeightedGraph) -> tuple[int, list[int]]:
    """Degeneracy and a peeling order via repeated minimum-degree removal.

    Bucket-queue implementation, O(n + m) (Batagelj & Zaversnik, *An O(m)
    algorithm for cores decomposition of networks*, 2003).  Its neighbour
    lists are cut from the edge columns, each in increasing id order, so it
    does not build `G.adjacency`.
    """
    n = G.n
    if n == 0:
        return 0, []
    eu, ev, _ = G.edge_arrays()
    # both directions of every edge, smaller neighbours first: the columns are
    # sorted by (u, v), so a stable sort by vertex puts each list in id order
    src = np.concatenate((ev, eu))
    by_vertex = np.argsort(src, kind="stable")
    nbrs = np.concatenate((eu, ev))[by_vertex].tolist()
    counts = np.bincount(src, minlength=n)
    start = np.concatenate(([0], np.cumsum(counts))).tolist()
    deg = counts.tolist()
    buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    order = []
    d = 0
    cur = 0
    while len(order) < n:
        bucket = buckets[cur]
        if not bucket:
            cur += 1
            continue
        v = bucket.pop()
        # lazy deletion: skip entries that were re-bucketed at a lower degree
        if removed[v] or deg[v] != cur:
            continue
        removed[v] = True
        order.append(v)
        if cur > d:
            d = cur
        for u in nbrs[start[v] : start[v + 1]]:
            if not removed[u]:
                k = deg[u] = deg[u] - 1
                buckets[k].append(u)
                if k < cur:
                    cur = k
    return d, order


def stats(G: WeightedGraph) -> InstanceStats:
    """Exact max degree, degeneracy, density m/n, and total absolute weight.

    No solver calls it; it is kept for callers outside the package: the tests,
    and perfbench's span on `graph.stats`.
    """
    eu, ev, ew = G.edge_arrays()
    abs_weight = float(np.abs(ew).sum())
    max_degree = int(np.bincount(np.concatenate((eu, ev))).max(initial=0))
    d, _ = degeneracy_order(G)
    density = Fraction(G.m, G.n) if G.n else Fraction(0)
    return InstanceStats(abs_weight, max_degree, d, density)


def induced_subgraph(
    G: WeightedGraph, vertices: Iterable[int]
) -> tuple[WeightedGraph, list[int]]:
    """Induced subgraph with vertices relabeled 0..k-1 in increasing id order.

    Returns the subgraph and `old_of`, mapping new ids back to ids in G.  The
    relabelling keeps id order, so G's (u, v)-sorted edge columns, gathered
    and masked, are the subgraph's.
    """
    old_of = sorted(set(vertices))
    if old_of and not (0 <= old_of[0] and old_of[-1] < G.n):
        raise ValidationError(f"vertex id out of range: {old_of[0]}..{old_of[-1]}")
    new_of = np.full(G.n, -1, dtype=np.int64)
    new_of[old_of] = np.arange(len(old_of))
    eu, ev, ew = G.edge_arrays()
    su, sv = new_of[eu], new_of[ev]
    keep = (su >= 0) & (sv >= 0)
    return WeightedGraph._from_columns(len(old_of), su[keep], sv[keep], ew[keep]), old_of
