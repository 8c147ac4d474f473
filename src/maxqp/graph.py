"""Core instance/solution types and the sign-flip composition primitives.

Every way of putting local solutions together without losing value goes
through `glue_blocks`: blocks of vertices with fixed inner signs are placed
one after another, and a block is flipped when its edges to the blocks
already placed sum below zero.  `extend_from_induced`, the schemes' two-block
glue and the matching and packing drivers in :mod:`maxqp.packing` are
choices of blocks.

A solution is an `Assignment`, n signs as a read-only int8 array with their
value, as `glue_blocks` returns it.  A partial assignment (n signs, 0 off a
subgraph) is only an input: the schemes' `_lift` builds one, and
`extend_from_induced` completes it.

A graph's one stored form is its (u, v, w) edge columns; `degrees` counts
from them.  `csr` is the one neighbour form, cut from the columns by each
caller that needs it: offsets `start` and a flat `nbr`, v's neighbours
nbr[start[v]:start[v + 1]] in id order.  Every walk by vertex reads it:
min-fill, BFS, the blossom search, and `degeneracy`'s numpy rounds.
`bfs_sweep` is the one plain BFS loop over its flat lists: `bfs_layers`
runs it, and so does `cuthill_mckee_order`, over ranges it reorders by
(degree, id).

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ValidationError

MAX_VERTICES = 10**7  # a larger n is refused before anything is allocated per vertex
ROW_BLOCK = 1 << 13  # entries converted to Python objects at a time by `rows` and the writer
# `degeneracy` hands the rest of the graph to its bucket queue once r rounds
# have removed fewer than PEEL_MIN * (r - PEEL_SLACK) vertices.  On long grids
# w wide, which peel about 2w vertices a round, the rounds and the queue cost
# the same at 2w = 15-20; the slack lets a grid's first, growing rounds pass.
PEEL_MIN = 16
PEEL_SLACK = 16


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
    """Reject an out-of-range or non-integral vertex id, a self-loop or a
    non-finite weight."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValidationError(f"vertex id out of range: ({u}, {v})")
    if u != int(u) or v != int(v):
        raise ValidationError(f"vertex id is not an integer: ({u}, {v})")
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
    list.  No other view is kept: a walk by vertex reads `csr(G)`, cut from
    the columns on each call.
    """

    __slots__ = ("n", "unit", "_arrays")

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

    def edge_arrays(self):
        """The (u, v, w) numpy columns, the stored form, for bulk passes."""
        return self._arrays

    @property
    def m(self) -> int:
        return len(self._arrays[0])

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, unit={self.unit})"


def load_graph(n: int, entries: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Build a graph from raw (possibly asymmetric/duplicated) entries.

    All entries for the same unordered pair are merged by averaging, the
    symmetrization rule a' = (a_uv + a_vu) / 2 applied uniformly.  Pairs whose
    average is zero are dropped.  Self-loops are rejected, and so is a pair
    whose finite entries overflow to a non-finite average.
    """
    return merge_columns(n, *(tuple(zip(*entries)) or ((), (), ())))


def _int64_ids(ids) -> np.ndarray:
    """An id column as int64: a signed integer column by one cast, any other
    (uint64, float, object) through Python ints, so that no cast wraps an id;
    ValueError or OverflowError unless every id is an integer int64 holds."""
    a = np.asarray(ids)
    if a.dtype.kind == "i":
        return a.astype(np.int64, copy=False)
    values = a.tolist()
    exact = list(map(int, values))  # int() refuses NaN and inf
    if exact != values:
        raise ValueError("vertex id is not an integer")
    return np.array(exact, dtype=np.int64)  # OverflowError past int64


def merge_columns(n: int, u, v, w) -> WeightedGraph:
    """`load_graph` on entries given as columns: u, v 0-based ids, w weights.

    The first entry (in column order) with an out-of-range id (NaN, inf and
    ids past int64 included), an id that is not an integer (1.5), a
    self-loop or a non-finite weight raises `_check_entry`'s error, which
    names the ids as given; an integral float id (2.0) is that integer.
    Each pair's entries are summed in entry order from 0.0, as a running
    float sum would: a stable sort keeps that order within a pair, and
    `np.add.at` adds unbuffered, one entry after another.  The first
    non-finite average in pair order raises.
    """
    try:
        u, v = _int64_ids(u), _int64_ids(v)
    except (OverflowError, ValueError):  # an id past 2^63 - 1, NaN, inf or not integral
        for entry in zip(u, v, w):
            _check_entry(n, *entry)
        # every id is an integer in 0..n-1, and one is past 2^63 - 1: n is far over the cap
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
    if not keep.all():  # the columns are fresh sorted copies: kept as they are otherwise
        lo, hi, w = lo[keep], hi[keep], w[keep]
    return WeightedGraph._from_columns(n, lo, hi, w)


@dataclass(frozen=True, eq=False)
class Assignment:
    """A vector x in {-1,+1}^n, as a checked read-only int8 copy, and its value."""

    values: np.ndarray
    value: float

    def __post_init__(self):
        x = np.asarray(self.values)
        if x.ndim != 1 or not ((x == 1) | (x == -1)).all():
            raise ValidationError("assignment entries must be -1 or +1, in one vector")
        x = x.astype(np.int8)
        x.flags.writeable = False
        object.__setattr__(self, "values", x)


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


def cell_dtype(G: WeightedGraph) -> np.dtype:
    """The narrowest exact cell type for tables of G's values: the exact
    solvers' one rule.

    A value, each partial sum of it and each maximum of values is a sum of
    +-w over distinct edges, so it lies within +-sum |w|.  When every weight
    is integral, the first of int8, int16 and int32 that holds sum |w| holds
    them all exactly; otherwise, and from sum |w| >= 2^31 on, float64.  On
    integral weights float64 partial sums below 2^53 are exact too, so
    either type holds the same numbers and every comparison agrees.
    """
    w = G.edge_arrays()[2]
    if (w == np.trunc(w)).all():
        total = float(np.abs(w).sum())  # exact below 2^53, the only range that matters here
        for t in (np.int8, np.int16, np.int32):
            if total <= np.iinfo(t).max:
                return np.dtype(t)
    return np.dtype(np.float64)


def glue_blocks(G: WeightedGraph, block_of: Sequence[int], inner: Sequence[int]) -> Assignment:
    """The lossless composition step: place blocks in order, flipping as needed.

    `block_of[v]` is v's block id (ids dense from 0; a negative id raises
    ValidationError) and `inner[v]` is v's sign inside its block.  Blocks are
    placed in increasing id, and block b is flipped iff the sum of
    a_uv * x_u * x_v over its edges to earlier blocks is negative (a tie keeps
    it).  Every block then adds a nonnegative amount to the blocks before it,
    so the result is worth at least the sum of the blocks' inner values.

    Returns the signs as an `Assignment` valued by `evaluate`.  O(n + m):
    numpy buckets the cross edges by their later block, with both inner signs
    folded into each coefficient, and one loop over those edges fixes the
    flips.  The per-edge quantities are computed in edge order, and only two
    are then permuted into bucket order.
    """
    if len(block_of) != G.n or len(inner) != G.n:
        raise ValidationError("block and sign vectors must have length n")
    block = np.asarray(block_of, dtype=np.int64)
    if (block < 0).any():
        raise ValidationError(f"block id {block.min()} is negative")
    sign = np.asarray(inner, dtype=np.int64)
    eu, ev, ew = G.edge_arrays()
    bu, bv = block[eu], block[ev]
    cross = np.flatnonzero(bu != bv)
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
    signs = sign * np.asarray(flip, dtype=np.int64)[block]
    return Assignment(signs, evaluate(G, signs))


def extend_from_induced(G: WeightedGraph, x: Sequence[int]) -> Assignment:
    """Complete a solution on an induced subgraph to all of G.

    `x` is a partial assignment: n signs on G's ids, 0 for a vertex outside
    the subgraph.  The 0 entries are glued on one at a time in id order, then
    the rest as one last block, so the result has value >= the value of x on
    the induced subgraph.
    """
    x = np.asarray(x)
    if x.shape != (G.n,):
        raise ValidationError(f"partial assignment of shape {x.shape}, not ({G.n},)")
    if not np.isin(x, (-1, 0, 1)).all():
        raise ValidationError("partial assignment entries must be -1, 0 or +1")
    rest = x == 0
    block_of = np.cumsum(rest) - 1
    block_of[~rest] = np.count_nonzero(rest)
    return glue_blocks(G, block_of, np.where(rest, 1, x))


@dataclass(frozen=True)
class InstanceStats:
    abs_weight: float
    max_degree: int
    degeneracy: int
    density: Fraction = field(default_factory=lambda: Fraction(0))


def degrees(G: WeightedGraph) -> np.ndarray:
    """Each vertex's degree, counted from the edge columns, as int64."""
    eu, ev, _ = G.edge_arrays()
    return np.bincount(eu, minlength=G.n) + np.bincount(ev, minlength=G.n)


def csr(G: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour ranges: int64 offsets `start` of length n + 1 and int64
    `nbr`, v's neighbours nbr[start[v]:start[v + 1]] in increasing id order.

    One sort of the keys src * n + dst of the 2m endpoints, then % n: the
    keys are distinct and below n^2 <= 10^14 (MAX_VERTICES squared), so
    numpy's fast unstable sort of them is the sort by (src, dst).
    """
    n = G.n
    eu, ev, _ = G.edge_arrays()
    nbr = np.concatenate((eu * n + ev, ev * n + eu))
    nbr.sort()
    nbr %= n  # with n = 0 there is no key
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees(G), out=start[1:])
    return start, nbr


def bfs_sweep(nbl: list[int], start: list[int], s: int, seen: bytearray) -> Iterator[list[int]]:
    """The BFS layers from s over the vertices not marked in `seen`, each
    vertex marked as it is reached, where v's neighbours are
    nbl[start[v]:start[v + 1]] (`csr`'s arrays as lists).  A layer lists its
    vertices in the order a FIFO queue reaches them: the layer before in
    order, each vertex's neighbours in their range's order."""
    seen[s] = 1
    layer = [s]
    while layer:
        yield layer
        nxt = []
        for v in layer:
            for u in nbl[start[v] : start[v + 1]]:
                if not seen[u]:
                    seen[u] = 1
                    nxt.append(u)
        layer = nxt


def _ranges(start: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges start[i] .. start[i] + lens[i] - 1, concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(start - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


def _bucket_peel(nbl: list[int], start: list[int], deg: list[int]) -> int:
    """The degeneracy of the nonempty graph whose vertex v has the neighbours
    nbl[start[v]:start[v + 1]], by repeated minimum-degree removal from a
    bucket queue with lazy deletion (Batagelj & Zaversnik, *An O(m)
    algorithm for cores decomposition of networks*, 2003)."""
    n = len(deg)
    buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    d = cur = 0
    while n:
        bucket = buckets[cur]
        if not bucket:
            cur += 1
            continue
        v = bucket.pop()
        # lazy deletion: skip entries that were re-bucketed at a lower degree
        if removed[v] or deg[v] != cur:
            continue
        removed[v] = True
        n -= 1
        if cur > d:
            d = cur
        for u in nbl[start[v] : start[v + 1]]:
            if not removed[u]:
                k = deg[u] = deg[u] - 1
                buckets[k].append(u)
                if k < cur:
                    cur = k
    return d


def degeneracy(G: WeightedGraph) -> int:
    """The degeneracy: the largest k for which G has a nonempty k-core.

    Level-synchronous core peeling in numpy passes (Dasari, Desh & Zubair,
    *ParK*, IEEE BigData 2014).  At level k every alive vertex of degree
    <= k is removed at once, and one pass over their neighbour ranges lowers
    the degrees of the rest; the vertices that fall to k or below form the
    next round.  When none is left, k rises to the least alive degree.  The
    k-core does not depend on the removal order, so the last level is the
    degeneracy.  Paths, trees and grids peel a few vertices per round; once
    r rounds have removed fewer than PEEL_MIN * (r - PEEL_SLACK) vertices,
    the remaining graph goes to the bucket queue, and the degeneracy is the
    larger of k and its answer.
    O(n + m) plus `csr`'s sort of the 2m endpoints.
    """
    n = G.n
    start, nbr = csr(G)
    full = np.diff(start)
    deg = full.copy()  # each vertex's alive neighbours
    alive = np.ones(n, dtype=bool)
    stamp = np.empty(n, dtype=np.int64)
    rest = np.arange(n)
    k = rounds = peeled = 0
    peel = rest[:0]
    while True:
        if not len(peel):
            rest = rest[alive[rest]]
            if not len(rest):
                return k
            k = int(deg[rest].min())
            peel = rest[deg[rest] <= k]
        rounds += 1
        peeled += len(peel)
        if (rounds - PEEL_SLACK) * PEEL_MIN > peeled:
            break
        alive[peel] = False
        nb = nbr[_ranges(start[peel], full[peel])]
        nb = nb[alive[nb]]
        np.subtract.at(deg, nb, 1)
        low = nb[deg[nb] <= k]
        # each vertex once: the one entry at the position its stamp holds
        stamp[low] = np.arange(len(low))
        peel = low[stamp[low] == np.arange(len(low))]
    rest = np.flatnonzero(alive)
    nb = nbr[_ranges(start[rest], full[rest])]
    nb = (np.cumsum(alive) - 1)[nb[alive[nb]]]  # renumbered in id order
    deg = deg[rest]
    cut = np.concatenate(([0], np.cumsum(deg)))
    return max(k, _bucket_peel(nb.tolist(), cut.tolist(), deg.tolist()))


def stats(G: WeightedGraph) -> InstanceStats:
    """Exact max degree, degeneracy, density m/n, and total absolute weight.

    No solver calls it; it is kept for callers outside the package: the tests,
    and perfbench's span on `graph.stats`.
    """
    abs_weight = float(np.abs(G.edge_arrays()[2]).sum())
    max_degree = int(degrees(G).max(initial=0))
    d = degeneracy(G)
    density = Fraction(G.m, G.n) if G.n else Fraction(0)
    return InstanceStats(abs_weight, max_degree, d, density)


def induced_subgraph(G: WeightedGraph, vertices: Iterable[int]) -> tuple[WeightedGraph, np.ndarray]:
    """Induced subgraph with vertices relabeled 0..k-1 in increasing id order.

    `vertices` is any iterable of integer ids in G, repeats allowed.  Returns the
    subgraph and `old_of`, the int64 array mapping new ids back to ids in G,
    read from a mask over G's ids (`np.unique` took 20 times as long, numpy 2.4).
    The relabelling keeps id order, so G's (u, v)-sorted edge columns,
    gathered and masked, are the subgraph's.
    """
    ids = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices))
    if ids.dtype.kind not in "iu" and len(ids):  # bools, floats, ints past int64
        raise ValidationError(f"vertex ids must be int64 integers, got {ids.dtype} ids")
    if len(ids) and not (0 <= ids.min() and ids.max() < G.n):  # uint64 ids as given
        raise ValidationError(f"vertex id out of range: {ids.min()}..{ids.max()}")
    ids = ids.astype(np.int64, copy=False)
    new_of = np.full(G.n, -1, dtype=np.int64)
    new_of[ids] = 0
    old_of = np.flatnonzero(new_of == 0)
    new_of[old_of] = np.arange(len(old_of))
    eu, ev, ew = G.edge_arrays()
    su, sv = new_of[eu], new_of[ev]
    keep = (su >= 0) & (sv >= 0)
    return WeightedGraph._from_columns(len(old_of), su[keep], sv[keep], ew[keep]), old_of
