"""Exact solving on bounded-treewidth instances.

Pipeline: two decompositions, the clique tree of a min-fill elimination
ordering and the interval form of a Cuthill–McKee order, of which
`solve_exact` runs the one with fewer DP cells -> bucket elimination over
the bags, one sign-mask table per bag, with backtracking reconstruction and
a check of the backtracked value against the DP's optimum.  One form,
`TreeDecomposition` (flat arrays, children before parents), runs from both
builders to the DP with no renumbering.  `to_nice` is the one renumbering
step; a decomposition in the `b`/`t` text format goes through it in
`read_decomposition` and is then solved as it is, empty bags included.  A
decomposition wider than MAX_DP_WIDTH is refused before any table exists.

`solve_treewidths` solves a list of (graph, decomposition) pairs in one run;
`solve_treewidth` is its one-pair case.  Each pair is checked and put in
array form first (each child message's axes in its parent, each bucket
edge's +-1 pattern code),
with numpy passes rather than a Python loop per bag.  The bags of all pairs
then run side by side: bags at the same step with the same size and
number of vertices maxed out share one table with a row per bag, so a run of
many narrow bags pays numpy's call overhead once per group rather than once
per bag.  A bag of at most LONG_TERM_AXES axes runs at the step after its
latest child, so narrow bags batch by height; a wider bag runs at the step
of its own number, as in the per-bag loop, so that its message lives no
longer than there.

An edge's term +-w varies on one or two axes of its bag's table and is
added by broadcasting, so numpy's inner loop covers only the axes after the
term's last varying one: a term that varies on a table's last axis is added
in 2-cell strips.  A term that varies on some but not all of a table's
last LONG_TERM_AXES = 6 axes is first written out over them (over all of a
narrower table; at most 2^7 cells a row, as a term varies on two axes at
most), so that its add runs an inner loop of 64 cells or more, or over the
whole row.  The values added and their order are the same, so the tables
are bit-identical.  The exact-grid DP took the same time with 5 to 7 axes
written out.

The objective is the same at x and -x, and so is every table of the
elimination, so each bag's table covers only the cells where one vertex of
the bag, its pin, is +1: 2^(|bag|-1) cells.  A child's message pinned at
another vertex is added to the parent's two halves along that vertex's axis,
the -1 half reading it reversed on every axis.  Each bag's table is dropped
once its message to the parent is sent, and each vertex maxed out keeps two
packed bits per remaining cell for the backtrack (better at +1, better at
-1), so memory is the live messages plus at most 2^|bag|/16 bytes per
forgotten vertex rather than every table of the decomposition (Dechter,
"Bucket elimination", Artif. Intell. 1999).

Every cell is a sum of +-w over distinct edges of its pair, or a maximum of
such sums, so the cells are of `cell_dtype`, the narrowest exact type:
int8, int16 or int32 on integral weights whose sum |w| it holds, float64
otherwise.  A half table of b + 1 vertices is 2^b cells of 1 to 8 bytes.
On the 14x30 strip (width 20, unit weights, int16 cells) the DP's
tracemalloc peak is 4.7 MiB, against 13.8 MiB in float64 cells.

The elimination ordering is min-fill with ties broken by vertex id
(Bodlaender & Koster, "Treewidth computations I. Upper bounds", Inf. Comput.
2010).  The next vertex comes from a heap of int keys fill * n + id with lazy
invalidation.  Adjacency sets hold alive neighbours only.  The first fill of
a vertex is C(deg, 2) less its triangles, counted with one set intersection
per edge and no list of neighbour pairs; later fills are updated by exact
deltas (see `build_decomposition`), and a simplicial step (fill 0) adds no
fill edge, so it skips the pair loop.  One elimination thus costs set
operations over its neighbourhood and the common neighbours of its fill
edges rather than a scan over every alive vertex.  Each bag is kept as the
neighbour set it was eliminated with, and all bags are sorted once, by one
numpy sort, at the end.

The interval form has one bag per position of a vertex order, so its width
is the order's vertex separation.  `solve_exact` takes a Cuthill–McKee
order (`cuthill_mckee_order`, two `bfs_sweep`s per component), which sweeps
a grid by its diagonals: width at most the short side, where min-fill
reaches 19-20 on 14x14 and 15x15 grids; on sparse random graphs it is far
wider than min-fill.  `_intervals` gives the bag sizes by O(n + m) numpy
passes, and `_interval_bags` builds the bags only when they fit the cap.

The DP is exact for *any* valid decomposition; the heuristic only affects
runtime.  Elimination stops at the first bag wider than the cap and raises a
CapacityError instead of silently running an exponential table.  The width
it reports is that bag's width: a lower bound on the heuristic's final width,
not the final width itself.  `solve_exact` answers when either decomposition
fits the cap, and when neither does raises min-fill's CapacityError.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InternalError, ParseError, ValidationError
from .graph import (
    ApproxResult,
    Assignment,
    WeightedGraph,
    bfs_sweep,
    cell_dtype,
    csr,
    evaluate,
    value_tol,
)
from .io import records

DEFAULT_WIDTH_CAP = 20
MAX_DP_WIDTH = 27  # a bag of 28 vertices makes a half table of 2^27 cells, 1 GiB in float64
LONG_TERM_AXES = 6  # an edge term is written out over this many last axes of its table


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Int64 arrays: bag i is flat[off[i]:off[i+1]], sorted with no vertex
    twice, and its parent is bag parent[i] > i; the root is the last bag,
    with parent -1.  The DP runs the bags in this children-first order.  The
    form with no bag is valid only for the graph with no vertex.  The
    constructor checks these invariants and makes the arrays read-only."""

    off: np.ndarray
    flat: np.ndarray
    parent: np.ndarray

    def __post_init__(self):
        for name in ("off", "flat", "parent"):
            a = np.asarray(getattr(self, name), dtype=np.int64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        off, flat, parent = self.off, self.flat, self.parent
        k = len(parent)
        size = np.diff(off)
        if off.shape != (k + 1,) or off[0] != 0 or off[-1] != len(flat) or (size < 0).any():
            raise ValidationError("bag offsets must rise from 0 to the entry count")
        bad = (parent <= np.arange(k)) | (parent >= k)
        bad[-1:] = parent[-1:] != -1
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"bag {i} of {k} has parent {parent[i]}: want a later bag, -1 last")
        bag_of = np.repeat(np.arange(k), size)
        bad = np.flatnonzero((flat[1:] <= flat[:-1]) & (bag_of[1:] == bag_of[:-1]))
        if bad.size:
            j = bad[0]
            if flat[j] == flat[j + 1]:
                raise ValidationError(f"a bag lists vertex {flat[j]} twice")
            raise ValidationError(f"bag {bag_of[j]} is not sorted")

    @property
    def bags(self) -> tuple[tuple[int, ...], ...]:
        flat, cut = self.flat.tolist(), self.off.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(cut, cut[1:]))

    @property
    def width(self) -> int:
        return int(np.diff(self.off).max()) - 1 if len(self.parent) else 0


def to_nice(bags, parent, root: int) -> TreeDecomposition:
    """The one renumbering step: bags[i] with links parent[i] (None at
    `root`), in any numbering and vertex order, as a `TreeDecomposition`
    numbered by reversed preorder from `root`, each bag sorted.  Raises
    `ValidationError` unless the links form one tree over all bags and each
    bag lists its vertices once.  `parse_decomposition` reads a file through
    it; the name is kept from the nice-form DP that this form replaced.
    """
    k = len(bags)
    if k == 0:
        return TreeDecomposition([0], [], [])
    if len(parent) != k or not 0 <= root < k:
        raise ValidationError(f"want a parent link per bag and a root among {k} bags")
    children: list[list[int]] = [[] for _ in range(k)]
    for i, p in enumerate(parent):
        if (p is None) != (i == root) or p is not None and not 0 <= p < k:
            raise ValidationError(f"bag {i} has parent {p}: want a bag, None only at the root")
        if p is not None:
            children[p].append(i)
    order: list[int] = []
    stack = [root]
    while stack:  # preorder; reversed, every child precedes its parent
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    if len(order) != k:
        raise ValidationError("decomposition tree links contain a cycle")
    order.reverse()
    new = {old: i for i, old in enumerate(order)}
    out = [sorted(bags[o]) for o in order]
    return TreeDecomposition(
        np.cumsum([0, *map(len, out)]),
        [v for bag in out for v in bag],
        [-1 if parent[o] is None else new[parent[o]] for o in order],
    )


def parse_decomposition(text: str, n: int) -> TreeDecomposition:
    """A decomposition in the `b`/`t` text format for a graph of n vertices,
    its 1-based vertex ids checked against 1..n, renumbered by `to_nice`."""
    bags: dict[int, list[int]] = {}
    links: list[tuple[int, int, int]] = []
    for lineno, fields in records(text.splitlines()):
        try:
            if fields[0] == "b":
                bid = int(fields[1])
                if bid in bags:
                    raise ParseError(f"duplicate bag id {bid}", line=lineno)
                bag = sorted(int(t) for t in fields[2:])
                if bag and not 1 <= bag[0] <= bag[-1] <= n:
                    v = bag[0] if bag[0] < 1 else bag[-1]
                    raise ParseError(f"bag {bid} mentions vertex {v}, outside 1..{n}", line=lineno)
                twice = next((v for v, u in zip(bag, bag[1:]) if v == u), None)
                if twice is not None:
                    raise ParseError(f"bag {bid} lists vertex {twice} twice", line=lineno)
                bags[bid] = [v - 1 for v in bag]
            elif fields[0] == "t":
                if len(fields) != 3:
                    raise ParseError("a t record is 't <parent> <child>'", line=lineno)
                links.append((int(fields[1]), int(fields[2]), lineno))
            else:
                raise ParseError(f"unknown record type {fields[0]!r}", line=lineno)
        except (ValueError, IndexError):
            raise ParseError("malformed decomposition line", line=lineno) from None
    if not bags:
        raise ParseError("decomposition has no bags")
    index = {bid: i for i, bid in enumerate(sorted(bags))}
    parent: list[int | None] = [None] * len(bags)
    for p, c, lineno in links:
        if p not in index or c not in index:
            raise ParseError(f"tree link references unknown bag ({p}, {c})", line=lineno)
        if parent[index[c]] is not None:
            raise ParseError(f"bag {c} has more than one parent link", line=lineno)
        parent[index[c]] = index[p]
    roots = [i for i, p in enumerate(parent) if p is None]
    if len(roots) != 1:
        raise ParseError(f"decomposition must have exactly one root, found {len(roots)}")
    return to_nice([bags[bid] for bid in sorted(bags)], parent, roots[0])


def read_decomposition(path: str, n: int) -> TreeDecomposition:
    with open(path, encoding="utf-8") as fh:
        return parse_decomposition(fh.read(), n)


def validate_decomposition(G: WeightedGraph, td: TreeDecomposition) -> None:
    """Raise `ValidationError` unless `td` is a decomposition of G: the
    checks `solve_treewidths` runs on every pair, without its width limit."""
    _check(G, td)


def build_decomposition(
    G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP
) -> TreeDecomposition:
    """Clique-tree decomposition from a min-fill elimination ordering.

    The next vertex is the alive one with the smallest (fill, id), popped
    from a heap of int keys fill * n + id, which sort as the pairs do.  A key
    counts while it matches its vertex's fill, and an eliminated vertex has
    fill -1.  Raises CapacityError as soon as one bag has more than
    `width_cap + 1` vertices; `achieved` is that bag's width, a lower bound
    on the width the full ordering would reach.

    `adj[v]` holds v's alive neighbours only (sets of its `csr(G)` range at
    the start), and fill[u] is the number of non-adjacent pairs in adj[u]:
    first C(deg u, 2) less the triangles at u, counted with one set
    intersection per edge, then kept exact by deltas.  Eliminating v with
    N = adj[v], d = |N|:
      - each u in N drops v from adj[u], and with it the missing pairs (v, c)
        for c in adj[u] outside N: fill[u] -= |adj[u]| - (d - 1), as if N
        were a clique, which it is when fill[v] = 0 (a simplicial step);
      - otherwise each fill edge ab (a, b in N, not adjacent), with
        C = adj[a] & adj[b] taken before it is added, gives fill[x] -= 1 for
        x in C, and fill[a] += |adj[a]| - |C| - 1 for the new missing pairs
        (b, c) less the clique pair ab counted above, likewise for b.
    Every vertex so touched gets a new key.  adj[v] is not changed once v is
    eliminated, so it is kept as v's bag, and all bags are sorted together by
    one numpy sort at the end.
    """
    n = G.n
    start, nbr = csr(G)
    nbl, cut = nbr.tolist(), start.tolist()
    adj: list[set[int]] = [set(nbl[a:b]) for a, b in zip(cut, cut[1:])]
    del nbr, nbl, cut  # the sets hold the neighbours now
    eu, ev, _ = G.edge_arrays()
    get = adj.__getitem__
    # triangles through each edge, a triangle at u lying on two of u's edges;
    # no name keeps the iterators, so the id lists are freed after the count
    tri = np.fromiter(
        map(len, map(set.intersection, map(get, eu.tolist()), map(get, ev.tolist()))),
        dtype=np.int64,
        count=len(eu),
    )
    deg = np.diff(start)
    twice = np.bincount(eu, tri, n) + np.bincount(ev, tri, n)  # float64, exact below 2^53
    fill = (deg * (deg - 1) // 2 - twice.astype(np.int64) // 2).tolist()
    heap = [f * n + v for v, f in enumerate(fill)]
    heapq.heapify(heap)

    order: list[int] = []  # the eliminated vertices, one bag each
    for _ in range(n):
        while True:
            f, v = divmod(heapq.heappop(heap), n)
            if fill[v] == f:
                break
        N = adj[v]
        d = len(N)
        if d > width_cap:
            raise CapacityError(f"elimination bag of width {d} exceeds cap {width_cap}", achieved=d)
        order.append(v)
        fill[v] = -1
        for u in N:
            adj_u = adj[u]
            adj_u.discard(v)
            fill[u] -= len(adj_u) - d + 1
        touched = N
        if f:
            touched = set(N)
            later = set(N)
            for a in N:
                later.discard(a)
                adj_a = adj[a]
                for b in later - adj_a:
                    adj_b = adj[b]
                    common = adj_a & adj_b
                    for x in common:
                        fill[x] -= 1
                    touched |= common
                    fill[a] += len(adj_a) - len(common) - 1
                    fill[b] += len(adj_b) - len(common) - 1
                    adj_a.add(b)
                    adj_b.add(a)
        for u in touched:
            heapq.heappush(heap, fill[u] * n + u)

    # bag i is v = order[i] with adj[v], its neighbours when eliminated; one
    # sort of the keys bag * n + vertex sorts every bag.  Parent of v's bag:
    # the bag of the earliest-eliminated other member, a later bag; bags of
    # v alone chain onto the next such bag, so the result is a single tree
    # rooted at the last bag
    bag = np.arange(n)
    width = np.fromiter(map(len, map(adj.__getitem__, order)), dtype=np.int64, count=n)
    nbrs = itertools.chain.from_iterable(map(adj.__getitem__, order))
    members = np.fromiter(itertools.chain(order, nbrs), dtype=np.int64, count=n + int(width.sum()))
    key = np.concatenate((bag, np.repeat(bag, width))) * n + members
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(width + 1, out=off[1:])
    bag_of = np.repeat(bag, width + 1)
    entries = np.sort(key) - bag_of * n
    pos = np.empty(n, dtype=np.int64)  # the bag of each vertex
    pos[members[:n]] = bag
    at = pos[entries]
    parent = np.minimum.reduceat(np.where(at > bag_of, at, n), off[:-1])
    lone = np.flatnonzero(parent == n)
    parent[lone[:-1]] = lone[1:]
    parent[-1:] = -1
    return TreeDecomposition(off, entries, parent)


def cuthill_mckee_order(G: WeightedGraph) -> list[int]:
    """A Cuthill–McKee order: two `bfs_sweep`s per component over the
    `csr(G)` ranges, each reordered by (degree, id) with one stable sort.

    The components are taken in order of their smallest id.  A first sweep
    from that smallest id finds the last layer; the sweep from its vertex
    with the smallest (degree, id), a pseudo-peripheral start, is the
    component's part of the order, layer after layer (Cuthill & McKee,
    "Reducing the bandwidth of sparse symmetric matrices", ACM 1969).
    """
    n = G.n
    start, nbr = csr(G)
    deg = np.diff(start)
    # one stable sort by (owner, degree): ties stay in id order
    nbr = nbr[np.lexsort((deg[nbr], np.repeat(np.arange(n), deg)))]
    nbl, start, deg = nbr.tolist(), start.tolist(), deg.tolist()
    swept = bytearray(n)  # reached by a first sweep
    placed = bytearray(n)
    order: list[int] = []
    for s in range(n):
        if not placed[s]:
            *_, last = bfs_sweep(nbl, start, s, swept)
            first = min(last, key=lambda v: (deg[v], v))
            for layer in bfs_sweep(nbl, start, first, placed):
                order += layer
    return order


def _intervals(G: WeightedGraph, order) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """first(v), pos(v) and each bag's size for `_interval_bags`, in O(n + m)
    without building any bag."""
    n = G.n
    order = np.asarray(order, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    ok = order.shape == (n,) and bool(((order >= 0) & (order < n)).all())
    if ok:
        pos[order] = np.arange(n)
    if not ok or (pos < 0).any():
        raise ValidationError(f"an order must list each of the {n} vertices once")
    eu, ev, _ = G.edge_arrays()
    first = pos.copy()
    np.minimum.at(first, eu, pos[ev])
    np.minimum.at(first, ev, pos[eu])
    # v lies in bags first(v)..pos(v): +1 at first(v), -1 past pos(v)
    size = np.cumsum(np.bincount(first, minlength=n) - np.bincount(pos + 1, minlength=n + 1)[:n])
    return first, pos, size


def _interval_bags(first: np.ndarray, pos: np.ndarray, size: np.ndarray) -> TreeDecomposition:
    """The path decomposition of a vertex order from `_intervals`' arrays.

    With pos(v) the position of v in the order and first(v) the smallest
    position among v and its neighbours, bag i is {v : first(v) <= i <=
    pos(v)}, in id order, and its parent is bag i + 1.  Each vertex's bags
    are an interval, and edge uv with pos(u) < pos(v) lies in bag pos(u), so
    this is a decomposition whose width is the order's vertex separation
    read from its end (Kinnersley, "The vertex separation number of a graph
    equals its path-width", IPL 1992).
    """
    n = len(pos)
    span = pos - first + 1
    vertex = np.repeat(np.arange(n), span)
    bag = np.arange(len(vertex)) - np.repeat(np.cumsum(span) - span, span) + first[vertex]
    flat = vertex[np.argsort(bag, kind="stable")]  # stable: each bag in id order
    parent = np.arange(1, n + 1)
    parent[-1:] = -1
    return TreeDecomposition(np.concatenate(([0], np.cumsum(size))), flat, parent)


def _cells(sizes) -> int:
    """The DP's table cells over bags of these sizes: sum of 2^(|bag| - 1)."""
    counts = np.bincount(np.maximum(np.asarray(sizes, dtype=np.int64) - 1, 0)).tolist()
    return sum(c << d for d, c in enumerate(counts))


def check_dp_width(td: TreeDecomposition, width_cap: int = MAX_DP_WIDTH) -> None:
    """Refuse a decomposition wider than min(width_cap, MAX_DP_WIDTH)."""
    if td.width > min(width_cap, MAX_DP_WIDTH):
        limit = f"cap {width_cap}" if width_cap < MAX_DP_WIDTH else f"the DP limit {MAX_DP_WIDTH}"
        raise CapacityError(f"decomposition width {td.width} exceeds {limit}", achieved=td.width)


@dataclass(frozen=True)
class _Problem:
    """One (graph, decomposition) pair in the DP's array form.

    Bags are numbered as in the `TreeDecomposition`; bag i runs at step
    step[i] (see `_steps`).  Its vertices are ax[off[i]:off[i+1]] in rank
    order, its pin last; its table has d[i] = max(|bag| - 1, 0) axes and it
    maxes out gone[i] of them.  Axis a of a d-axis table is bit d - 1 - a of
    a flat cell index.  Each non-root bag c (in `child`) sends its message to
    inbox slot `slot` of its parent `to`, on the parent's cell bits `mask`,
    read reversed on the half where parent bit `flip` is set (-1: no such
    half).  Each edge goes to slot `eslot` of bag `bucket` and adds
    w * (-1)^popcount(cell & code).
    """

    G: WeightedGraph
    d: np.ndarray
    gone: np.ndarray
    step: np.ndarray
    ax: np.ndarray
    off: np.ndarray
    child: np.ndarray
    to: np.ndarray
    slot: np.ndarray
    mask: np.ndarray
    flip: np.ndarray
    bucket: np.ndarray
    eslot: np.ndarray
    code: np.ndarray
    w: np.ndarray


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """Position of each element among the elements with its key, in index order."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    out = np.empty(len(keys), dtype=np.int64)
    out[order] = np.arange(len(keys)) - np.searchsorted(ranked, ranked)
    return out


def _check(G: WeightedGraph, td: TreeDecomposition):
    """Raise `ValidationError` unless `td` is a valid decomposition of G.

    Returns (bag_of, up, forget_at, bucket, iu, iv): entry j of td.flat is
    in bag bag_of[j], and up[j] is the same vertex's entry in the parent bag,
    -1 where the parent lacks it.  Vertex v is forgotten at bag forget_at[v];
    edge e's bucket is bag bucket[e], holding its ends at entries iu[e] and
    iv[e].
    """
    n, k, flat, parent = G.n, len(td.parent), td.flat, td.parent
    outside = (flat < 0) | (flat >= n)
    if outside.any():
        v = flat[np.argmax(outside)]
        raise ValidationError(f"a bag mentions vertex {v}, outside 0..{n - 1}")
    bag_of = np.repeat(np.arange(k), np.diff(td.off))
    key = bag_of * n + flat  # strictly increasing: (bag, vertex) pairs in order

    def entry(bags: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Index in `flat` of each vertex in the given bag, -1 where it is absent."""
        q = bags * n + vs  # negative for bag -1, so never found
        i = np.minimum(np.searchsorted(key, q), len(key) - 1)
        return np.where(key[i] == q, i, -1)

    up = entry(parent[bag_of], flat)  # the same vertex in the parent bag
    top = up < 0
    fv = flat[top]
    seen = np.bincount(fv, minlength=n)
    if (seen > 1).any():  # a second top bag: the vertex's trace is split
        first = np.argsort(fv, kind="stable")
        again = first[1:][fv[first[1:]] == fv[first[:-1]]]
        raise ValidationError(f"bags containing vertex {fv[again.min()]} are not connected")
    if (seen == 0).any():
        raise ValidationError(f"vertex {np.argmax(seen == 0)} appears in no bag")
    forget_at = np.empty(n, dtype=np.int64)
    forget_at[fv] = bag_of[top]

    eu, ev, _ = G.edge_arrays()
    fu = forget_at[eu]
    bucket = np.where(entry(fu, ev) >= 0, fu, forget_at[ev])
    iu, iv = entry(bucket, eu), entry(bucket, ev)
    if (iu < 0).any():  # with connected traces, the lower forget bag covers uv
        e = int(np.argmax(iu < 0))
        raise ValidationError(f"edge ({eu[e]}, {ev[e]}) covered by no bag")
    return bag_of, up, forget_at, bucket, iu, iv


def _prepare(G: WeightedGraph, td: TreeDecomposition, width_cap: int) -> _Problem | None:
    """Check one pair, then its width, and put it in array form; None when G
    has no vertex."""
    bag_of, up, forget_at, bucket, iu, iv = _check(G, td)
    check_dp_width(td, width_cap)
    n, k, off, flat, parent = G.n, len(td.parent), td.off, td.flat, td.parent
    size = np.diff(off)
    if n == 0:
        return None
    top = up < 0

    rank = np.empty(n, dtype=np.int64)  # by (forget bag, -id)
    rank[np.argsort(forget_at * n + (n - 1 - np.arange(n)), kind="stable")] = np.arange(n)
    perm = np.argsort(bag_of * n + rank[flat], kind="stable")  # each bag in rank order
    pos = np.empty(len(flat), dtype=np.int64)  # each entry's axis; the pin's is d
    pos[perm] = np.arange(len(flat)) - off[bag_of]
    d = np.maximum(size - 1, 0)
    gone = np.minimum(np.bincount(bag_of[top], minlength=k), d)
    bit = d[bag_of] - 1 - pos  # each entry's cell bit in its own bag; -1 at the pin

    child = np.flatnonzero(parent >= 0)
    kept = ~top
    pbit = bit[up[kept]]  # the kept entry's bit in the parent bag
    is_pin = bit[kept] < 0
    mask = np.bincount(
        bag_of[kept][~is_pin], weights=np.ldexp(1.0, pbit[~is_pin]), minlength=k
    ).astype(np.int64)
    flip = np.full(k, -1, dtype=np.int64)
    flip[bag_of[kept][is_pin]] = pbit[is_pin]
    flip[gone == d] = -1  # a 0-d message is the same at every pin

    bu, bv = bit[iu], bit[iv]
    code = np.where(bu >= 0, np.left_shift(1, np.maximum(bu, 0)), 0)
    code |= np.where(bv >= 0, np.left_shift(1, np.maximum(bv, 0)), 0)
    return _Problem(
        G,
        d,
        gone,
        _steps(parent, d <= LONG_TERM_AXES),
        flat[perm],
        off,
        child,
        parent[child],
        _rank_within(parent[child]),
        mask[child],
        flip[child],
        bucket,
        _rank_within(bucket),
        code,
        G.edge_arrays()[2],
    )


def _steps(parent: np.ndarray, narrow: np.ndarray) -> np.ndarray:
    """The step at which each bag runs: a `narrow` bag at the first step
    after all its children (0 for a leaf), any other bag i at step i.

    Narrow bags batch by height.  A wide bag keeps its place in the per-bag
    loop, the only wide bag of its pair at its step, so its message lives no
    longer than there (exactly as long when its parent is wide too): running
    wide bags by height would keep several wide branches alive at once.  By
    induction every bag's step is at most its number, so a wide bag still
    runs after its children.  A link is a narrow bag whose one child is the
    bag just before it: its step is one more than that child's, so it keeps
    the child's shift (step - number).  The Python loop visits only the free
    bags, the narrow bags that are no link, and their children; each link
    takes the shift of its anchor, the nearest bag before it that is no
    link.  On a 2*10^5-bag path, one chain of links, the pass takes about
    4 ms.
    """
    k = len(parent)
    at = np.arange(k)
    kids = np.bincount(parent[:-1], minlength=k)  # the root, last, has no parent
    link = np.zeros(k, dtype=bool)
    link[1:] = narrow[1:] & (kids[1:] == 1) & (parent[:-1] == at[1:])
    anchor = np.maximum.accumulate(np.where(link, 0, at))
    free = narrow & ~link
    up_free = np.append(free, False)[parent]
    visit = np.flatnonzero(free | up_free)
    latest = [-1] * k  # each free bag's latest child step so far
    shift = [0] * k  # each free bag's step - number; 0 at a wide bag
    cols = (visit, parent[visit], anchor[visit], free[visit], up_free[visit])
    for j, p, a, f, u in zip(*(c.tolist() for c in cols)):
        if f:
            shift[j] = latest[j] + 1 - j
        if u and j + shift[a] > latest[p]:
            latest[p] = j + shift[a]
    out = np.zeros(k, dtype=np.int64)
    out[free] = [shift[j] for j in np.flatnonzero(free).tolist()]
    return at + out[anchor]


def solve_treewidth(
    G: WeightedGraph, td: TreeDecomposition, width_cap: int = MAX_DP_WIDTH
) -> Assignment:
    """Optimal assignment by bucket elimination over the bags of `td`: the
    one-pair case of `solve_treewidths`, which documents the DP."""
    return solve_treewidths([(G, td)], width_cap)[0]


def solve_treewidths(
    pairs: Sequence[tuple[WeightedGraph, TreeDecomposition]],
    width_cap: int = MAX_DP_WIDTH,
) -> list[Assignment]:
    """Optimal assignments of several (graph, decomposition) pairs, one per
    pair, from one run of bucket elimination over all their bags.

    The DP runs each `td`'s bags in its own children-first numbering.  A
    vertex's bucket is its forget bag, the one bag holding it whose parent
    does not (the root's parent counts as empty); edge uv goes to u's forget
    bag if that bag holds v, else to v's.  Before any table is allocated,
    each pair is checked by `validate_decomposition` (a `ValidationError`
    names the vertex or edge, 0-based) and then by `check_dp_width` against
    `width_cap` (a `CapacityError`).

    The vertices are ranked by (forget bag, -id), and a bag's last vertex in
    that order is its pin.  The objective is the same at x and -x, so a bag's
    table is a (2,)*(|bag|-1) cube over the cells where the pin is +1, one
    axis per other vertex in rank order (index 1 => -1).  It is the sum of the
    children's messages, broadcast over the bag, in the order the children
    are numbered, and then of the edges in the bucket, in edge order.  A
    message pinned at another vertex c goes to the half where c is +1 as it
    is, and reversed on every axis to the half where c is -1 (T(-s) = T(s)).
    The vertices forgotten at a bag lead its axes and are maxed out in turn,
    highest id first, each keeping two packed bits per remaining cell, t0 > t1
    then t1 > t0; what is left is the message to the parent, pinned at the
    same pin, or 0-d if the bag forgets every vertex.  The backtrack reads
    t1 > t0 at the signs when the pin is +1, else t0 > t1 at the flipped
    signs, so a vertex takes -1 exactly when it is better there with the signs
    already chosen (ties keep +1); a pin forgotten with its whole bag, maxed
    out last, takes +1.

    The cells are of `cell_dtype`, the widest over the run's pairs
    (`np.result_type`).  On integral weights float64 cells held exact
    integers too, so integer cells hold the same numbers, and every
    comparison and assignment is the same.  The root's value goes through
    `float` for the check against `evaluate` of the backtracked signs.

    The bags of all pairs run side by side, at the steps of `_steps`.  A
    bag of at most LONG_TERM_AXES axes runs at the step after its latest
    child (step 0 for a leaf), so narrow bags batch by height.  A wider bag
    i runs at step i, as in the per-bag loop, so its message lives no longer
    than there; running wide bags by height would keep several wide
    branches alive at once.  The bags of one step with the same size and
    the same number of vertices maxed out share one
    (bags, 2^(|bag|-1)) table.  Each cell still receives the same additions
    in the same order as in a run of its pair alone, so every pair gets the
    same assignment either way, and an edge term written out over its
    table's last axes (see the module docstring) adds the same values in the
    same order as its broadcast.  (A table whose first sub-batch covers all
    its rows starts as that sub-batch's values instead of adding them to
    zeros: 0 + x is x, in float64 up to the sign of zero, which no
    comparison sees.)
    """
    problems = [_prepare(G, td, width_cap) for G, td in pairs]
    live = [p for p in problems if p is not None]
    group, row, bits, tops = _run(live) if live else (None, None, None, None)
    out, base = [], 0
    for p in problems:
        if p is None:
            out.append(Assignment((), 0.0))
            continue
        k = len(p.d)
        sol = _backtrack(p, group[base : base + k], row[base : base + k], bits)
        base += k
        opt = float(tops[group[base - 1]][row[base - 1], 0])  # the root's table, all maxed out
        if not abs(sol.value - opt) <= value_tol(p.G):
            raise InternalError(f"DP optimum {opt!r} but the backtracked signs give {sol.value!r}")
        out.append(sol)
    return out


def _starts(new: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment starts and ends of a sequence whose segment heads are `new`,
    and the segment index of each element."""
    start = np.flatnonzero(new)
    return start, np.append(start[1:], len(new))[: len(start)], np.cumsum(new) - 1


def _heads(*cols: np.ndarray) -> np.ndarray:
    """True where any column differs from the previous element."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def _run(live: list[_Problem]):
    """The DP over all bags of `live`: each bag's group and row in it, per
    group the packed bits of each vertex it maxes out, (bags, 2, bytes) each,
    and the final (bags, 1) table of each group that holds a root bag."""
    base = np.cumsum([0] + [len(p.d) for p in live[:-1]])
    step = np.concatenate([p.step for p in live])
    d = np.concatenate([p.d for p in live])
    gone = np.concatenate([p.gone for p in live])
    order = np.lexsort((gone, d, step))
    gstart, gend, gid = _starts(_heads(step[order], d[order], gone[order]))
    group = np.empty(len(order), dtype=np.int64)
    group[order] = gid
    row = np.empty(len(order), dtype=np.int64)
    row[order] = np.arange(len(order)) - gstart[gid]
    ng = len(gstart)
    gsize = gend - gstart
    roots = np.cumsum([len(p.d) for p in live]) - 1  # each pair's root bag is its last
    tops = dict.fromkeys(group[roots].tolist())
    ginfo = zip(gsize.tolist(), d[order[gstart]].tolist(), gone[order[gstart]].tolist())
    del step, d, gone, order, gid, gstart, gend

    def cat(field, shift=False):
        return np.concatenate([getattr(p, field) + (b if shift else 0) for p, b in zip(live, base)])

    # child messages in sub-batches (parent group, slot, mask, flip), each
    # made of runs from one source group
    child, to = cat("child", True), cat("to", True)
    lg, lr, sg, sr = group[to], row[to], group[child], row[child]
    slot, mask, flip = cat("slot"), cat("mask"), cat("flip")
    o = np.lexsort((sr, sg, flip, mask, slot, lg))
    lg, lr, sg, sr, slot, mask, flip = (a[o] for a in (lg, lr, sg, sr, slot, mask, flip))
    sb_new = _heads(lg, slot, mask, flip)
    sb, sb_end, sb_of = _starts(sb_new)
    run, run_end, _ = _starts(sb_new | _heads(sg))
    runtab = np.stack([sg[run], run, run_end], axis=1)
    ra, rb = np.searchsorted(run, sb), np.searchsorted(run, sb_end)
    whole = (rb - ra == 1) & (sb_end - sb == gsize[sg[sb]])  # one source, all its rows in order
    misplaced = np.bincount(sb_of, weights=lr != np.arange(len(o)) - sb[sb_of], minlength=len(sb))
    ident = (sb_end - sb == gsize[lg[sb]]) & (misplaced == 0)  # every row of the group, in order
    src = np.where(whole, sg[sb], -1)
    ops = np.stack(  # kind 0, mask, flip, links l0:l1, all rows, whole source, runs ra:rb
        [np.zeros_like(sb), mask[sb], flip[sb], sb, sb_end, ident, src, ra, rb], axis=1
    )
    ogroup = lg[sb]
    last = np.full(ng, -1, dtype=np.int64)  # the last group that reads each group's messages
    np.maximum.at(last, sg, lg)
    keep_msg = (last >= 0).tolist()
    freed = np.flatnonzero(last >= 0)
    freed = freed[np.argsort(last[freed], kind="stable")]
    free_at = np.searchsorted(last[freed], np.arange(ng + 1)).tolist()
    freed = freed.tolist()
    del child, to, lg, sg, slot, mask, flip, sb_new, sb, sb_end, sb_of, run, run_end
    del ra, rb, whole, misplaced, ident, src, last

    # bucket edges in sub-batches (group, slot, code)
    eb = cat("bucket", True)
    eg, er = group[eb], row[eb]
    eslot, code, ew = cat("eslot"), cat("code"), cat("w")
    o = np.lexsort((er, code, eslot, eg))
    eg, er, eslot, code, ew = (a[o] for a in (eg, er, eslot, code, ew))
    cells = np.result_type(*(cell_dtype(p.G) for p in live))  # every pair's values fit
    terms = (ew[:, None] * np.array([1.0, -1.0, -1.0, 1.0])).astype(cells)  # w * (-1)^popcount
    esb, esb_end, _ = _starts(_heads(eg, eslot, code))
    z = np.zeros_like(esb)
    edge_ops = np.stack(  # kind 1, code, no flip, edges e0:e1, all rows
        [z + 1, code[esb], z - 1, esb, esb_end, esb_end - esb == gsize[eg[esb]], z, z, z], axis=1
    )
    ogroup = np.concatenate([ogroup, eg[esb]])
    o = np.argsort(ogroup, kind="stable")  # per group: its messages, then its edges
    ops = np.concatenate([ops, edge_ops])[o]
    op_at = np.searchsorted(ogroup[o], np.arange(ng + 1)).tolist()
    del eb, eg, eslot, code, ew, esb, esb_end, z, edge_ops, ogroup, o

    layouts: dict = {}
    msgs: list = [None] * ng
    bits: list = [None] * ng
    for gi, (g, dd, gn) in enumerate(ginfo):
        T = _table(g, dd, ops[op_at[gi] : op_at[gi + 1]].tolist(), runtab, msgs, sr, lr, er,
                   terms, freed[free_at[gi] : free_at[gi + 1]], layouts)
        steps = []
        for _ in range(gn):  # t0 > t1 and t1 > t0, then the max over the leading axis
            T = T.reshape(g, 2, -1)
            steps.append(np.packbits(T > T[:, ::-1], axis=-1))
            T = np.maximum(T[:, 0], T[:, 1])
        bits[gi] = steps
        if keep_msg[gi]:
            msgs[gi] = T
        if gi in tops:
            tops[gi] = T
    return group, row, bits, tops


def _table(g, d, ops, runtab, msgs, sr, lr, er, terms, freed, layouts) -> np.ndarray:
    """The (g, 2^d) table of a group, in the cell type of `terms`: its child
    messages, one inbox slot after the other, then its bucket edges, one
    bucket slot after the other, each sub-batch added to its rows.  An edge
    sub-batch whose terms vary on some but not all of the table's last
    LONG_TERM_AXES axes is first written out over those axes (the `wide`
    shape of `_layout`), so that its add runs an inner loop of
    2^LONG_TERM_AXES cells (or the whole row) rather than 2-cell strips.
    The messages read here for the last time (`freed`) are dropped before
    the edges are added.  When the first sub-batch covers every row, it
    writes the table instead of adding to zeros."""
    fresh = bool(ops) and bool(ops[0][5])
    T = (np.empty if fresh else np.zeros)((g, 1 << d), terms.dtype)
    Tv = T.reshape((g,) + (2,) * d)
    for kind, mask, flip, l0, l1, ident, src, ra, rb in ops:
        lay = layouts.get((kind, d, mask, flip))
        if lay is None:
            lay = layouts[kind, d, mask, flip] = _layout(d, mask, flip, kind)
        shape, lo, hi, rev, wide = lay
        if kind:  # edges: each row's w * (-1)^popcount(cell & code), code in `mask`
            if freed is not None:
                for s in freed:
                    msgs[s] = None
                freed = None
            X = terms[l0:l1, : 1 << shape.count(2)]
        elif src >= 0:
            X = msgs[src]
        else:
            parts = [msgs[s][sr[a:b]] for s, a, b in runtab[ra:rb].tolist()]
            X = parts[0] if len(parts) == 1 else np.concatenate(parts)
        X = X.reshape((l1 - l0,) + shape)
        if wide:  # the term written out over the table's last axes
            W = np.empty((l1 - l0,) + wide, terms.dtype)
            W[...] = X
            X = W
        if fresh:
            fresh = False
            if lo is None:
                Tv[...] = X
            else:
                Tv[lo] = X
                Tv[hi] = X[rev]
            continue
        rows = None if ident else (er if kind else lr)[l0:l1]
        target = Tv if ident else Tv[rows]
        if lo is None:
            target += X
        else:  # the half where the child's pin is -1 reads the message reversed
            half = target[lo]
            half += X
            half = target[hi]
            half += X[rev]
        if not ident:
            Tv[rows] = target
    for s in freed or ():
        msgs[s] = None
    return T


def _layout(d: int, mask: int, flip: int, term: bool):
    """Broadcast shape of a message (or edge term) on the cell bits `mask` of
    a d-axis table, and, when it is read reversed where bit `flip` is set,
    the index of each half and of the reversed message.

    An edge term (`term`, never read reversed) that varies on some but not
    all of the table's last LONG_TERM_AXES axes also gets the shape it is
    written out to, 2 on those axes, in the last slot; left as it is, the
    add's inner loop would run over short strips."""
    axes = [2 if mask >> (d - 1 - a) & 1 else 1 for a in range(d)]
    wide = None
    if term and mask & ((1 << LONG_TERM_AXES) - 1):
        wide = (*axes[: max(d - LONG_TERM_AXES, 0)], *(2,) * min(d, LONG_TERM_AXES))
        if wide == tuple(axes):  # it varies on all of them already
            wide = None
    if flip < 0:
        return tuple(axes), None, None, None, wide
    a = d - 1 - flip
    del axes[a]
    lead = (slice(None),) * (a + 1)
    rev = (slice(None),) + (slice(None, None, -1),) * (d - 1)
    return tuple(axes), lead + (0,), lead + (1,), rev, None


def _backtrack(p: _Problem, group: np.ndarray, row: np.ndarray, bits: list) -> Assignment:
    """Signs of one pair from its bags' packed bits, parents before children."""
    size = np.diff(p.off)
    bag = np.repeat(np.arange(len(size)), size)
    j = np.arange(len(p.ax)) - p.off[bag]
    sel = np.flatnonzero(j < p.gone[bag])[::-1]
    b = bag[sel]
    pins = p.off[b + 1] - 1
    ax = p.ax.tolist()
    signs = [1] * p.G.n
    for e, pe, gi, r, jj in zip(
        sel.tolist(), pins.tolist(), group[b].tolist(), row[b].tolist(), j[sel].tolist()
    ):
        s = signs[ax[pe]]
        rest = 0
        for u in ax[e + 1 : pe]:
            rest = rest << 1 | (signs[u] != s)
        # t1 > t0 at these signs when the pin is +1, else t0 > t1 at the flipped ones
        if bits[gi][jj][r, (s + 1) >> 1, rest >> 3] >> (7 - (rest & 7)) & 1:
            signs[ax[e]] = -1
    return Assignment(signs, evaluate(p.G, signs))


def solve_exact(G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP) -> ApproxResult:
    """Decompose and solve: an optimum, with the width of the decomposition
    the DP ran.

    Two decompositions compete: min-fill (`build_decomposition`) and the
    interval form of a Cuthill–McKee order.  The interval form runs when it
    fits `width_cap` and has strictly fewer DP cells, sum of 2^(|bag| - 1),
    or when min-fill is refused at the cap and the interval form fits;
    min-fill wins ties.  When neither fits, min-fill's CapacityError is
    raised as it was, so its width is min-fill's lower bound.
    """
    first, pos, size = _intervals(G, cuthill_mckee_order(G))
    fits = len(size) > 0 and size.max() - 1 <= width_cap
    try:
        td = build_decomposition(G, width_cap)
    except CapacityError:
        if not fits:
            raise  # bare: a name bound to the error would keep its frames alive
        td = None
    if fits and (td is None or _cells(size) < _cells(np.diff(td.off))):
        td = _interval_bags(first, pos, size)
    sol = solve_treewidth(G, td)
    return ApproxResult(sol, Fraction(1), {"width": td.width})

