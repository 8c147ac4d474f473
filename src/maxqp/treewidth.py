"""Exact solving on bounded-treewidth instances.

Pipeline: min-fill elimination ordering -> clique-tree decomposition ->
bucket elimination over the bags, one sign-mask table per bag, with
backtracking reconstruction.  The DP takes any valid decomposition: it
renumbers the bags children before parents itself (`to_nice`).  An external
decomposition in the `b`/`t` text format is read by `read_decomposition` and
solved as it is, empty bags included.  A decomposition wider than
MAX_DP_WIDTH is refused before any table is allocated.

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

The elimination ordering is min-fill with ties broken by vertex id
(Bodlaender & Koster, "Treewidth computations I. Upper bounds", Inf. Comput.
2010).  The next vertex comes from a heap of (fill, id) entries with lazy
invalidation.  Adjacency sets hold alive neighbours only, and each fill value
is counted once and then updated by exact deltas (see `build_decomposition`),
so one elimination costs set operations over its neighbourhood and the common
neighbours of its fill edges rather than a scan over every alive vertex.

The DP is exact for *any* valid decomposition; the heuristic only affects
runtime.  Elimination stops at the first bag wider than the cap and raises a
CapacityError instead of silently running an exponential table.  The width
it reports is that bag's width: a lower bound on the heuristic's final width,
not the final width itself.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .graph import ApproxResult, Assignment, WeightedGraph, evaluate

DEFAULT_WIDTH_CAP = 20
MAX_DP_WIDTH = 27  # a bag of 28 vertices makes a 1 GiB half table


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[tuple[int, ...], ...]
    parent: tuple[int | None, ...]  # parent[root] is None
    root: int

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(i)
        return ch


def parse_decomposition(text: str) -> TreeDecomposition:
    bags: dict[int, tuple[int, ...]] = {}
    links: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "b":
                bid = int(fields[1])
                if bid in bags:
                    raise ParseError(f"duplicate bag id {bid}", line=lineno)
                bags[bid] = tuple(sorted(int(t) - 1 for t in fields[2:]))
            elif fields[0] == "t":
                links.append((int(fields[1]), int(fields[2])))
            else:
                raise ParseError(f"unknown record type {fields[0]!r}", line=lineno)
        except (ValueError, IndexError):
            raise ParseError("malformed decomposition line", line=lineno) from None
    if not bags:
        raise ParseError("decomposition has no bags")
    index = {bid: i for i, bid in enumerate(sorted(bags))}
    parent: list[int | None] = [None] * len(bags)
    for p, c in links:
        if p not in index or c not in index:
            raise ParseError(f"tree link references unknown bag ({p}, {c})")
        if parent[index[c]] is not None:
            raise ParseError(f"bag {c} has more than one parent link")
        parent[index[c]] = index[p]
    roots = [i for i, p in enumerate(parent) if p is None]
    if len(roots) != 1:
        raise ParseError(f"decomposition must have exactly one root, found {len(roots)}")
    ordered = [bags[bid] for bid in sorted(bags)]
    return TreeDecomposition(tuple(ordered), tuple(parent), roots[0])


def read_decomposition(path: str) -> TreeDecomposition:
    with open(path, encoding="utf-8") as fh:
        return parse_decomposition(fh.read())


def validate_decomposition(G: WeightedGraph, td: TreeDecomposition) -> None:
    """Check the tree shape, vertex coverage, edge coverage, and connected
    vertex traces."""
    if not td.bags:
        if G.n == 0:
            return
        raise ValidationError("decomposition has no bags")
    _preorder(td)
    containing: dict[int, list[int]] = {v: [] for v in range(G.n)}
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < G.n:
                raise ValidationError(f"bag {i} mentions unknown vertex {v}")
            containing[v].append(i)
    for v in range(G.n):
        if not containing[v]:
            raise ValidationError(f"vertex {v} appears in no bag")
    for u, v, _ in G.edges:
        if not any(u in td.bags[i] for i in containing[v]):
            raise ValidationError(f"edge ({u}, {v}) covered by no bag")
    # trace connectivity: within the bags containing v, exactly one has its
    # parent outside the trace
    bagsets = [set(b) for b in td.bags]
    for v in range(G.n):
        trace = containing[v]
        tops = sum(
            1
            for i in trace
            if td.parent[i] is None or v not in bagsets[td.parent[i]]
        )
        if tops != 1:
            raise ValidationError(f"bags containing vertex {v} are not connected")


def _preorder(td: TreeDecomposition) -> list[int]:
    """The bags in depth-first preorder from td.root; raises unless the
    parent links form one tree, rooted at td.root, over all bags."""
    k = len(td.bags)
    if len(td.parent) != k or not 0 <= td.root < k or td.parent[td.root] is not None:
        raise ValidationError("decomposition root must be a bag without a parent")
    for i, p in enumerate(td.parent):
        if p is None and i != td.root:
            raise ValidationError("decomposition has more than one root")
        if p is not None and not 0 <= p < k:
            raise ValidationError(f"bag {i} has unknown parent {p}")
    ch_of = td.children()
    order: list[int] = []
    stack = [td.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(ch_of[node])
    if len(order) != k:
        raise ValidationError("decomposition tree links contain a cycle")
    return order


def build_decomposition(
    G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP
) -> TreeDecomposition:
    """Clique-tree decomposition from a min-fill elimination ordering.

    The next vertex is the alive one with the smallest (fill, id), taken from
    a heap with lazy invalidation.  Raises CapacityError as soon as one bag
    has more than `width_cap + 1` vertices; `achieved` is that bag's width,
    a lower bound on the width the full ordering would reach.

    `adj[v]` holds v's alive neighbours only, and fill[u] (the number of
    non-adjacent pairs in adj[u]) is counted once per vertex and then kept
    exact by deltas.  Eliminating v with N = adj[v]:
      - each u in N drops v from adj[u] and loses one missing pair (v, c) per
        c in adj[u] outside N: fill[u] -= |adj[u]| - |adj[u] & N|;
      - each fill edge ab (a, b in N, not adjacent), with C = adj[a] & adj[b]
        taken before it is added, gives fill[x] -= 1 for x in C, and
        fill[a] += |adj[a]| - |C| for the new missing pairs (b, c), likewise
        for b.
    A (fill, id) entry is pushed only for a vertex whose fill changed.
    """
    n = G.n
    if n == 0:
        return TreeDecomposition((), (), 0)
    adj: list[set[int]] = [set(nbrs) for nbrs in G.adjacency]

    def fill_count(v: int) -> int:
        nbrs = list(adj[v])
        missing = 0
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] not in adj[nbrs[i]]:
                    missing += 1
        return missing

    fill = [fill_count(v) for v in range(n)]
    # (fill, v) is valid while v is alive and fill[v] is unchanged
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)

    order: list[int] = []
    bags: list[tuple[int, ...]] = []
    elim_pos = [-1] * n  # -1 while alive
    for step in range(n):
        while True:
            f, v = heapq.heappop(heap)
            if elim_pos[v] < 0 and f == fill[v]:
                break
        N = adj[v]
        nbrs = sorted(N)
        if len(nbrs) > width_cap:
            raise CapacityError(
                f"elimination bag of width {len(nbrs)} exceeds cap {width_cap}",
                achieved=len(nbrs),
            )
        bags.append(tuple(sorted([v] + nbrs)))
        order.append(v)
        elim_pos[v] = step
        before = {u: fill[u] for u in nbrs}  # fill at step start, per touched vertex
        for u in nbrs:
            adj_u = adj[u]
            adj_u.discard(v)
            fill[u] -= len(adj_u) - len(adj_u & N)
        for i in range(len(nbrs)):
            a = nbrs[i]
            adj_a = adj[a]
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if b not in adj_a:
                    adj_b = adj[b]
                    common = adj_a & adj_b
                    for x in common:
                        if x not in before:
                            before[x] = fill[x]
                        fill[x] -= 1
                    fill[a] += len(adj_a) - len(common)
                    fill[b] += len(adj_b) - len(common)
                    adj_a.add(b)
                    adj_b.add(a)
        for u, f in before.items():
            if fill[u] != f:
                heapq.heappush(heap, (fill[u], u))

    # parent of v's bag: the bag of the earliest-eliminated remaining member;
    # isolated tails chain onto the last bag so the result is a single tree
    parent: list[int | None] = [None] * n
    last_rootless = None
    for i, v in enumerate(order):
        rest = [elim_pos[u] for u in bags[i] if u != v]
        if rest:
            parent[i] = min(rest)
        elif last_rootless is not None:
            parent[last_rootless] = i
            last_rootless = i
        else:
            last_rootless = i
    root = n - 1
    td = TreeDecomposition(tuple(bags), tuple(parent), root)
    return td


def to_nice(td: TreeDecomposition) -> TreeDecomposition:
    """The same bags, each sorted, renumbered so that children come before
    their parent and the root is last: the order solve_treewidth works in.
    Idempotent: a renumbered decomposition comes back unchanged.

    The name is kept from the nice-form DP this replaced: span tracing wraps
    `treewidth.to_nice` by name and reads `.bags` from its result.
    """
    if not td.bags:
        return td
    order = _preorder(td)[::-1]  # reversed preorder: every child precedes its parent
    new = {old: i for i, old in enumerate(order)}
    parent = tuple(None if td.parent[o] is None else new[td.parent[o]] for o in order)
    bags = tuple(tuple(sorted(td.bags[o])) for o in order)
    return TreeDecomposition(bags, parent, len(order) - 1)


_SIGN = np.array([1.0, -1.0])


def solve_treewidth(G: WeightedGraph, td: TreeDecomposition) -> Assignment:
    """Optimal assignment by bucket elimination over the bags of `td`.

    `td` is any valid decomposition of G; its bags are first renumbered
    children before parents, each sorted (`to_nice`).  A vertex's bucket is
    its forget bag, the one bag holding it whose parent does not (the root's
    parent counts as empty); edge uv goes to u's forget bag if that bag holds
    v, else to v's.  The vertices are ranked by (forget bag, -id), and a
    bag's last vertex in that order is its pin.  The objective is the same at
    x and -x, so a bag's table is a (2,)*(|bag|-1) cube over the cells where
    the pin is +1, one axis per other vertex in rank order (index 1 => -1).
    It is the sum of the children's messages, broadcast over the bag, and of
    the edges in the bucket.  A message pinned at another vertex c goes to
    the half where c is +1 as it is, and reversed on every axis to the half
    where c is -1 (T(-s) = T(s)).

    The vertices forgotten at a bag lead its axes and are maxed out in turn,
    highest id first, each keeping two packed bits per remaining cell,
    t0 > t1 then t1 > t0; what is left is the message to the parent, pinned
    at the same pin, or 0-d if the bag forgets every vertex.  The backtrack
    reads t1 > t0 at the signs when the pin is +1, else t0 > t1 at the
    flipped signs, so a vertex takes -1 exactly when it is better there with
    the signs already chosen (ties keep +1); a pin forgotten with its whole
    bag, maxed out last, takes +1.
    """
    if td.width > MAX_DP_WIDTH:
        raise CapacityError(
            f"decomposition width {td.width} exceeds the DP limit {MAX_DP_WIDTH}",
            achieved=td.width,
        )
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
    if -1 in forget_at:
        raise ValidationError("decomposition does not cover every vertex")
    bucket: list[list[tuple[int, int, float]]] = [[] for _ in td.bags]
    for u, v, w in G.edges:
        bucket[forget_at[u] if v in bagsets[forget_at[u]] else forget_at[v]].append((u, v, w))
    rank = {v: r for r, v in enumerate(sorted(range(G.n), key=lambda v: (forget_at[v], -v)))}

    patterns: dict[tuple[int, ...], np.ndarray] = {}  # +-1 edge terms by (ndim, axes)
    inbox: list[list[tuple[int | None, list[int], np.ndarray]]] = [[] for _ in td.bags]
    forgotten: list[tuple[int, int, list[int], np.ndarray]] = []
    for i, bag in enumerate(td.bags):
        axes = sorted(bag, key=rank.__getitem__)
        pin = axes.pop() if axes else None
        d = len(axes)
        pos = dict(zip(axes, range(d)))
        table = np.zeros((2,) * d)
        for cpin, keep, msg in inbox[i]:
            idx: list[slice | None] = [None] * d
            for v in keep:
                idx[pos[v]] = slice(None)
            if cpin is None or cpin == pin:
                table += msg[tuple(idx)]
            else:  # the half where cpin is -1 reads msg reversed: T(-s) = T(s)
                a = pos[cpin]
                del idx[a]
                ix, flip = tuple(idx), (slice(None, None, -1),) * msg.ndim
                lo, hi = (slice(None),) * a + (0,), (slice(None),) * a + (1,)
                # unnamed views: a named one would keep this table alive once it is maxed out
                np.add(table[lo], msg[ix], out=table[lo])
                np.add(table[hi], msg[flip][ix], out=table[hi])
        inbox[i] = []
        for u, v, w in bucket[i]:
            key = (d, pos[v]) if u == pin else (d, pos[u]) if v == pin else (d, pos[u], pos[v])
            pat = patterns.get(key)
            if pat is None:
                axis = [_SIGN.reshape((1,) * a + (2,) + (1,) * (d - 1 - a)) for a in key[1:]]
                pat = patterns[key] = math.prod(axis)
            table += w * pat
        gone = min(forgets[i], d)  # the pin is kept unless the bag forgets every vertex
        for j in range(gone):
            forgotten.append((axes[j], pin, axes[j + 1 :], np.packbits(table > table[::-1])))
            table = np.maximum(table[0, ...], table[1, ...])
        if td.parent[i] is not None:  # a 0-d message is the same at every pin
            inbox[td.parent[i]].append((pin if gone < d else None, axes[gone:], table))

    signs = [1] * G.n
    for v, pin, keep, bits in reversed(forgotten):
        s = signs[pin]
        mask = s > 0  # selects the t1 > t0 half
        for u in keep:
            mask = mask << 1 | (signs[u] != s)
        signs[v] = -1 if int(bits[mask >> 3] >> (7 - (mask & 7))) & 1 else 1
    value = evaluate(G, signs)
    return Assignment(tuple(signs), value)


def solve_exact(G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP) -> ApproxResult:
    """Decompose and solve: an optimum, with the achieved width."""
    td = build_decomposition(G, width_cap)
    sol = solve_treewidth(G, td)
    return ApproxResult(sol, Fraction(1), {"width": td.width})

