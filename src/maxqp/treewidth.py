"""Exact solving on bounded-treewidth instances.

Pipeline: min-fill elimination ordering -> clique-tree decomposition ->
bucket elimination over the bags, one sign-mask table per bag, with
backtracking reconstruction.  The DP takes any valid decomposition: it
renumbers the bags children before parents itself (`to_nice`).  An external
decomposition in the `b`/`t` text format is read by `read_decomposition` and
solved as it is, empty bags included.  A decomposition wider than
MAX_DP_WIDTH is refused before any table is allocated.

Each bag's table is dropped once its message to the parent is sent, and
each vertex maxed out keeps only one packed argmax bit per mask for the
backtrack, so memory is the live messages plus 2^|bag|/8 bytes per
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .graph import ApproxResult, Assignment, WeightedGraph, evaluate

DEFAULT_WIDTH_CAP = 20
MAX_DP_WIDTH = 27  # a bag of 28 vertices makes a 2 GiB table


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


def _add_edge(table: np.ndarray, i: int, j: int, w: float) -> None:
    """Add w * s_i * s_j to every cell of a bag table, in place.

    Bag bit i is cube axis k-1-i, so the term is the 2x2 block
    [[w, -w], [-w, w]] broadcast over those two axes.
    """
    k = table.ndim
    shape = [1] * k
    shape[k - 1 - i] = shape[k - 1 - j] = 2
    table += np.array([[w, -w], [-w, w]]).reshape(shape)


def _halves(table: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the cells with bag bit i clear and set."""
    head = (slice(None),) * (table.ndim - 1 - i)
    return table[(*head, 0, ...)], table[(*head, 1, ...)]


def solve_treewidth(G: WeightedGraph, td: TreeDecomposition) -> Assignment:
    """Optimal assignment by bucket elimination over the bags of `td`.

    `td` is any valid decomposition of G; its bags are first renumbered
    children before parents, each sorted (`to_nice`).  A bag's table is a
    (2,)*|bag| cube indexed by sign mask (bit i set => bag[i] gets -1; bit i
    is axis |bag|-1-i, so the flat index is the mask).  It is the sum of the
    children's messages, broadcast over the bag, and of the edges whose
    bucket is this bag.  A vertex's bucket is its forget bag, the one bag
    holding it whose parent does not (the root's parent counts as empty);
    edge uv goes to u's forget bag if that bag holds v, else to v's.  Each
    vertex of the bucket is then maxed out, highest bag position first,
    keeping one packed bit per remaining mask, set when the vertex is better
    at -1 (ties keep +1); what is left is the message to the parent, and the
    root's is a 0-d array.  The backtrack reads the bits in reverse.
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
    for i, bag in enumerate(td.bags):
        p = td.parent[i]
        for v in bag:
            if p is None or v not in bagsets[p]:
                forget_at[v] = i
    if -1 in forget_at:
        raise ValidationError("decomposition does not cover every vertex")
    bucket: list[list[tuple[int, int, float]]] = [[] for _ in td.bags]
    for u, v, w in G.edges:
        bucket[forget_at[u] if v in bagsets[forget_at[u]] else forget_at[v]].append((u, v, w))

    inbox: list[list[tuple[tuple[int, ...], np.ndarray]]] = [[] for _ in td.bags]
    forgotten: list[tuple[int, tuple[int, ...], np.ndarray]] = []
    for i, bag in enumerate(td.bags):
        k = len(bag)
        pos = {v: j for j, v in enumerate(bag)}
        table = np.zeros((2,) * k)
        for keep, msg in inbox[i]:
            shape = [1] * k
            for v in keep:
                shape[k - 1 - pos[v]] = 2
            table += msg.reshape(shape)
        inbox[i] = []
        for u, v, w in bucket[i]:
            _add_edge(table, pos[u], pos[v], w)
        keep = bag
        for j in range(k - 1, -1, -1):  # highest first: lower positions stay put
            if forget_at[bag[j]] == i:
                t0, t1 = _halves(table, j)
                keep = keep[:j] + keep[j + 1 :]
                forgotten.append((bag[j], keep, np.packbits(t1 > t0, axis=None)))
                table = np.maximum(t0, t1)
        if td.parent[i] is not None:
            inbox[td.parent[i]].append((keep, table))

    signs = [0] * G.n
    for v, keep, bits in reversed(forgotten):
        mask = sum(1 << j for j, u in enumerate(keep) if signs[u] < 0)
        signs[v] = -1 if int(bits[mask >> 3] >> (7 - (mask & 7))) & 1 else 1
    value = evaluate(G, signs)
    return Assignment(tuple(signs), value)


def solve_exact(G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP) -> ApproxResult:
    """Decompose and solve: an optimum, with the achieved width."""
    td = build_decomposition(G, width_cap)
    sol = solve_treewidth(G, td)
    return ApproxResult(sol, Fraction(1), {"width": td.width})

