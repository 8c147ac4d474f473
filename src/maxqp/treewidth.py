"""Exact solving on bounded-treewidth instances.

Pipeline: min-fill elimination ordering -> clique-tree decomposition ->
nice-form conversion (leaf / introduce / forget / join nodes) -> dynamic
program over bag sign masks with backtracking reconstruction.  An external
decomposition in the `b`/`t` text format is read by `read_decomposition`.

The DP streams: each bag table is dropped as soon as its parent's table is
built, and a forget node keeps only one packed argmax bit per mask for the
backtrack, so memory is the live tables plus 2^|bag|/8 bytes per forget node
rather than every table of the decomposition (the one-argmax-per-variable
idea of Dechter's bucket elimination, Artif. Intell. 1999).

The elimination ordering is min-fill with ties broken by vertex id
(Bodlaender & Koster, "Treewidth computations I. Upper bounds", Inf. Comput.
2010).  The next vertex comes from a heap of (fill, id) entries with lazy
invalidation, so one elimination costs the fill updates of its neighbourhood
rather than a scan over every alive vertex.

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
    _validate_tree(td)
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


def _validate_tree(td: TreeDecomposition) -> None:
    """The parent links must form one tree, rooted at td.root, over all bags."""
    k = len(td.bags)
    if len(td.parent) != k or not 0 <= td.root < k or td.parent[td.root] is not None:
        raise ValidationError("decomposition root must be a bag without a parent")
    for i, p in enumerate(td.parent):
        if p is None and i != td.root:
            raise ValidationError("decomposition has more than one root")
        if p is not None and not 0 <= p < k:
            raise ValidationError(f"bag {i} has unknown parent {p}")
    ch_of = td.children()
    reached = 0
    stack = [td.root]
    while stack:
        reached += 1
        stack.extend(ch_of[stack.pop()])
    if reached != k:
        raise ValidationError("decomposition tree links contain a cycle")


def build_decomposition(
    G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP
) -> TreeDecomposition:
    """Clique-tree decomposition from a min-fill elimination ordering.

    The next vertex is the alive one with the smallest (fill, id), taken from
    a heap with lazy invalidation.  Raises CapacityError as soon as one bag
    has more than `width_cap + 1` vertices; `achieved` is that bag's width,
    a lower bound on the width the full ordering would reach.
    """
    n = G.n
    if n == 0:
        return TreeDecomposition((), (), 0)
    adj: list[set[int]] = [set(u for u, _ in G.adjacency[v]) for v in range(n)]
    alive = set(range(n))

    def fill_count(v: int) -> int:
        nbrs = [u for u in adj[v] if u in alive]
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
    elim_pos: dict[int, int] = {}
    for step in range(n):
        while True:
            f, v = heapq.heappop(heap)
            if v in alive and f == fill[v]:
                break
        nbrs = sorted(u for u in adj[v] if u in alive)
        if len(nbrs) > width_cap:
            raise CapacityError(
                f"elimination bag of width {len(nbrs)} exceeds cap {width_cap}",
                achieved=len(nbrs),
            )
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
        for u in dirty:
            if u in alive:
                f = fill_count(u)
                if f != fill[u]:
                    fill[u] = f
                    heapq.heappush(heap, (f, u))

    # parent of v's bag: the bag of the earliest-eliminated remaining member;
    # isolated tails chain onto the last bag so the result is a single tree
    parent: list[int | None] = [None] * n
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
    root = n - 1
    td = TreeDecomposition(tuple(bags), tuple(parent), root)
    return td


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


def validate_nice(G: WeightedGraph, ntd: NiceTreeDecomposition) -> None:
    td = TreeDecomposition(
        ntd.bags,
        _parents_from_children(ntd.children, ntd.root),
        ntd.root,
    )
    validate_decomposition(G, td)
    for i, kind in enumerate(ntd.kinds):
        bag = set(ntd.bags[i])
        ch = ntd.children[i]
        if kind == "leaf":
            if ch or len(bag) != 1:
                raise ValidationError(f"node {i}: malformed leaf")
        elif kind == "introduce":
            (c,) = ch
            cb = set(ntd.bags[c])
            if not (cb < bag and len(bag - cb) == 1 and ntd.special[i] in bag - cb):
                raise ValidationError(f"node {i}: malformed introduce")
        elif kind == "forget":
            (c,) = ch
            cb = set(ntd.bags[c])
            if not (bag < cb and len(cb - bag) == 1 and ntd.special[i] in cb - bag):
                raise ValidationError(f"node {i}: malformed forget")
        elif kind == "join":
            if len(ch) != 2 or any(set(ntd.bags[c]) != bag for c in ch):
                raise ValidationError(f"node {i}: malformed join")
        else:
            raise ValidationError(f"node {i}: unknown kind {kind!r}")


def _parents_from_children(children, root):
    parent: list[int | None] = [None] * len(children)
    for i, ch in enumerate(children):
        for c in ch:
            parent[c] = i
    parent[root] = None
    return tuple(parent)


def to_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form with the same width."""
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
        for v in sorted(cur - target):
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
            first = min(bag)
            top = add([first], "leaf", [])
            top = chain(top, bag)
        else:
            tops = [chain(done[c], bag) for c in ch_of[node]]
            top = tops[0]
            for t in tops[1:]:
                top = add(bag, "join", [top, t])
        done[node] = top
    return NiceTreeDecomposition(
        tuple(bags), tuple(kinds), tuple(children), tuple(special), done[td.root]
    )


def _add_edge(table: np.ndarray, i: int, j: int, w: float) -> None:
    """Add w * s_i * s_j to every cell of a bag table, in place.

    Bag bit i is cube axis k-1-i, so the term is the 2x2 block
    [[w, -w], [-w, w]] broadcast over those two axes.
    """
    k = table.ndim
    shape = [1] * k
    shape[k - 1 - i] = shape[k - 1 - j] = 2
    table += np.array([[w, -w], [-w, w]]).reshape(shape)


def _bag_value(G: WeightedGraph, bag: tuple[int, ...]) -> np.ndarray:
    """val_x(G[bag]) for every sign mask over the bag, as a cube."""
    pos = {v: i for i, v in enumerate(bag)}
    out = np.zeros((2,) * len(bag))
    for u in bag:
        for v, w in G.adjacency[u]:
            if u < v and v in pos:
                _add_edge(out, pos[u], pos[v], w)
    return out


def _halves(table: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the cells with bag bit i clear and set."""
    head = (slice(None),) * (table.ndim - 1 - i)
    return table[(*head, 0, ...)], table[(*head, 1, ...)]


def solve_treewidth(G: WeightedGraph, ntd: NiceTreeDecomposition) -> Assignment:
    """Optimal assignment via dynamic programming over the nice decomposition.

    A bag's table is a (2,)*|bag| cube indexed by sign mask (bit i set =>
    bag[i] gets -1; bit i is axis |bag|-1-i, so the flat index is the mask).
    Tables are built in postorder and a child's table is dropped once its
    parent is built; a forget node keeps one packed bit per mask, set when
    the forgotten vertex is better at -1 (ties keep +1).  Memory is the live
    tables plus 2^|bag|/8 bytes per forget node.
    """
    if G.n == 0:
        return Assignment((), 0.0)
    tables: dict[int, np.ndarray] = {}
    argmax_bits: dict[int, np.ndarray] = {}
    for node in ntd.postorder():
        bag = ntd.bags[node]
        kind = ntd.kinds[node]
        if kind == "leaf":
            tables[node] = np.zeros((2,) * len(bag))
        elif kind == "introduce":
            (c,) = ntd.children[node]
            v = ntd.special[node]
            p = bag.index(v)
            child = tables.pop(c)
            a = len(bag) - 1 - p
            table = child.reshape(child.shape[:a] + (1,) + child.shape[a:]).repeat(2, axis=a)
            pos = {u: i for i, u in enumerate(bag)}
            for u, w in G.adjacency[v]:
                if u in pos:
                    _add_edge(table, p, pos[u], w)
            tables[node] = table
        elif kind == "forget":
            (c,) = ntd.children[node]
            t0, t1 = _halves(tables.pop(c), ntd.bags[c].index(ntd.special[node]))
            argmax_bits[node] = np.packbits(t1 > t0, axis=None)
            tables[node] = np.maximum(t0, t1)
        else:  # join
            cy, cz = ntd.children[node]
            table = tables.pop(cy)
            table += tables.pop(cz)
            table -= _bag_value(G, bag)
            tables[node] = table

    best_mask = int(np.argmax(tables.pop(ntd.root)))  # first maximum: deterministic

    # every bag vertex is either in the root bag or forgotten below it
    signs = [0] * G.n
    for i, v in enumerate(ntd.bags[ntd.root]):
        signs[v] = -1 if (best_mask >> i) & 1 else 1
    stack: list[tuple[int, int]] = [(ntd.root, best_mask)]
    while stack:
        node, mask = stack.pop()
        kind = ntd.kinds[node]
        if kind == "leaf":
            continue
        if kind == "introduce":
            (c,) = ntd.children[node]
            p = ntd.bags[node].index(ntd.special[node])
            cm = ((mask >> (p + 1)) << p) | (mask & ((1 << p) - 1))
            stack.append((c, cm))
        elif kind == "forget":
            (c,) = ntd.children[node]
            v = ntd.special[node]
            p = ntd.bags[c].index(v)
            bit = int(argmax_bits[node][mask >> 3] >> (7 - (mask & 7))) & 1
            signs[v] = -1 if bit else 1
            cm = ((mask >> p) << (p + 1)) | (bit << p) | (mask & ((1 << p) - 1))
            stack.append((c, cm))
        else:
            cy, cz = ntd.children[node]
            stack.append((cy, mask))
            stack.append((cz, mask))

    if any(s == 0 for s in signs):
        raise ValidationError("decomposition does not cover every vertex")
    value = evaluate(G, signs)
    return Assignment(tuple(signs), value)


def solve_exact(G: WeightedGraph, width_cap: int = DEFAULT_WIDTH_CAP) -> ApproxResult:
    """Decompose, convert, and solve: an optimum, with the achieved width."""
    td = build_decomposition(G, width_cap)
    sol = solve_treewidth(G, to_nice(td))
    return ApproxResult(sol, Fraction(1), {"width": td.width if td.bags else 0})

