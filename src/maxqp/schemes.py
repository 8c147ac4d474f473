"""Layering- and partition-based (1 - eps)-approximation schemes, and the
text format of externally supplied partitions.

Both schemes delete a small residue class of the instance, solve the
remainder exactly with the treewidth engine, and lift the solution back.
Neither verifies minor-freeness; they verify the consequence they actually
need (the achieved decomposition widths) and fail loudly otherwise.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ParseError, ValidationError
from .graph import (
    ApproxResult,
    Assignment,
    WeightedGraph,
    combine_disjoint,
    extend_from_induced,
    induced_subgraph,
    neighbour_lists,
)
from .treewidth import DEFAULT_WIDTH_CAP, build_decomposition, check_dp_width, solve_treewidths


def bfs_layers(G: WeightedGraph, root: int | None = None) -> tuple[int, ...]:
    """Exact BFS distance layers: the layer index of each vertex.

    One BFS per component: the first from `root` when it is given, then one
    from each vertex not yet reached, in increasing id order.  The layer
    indices of all components are shared.
    """
    if root is not None and not 0 <= root < G.n:
        raise ValidationError(f"root {root} out of range")
    nb = neighbour_lists(G)
    layer_of = [-1] * G.n
    starts = range(G.n) if root is None else [root, *range(G.n)]
    for start in starts:
        if layer_of[start] >= 0:
            continue
        layer_of[start] = 0
        dq = deque([start])
        while dq:
            v = dq.popleft()
            d = layer_of[v] + 1
            for u in nb[v]:
                if layer_of[u] < 0:
                    layer_of[u] = d
                    dq.append(u)
    return tuple(layer_of)


def residue_classes(layer_of, k: int) -> list[list[int]]:
    """Class i = vertices whose layer index is congruent to i mod k, in id order.

    Only the classes that occur are built: with L layers, classes 0..min(k, L)-1,
    plus class L, empty, when k > L.  Every class from L on is empty, so that
    one stands for all of them.
    """
    classes: list[list[int]] = [[] for _ in range(min(k, max(layer_of, default=-1) + 2))]
    for v, li in enumerate(layer_of):
        classes[li % k].append(v)
    return classes


def _decompose_induced(G, vertices, width_cap, label):
    """G[vertices], its decomposition and its ids in G, or a CapacityError
    that names the subproblem."""
    sub, old_of = induced_subgraph(G, vertices)
    try:
        td = build_decomposition(sub, width_cap)
        check_dp_width(td)
    except CapacityError as e:
        raise CapacityError(
            f"width cap exceeded while solving {label} (bag of width {e.achieved})",
            achieved=e.achieved,
        ) from e
    return sub, td, old_of


def _solve_all(subproblems) -> list[dict[int, int]]:
    """Exact signs of every decomposed subproblem, from one DP run, each as a
    dict on the ids of G."""
    sols = solve_treewidths([(sub, td) for sub, td, _ in subproblems])
    return [dict(zip(old_of, a.values)) for (_, _, old_of), a in zip(subproblems, sols)]


def solve_baker(
    G: WeightedGraph, eps: float, width_cap: int = DEFAULT_WIDTH_CAP
) -> ApproxResult:
    """Layering scheme: delete one residue class mod k, solve the rest exactly.

    k is the smallest integer with 4/k <= eps.  Returns the best of the k
    lifted solutions; value >= (1 - eps) * opt on instances where every
    remainder fits the width cap.  Every remainder is decomposed before any
    is solved, so a remainder over the cap is refused before any DP table.
    """
    if not 0 < eps <= 1:
        raise ValidationError("epsilon must be in (0, 1]")
    k = math.ceil(4 / eps)
    subproblems = []
    # the classes past the last one built are empty, like the last: the first wins ties
    for i, cls in enumerate(residue_classes(bfs_layers(G), k)):
        drop = set(cls)
        keep = [v for v in range(G.n) if v not in drop]
        subproblems.append(_decompose_induced(G, keep, width_cap, f"G_{i}"))
    best = None
    best_i = -1
    for i, signs in enumerate(_solve_all(subproblems)):
        sol = extend_from_induced(G, signs)
        if best is None or sol.value > best.value:
            best, best_i = sol, i
    guarantee = Fraction(max(k - 4, 0), k)
    cert = {"epsilon": eps, "k": k, "chosen_class": best_i}
    return ApproxResult(best, guarantee, cert)


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint cover of V used by the partition scheme."""

    parts: tuple[tuple[int, ...], ...]
    source: str  # "external-file" | "bfs-layer-heuristic"

    @property
    def k(self) -> int:
        return len(self.parts)


def load_partition(n: int, raw_parts, source: str = "external-file") -> VertexPartition:
    """Validate an externally supplied partition: disjoint cover of V."""
    seen: set[int] = set()
    parts = []
    for part in raw_parts:
        pset = set(part)
        if any(not 0 <= v < n for v in pset):
            raise ValidationError("partition mentions an out-of-range vertex")
        if pset & seen:
            raise ValidationError("partition parts overlap")
        seen |= pset
        parts.append(tuple(sorted(pset)))
    if seen != set(range(n)):
        raise ValidationError("partition does not cover every vertex")
    if not parts:
        raise ValidationError("partition must have at least one part")
    return VertexPartition(tuple(parts), source)


def parse_partition(text: str, n: int) -> VertexPartition:
    parts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError("partition line must be vertex ids", line=lineno) from None
        if any(not 1 <= v <= n for v in ids):
            raise ParseError(f"vertex id out of range 1..{n}", line=lineno)
        parts.append([v - 1 for v in ids])
    return load_partition(n, parts)


def read_partition(path: str, n: int) -> VertexPartition:
    with open(path, encoding="utf-8") as fh:
        return parse_partition(fh.read(), n)


def solve_partition_scheme(
    G: WeightedGraph,
    eps: float,
    partition: VertexPartition | None = None,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> ApproxResult:
    """Partition scheme for unit instances: drop each part's boundary edges.

    For every part V_i, G[V_i] and G[V \\ V_i] are solved exactly and glued
    with the lossless disjoint-union composition; the best of the k results
    is returned.  With h = max(1, ceil(m/n)) witnessing the instance's edge
    density, the default k = ceil(6h/eps) makes the best solution
    (1 - eps)-approximate whenever every subproblem fits the width cap.
    """
    if not G.unit:
        raise ValidationError("partition scheme requires unit weights")
    if not 0 < eps <= 1:
        raise ValidationError("epsilon must be in (0, 1]")
    if G.n == 0:
        return ApproxResult(extend_from_induced(G, {}), Fraction(1), {"k": 0})
    h = max(1, math.ceil(G.m / G.n))
    if partition is None:
        # the residue classes mod k of the BFS layers: the parts past the
        # last class built are empty, like that class
        k = math.ceil(6 * h / eps)
        parts = residue_classes(bfs_layers(G), k)
        source = "bfs-layer-heuristic"
    else:
        k, parts, source = partition.k, partition.parts, partition.source
    first_empty = next((i for i, part in enumerate(parts) if not part), None)
    # per part solved: its index and the subproblem indices of G[V_i] and
    # G[V \ V_i], None for an empty one
    runs, subproblems = [], []
    for i, part in enumerate(parts):
        if not part and i != first_empty:
            continue  # the same subproblems as the first empty part, which wins ties
        part_set = set(part)
        outside = [v for v in range(G.n) if v not in part_set]
        at = []
        for vertices, label in ((list(part), f"G[V_{i}]"), (outside, f"G[V \\ V_{i}]")):
            if vertices:
                subproblems.append(_decompose_induced(G, vertices, width_cap, label))
            at.append(len(subproblems) - 1 if vertices else None)
        runs.append((i, at))
    signs_of = _solve_all(subproblems)
    best = None
    best_i = -1
    for i, at in runs:
        x1, x2 = ({} if j is None else signs_of[j] for j in at)
        signs, value = combine_disjoint(G, x1, x2)
        sol = Assignment(tuple(signs[v] for v in range(G.n)), value)
        if best is None or sol.value > best.value:
            best, best_i = sol, i
    guarantee = Fraction(max(k - 6 * h, 0), k)
    cert = {
        "epsilon": eps,
        "k": k,
        "h": h,
        "partition_source": source,
        "chosen_part": best_i,
    }
    return ApproxResult(best, guarantee, cert)
