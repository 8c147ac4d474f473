"""Layering- and partition-based (1 - eps)-approximation schemes, and the
text format of externally supplied partitions.

Both schemes delete a small residue class of the instance, solve the
remainder exactly with the treewidth engine, and lift the solution back.
A partition is one int64 array, each vertex's part index (`VertexPartition`
for a given one, `layer_residues` for the default), and a class or part is a
mask over G's ids.  A subproblem's solution is lifted as a partial
assignment: n signs, 0 off the subproblem, glued by `glue_blocks`.  Neither
scheme verifies minor-freeness; they verify the consequence they actually
need (the achieved decomposition widths) and fail loudly otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .graph import (
    ApproxResult,
    WeightedGraph,
    bfs_sweep,
    csr,
    extend_from_induced,
    glue_blocks,
    induced_subgraph,
)
from .io import records
from .treewidth import DEFAULT_WIDTH_CAP, build_decomposition, check_dp_width, solve_treewidths


def bfs_layers(G: WeightedGraph) -> np.ndarray:
    """Exact BFS distance layers: the layer index of each vertex, as int64.

    One `bfs_sweep` over `csr(G)` per component, from each vertex not yet
    reached in increasing id order.  The layer indices of all components are
    shared.
    """
    start, nbr = csr(G)
    nbl, start = nbr.tolist(), start.tolist()
    seen = bytearray(G.n)
    layer_of = [0] * G.n
    for s in range(G.n):
        if not seen[s]:
            for d, layer in enumerate(bfs_sweep(nbl, start, s, seen)):
                for v in layer:
                    layer_of[v] = d
    return np.array(layer_of, dtype=np.int64)


def layer_residues(G: WeightedGraph, k: int) -> tuple[np.ndarray, int]:
    """Each vertex's BFS layer index mod k, and the number of classes to solve.

    With L layers that number is min(k, L + 1): classes 0..min(k, L)-1, plus
    class L, empty, when k > L.  Every class from L on is empty, so that one
    stands for all of them.  Every layer index is below that number, so
    reducing mod it equals reducing mod k, however large k is.
    """
    layer_of = bfs_layers(G)
    classes = min(k, int(layer_of.max(initial=-1)) + 2)
    return layer_of % classes, classes


def _decompose_induced(G, mask, width_cap, label):
    """G[mask], its decomposition and its ids in G as an int64 array, or a
    CapacityError that names the subproblem."""
    sub, old_of = induced_subgraph(G, np.flatnonzero(mask))
    try:
        td = build_decomposition(sub, width_cap)
        check_dp_width(td)
    except CapacityError as e:
        raise CapacityError(
            f"width cap exceeded while solving {label} (bag of width {e.achieved})",
            achieved=e.achieved,
        ) from e
    return sub, td, old_of


def _solve_all(subproblems) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact signs of every decomposed subproblem, from one DP run: each
    subproblem's ids in G and its signs, int64 and int8 arrays."""
    sols = solve_treewidths([(sub, td) for sub, td, _ in subproblems])
    return [(old_of, a.values) for (_, _, old_of), a in zip(subproblems, sols)]


def _lift(n: int, solved) -> np.ndarray:
    """The partial assignment on G's n ids made of the solved subproblems, 0 off them."""
    x = np.zeros(n, dtype=np.int8)
    for old_of, signs in solved:
        x[old_of] = signs
    return x


def _class_count(numerator: int, eps: float) -> int:
    """k = ceil(numerator / eps); an eps so small that the quotient is no
    finite float is refused."""
    quotient = numerator / eps
    if not math.isfinite(quotient):
        raise ValidationError(f"epsilon {eps!r} is too small: {numerator}/epsilon is not finite")
    return math.ceil(quotient)


def solve_baker(
    G: WeightedGraph, eps: float, width_cap: int = DEFAULT_WIDTH_CAP
) -> ApproxResult:
    """Layering scheme: delete one residue class mod k, solve the rest exactly.

    k is the smallest integer with 4/k <= eps; an eps outside (0, 1], or so
    small that 4/eps overflows, raises ValidationError.  Returns the best of the k
    lifted solutions; value >= (1 - eps) * opt on instances where every
    remainder fits the width cap.  Every remainder is decomposed before any
    is solved, so a remainder over the cap is refused before any DP table.
    """
    if not 0 < eps <= 1:
        raise ValidationError("epsilon must be in (0, 1]")
    k = _class_count(4, eps)
    residue, classes = layer_residues(G, k)
    # the classes past the last one solved are empty, like the last: the first wins ties
    subproblems = [
        _decompose_induced(G, residue != i, width_cap, f"G_{i}") for i in range(classes)
    ]
    best = None
    best_i = -1
    for i, solved in enumerate(_solve_all(subproblems)):
        sol = extend_from_induced(G, _lift(G.n, [solved]))
        if best is None or sol.value > best.value:
            best, best_i = sol, i
    guarantee = Fraction(max(k - 4, 0), k)
    cert = {"epsilon": eps, "k": k, "chosen_class": best_i}
    return ApproxResult(best, guarantee, cert)


@dataclass(frozen=True, eq=False)
class VertexPartition:
    """A partition of the vertices into k parts, some possibly empty:
    `part_of[v]` is v's part, kept as a checked read-only int64 copy."""

    part_of: np.ndarray
    k: int

    def __post_init__(self):
        p = np.asarray(self.part_of)
        if p.ndim != 1 or p.dtype.kind not in "iu" or self.k < 1 or ((p < 0) | (p >= self.k)).any():
            raise ValidationError("partition needs k >= 1 and one integer vector of parts in 0..k-1")
        p = p.astype(np.int64)
        p.flags.writeable = False
        object.__setattr__(self, "part_of", p)


def parse_partition(text: str, n: int) -> VertexPartition:
    """One part per line as 1-based vertex ids, numbered in file order; blank
    and `#` lines are skipped.  The parts must cover the n vertices once each."""
    ids, part_at = [], []
    k = 0
    for lineno, fields in records(text.splitlines()):
        try:
            vs = [int(t) for t in fields]
        except ValueError:
            raise ParseError("partition line must be vertex ids", line=lineno) from None
        if any(not 1 <= v <= n for v in vs):
            raise ParseError(f"vertex id out of range 1..{n}", line=lineno)
        vs.sort()
        twice = next((v for v, u in zip(vs, vs[1:]) if v == u), None)
        if twice is not None:
            raise ParseError(f"part lists vertex {twice} twice", line=lineno)
        ids += vs
        part_at += [k] * len(vs)
        k += 1
    at = np.array(ids, dtype=np.int64) - 1
    count = np.bincount(at, minlength=n)
    if (count > 1).any():
        raise ValidationError("partition parts overlap")
    if (count == 0).any():
        raise ValidationError("partition does not cover every vertex")
    if not k:
        raise ValidationError("partition must have at least one part")
    part_of = np.empty(n, dtype=np.int64)
    part_of[at] = part_at
    return VertexPartition(part_of, k)


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
    with `glue_blocks`, G[V \\ V_i] as block 0 and G[V_i] as block 1; the
    best of the k results is returned.  A given partition must cover exactly
    G's vertices.  With h = max(1, ceil(m/n)) witnessing the instance's edge
    density (h = 1 when n = 0), the default k = ceil(6h/eps) makes the best solution
    (1 - eps)-approximate whenever every subproblem fits the width cap; an
    eps so small that 6h/eps overflows raises ValidationError.
    """
    if not G.unit:
        raise ValidationError("partition scheme requires unit weights")
    if not 0 < eps <= 1:
        raise ValidationError("epsilon must be in (0, 1]")
    if partition is not None and len(partition.part_of) != G.n:
        raise ValidationError(f"partition does not cover exactly the {G.n} vertices of G")
    h = max(1, math.ceil(G.m / G.n)) if G.n else 1
    if partition is None:
        # the residue classes mod k of the BFS layers: the parts past the
        # last class solved are empty, like that class
        k = _class_count(6 * h, eps)
        part_of, count = layer_residues(G, k)
    else:
        part_of, k = partition.part_of, partition.k
        # the parts past the last one used are empty, like the first of them
        count = min(k, int(part_of.max(initial=-1)) + 2)
    empty = np.bincount(part_of, minlength=count) == 0
    empty[np.argmax(empty)] = False  # the first empty part stands for all: it wins ties
    # per part solved: its index and the subproblem indices of G[V_i] and G[V \ V_i]
    runs, subproblems = [], []
    for i in np.flatnonzero(~empty).tolist():
        in_part = part_of == i
        at = []
        for mask, label in ((in_part, f"G[V_{i}]"), (~in_part, f"G[V \\ V_{i}]")):
            if mask.any():
                at.append(len(subproblems))
                subproblems.append(_decompose_induced(G, mask, width_cap, label))
        runs.append((i, at))
    solved = _solve_all(subproblems)
    best = None
    best_i = -1
    for i, at in runs:
        # G[V \ V_i] is block 0, and G[V_i], block 1, flips when its edges to it sum below 0
        sol = glue_blocks(G, part_of == i, _lift(G.n, [solved[j] for j in at]))
        if best is None or sol.value > best.value:
            best, best_i = sol, i
    guarantee = Fraction(max(k - 6 * h, 0), k)
    cert = {
        "epsilon": eps,
        "k": k,
        "h": h,
        "partition_source": "bfs-layer-heuristic" if partition is None else "external-file",
        "chosen_part": best_i,
    }
    return ApproxResult(best, guarantee, cert)
