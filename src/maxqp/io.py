"""Text file formats: instances, assignments, partitions, decompositions.

Instance format: UTF-8, '#' comment lines, a header "p maxqp <n> <m>", then
m lines "e <u> <v> <w>" with 1-based vertex ids.  Unit weights are written
exactly as "1" / "-1" so unit instances round-trip bit-exactly.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import Assignment, WeightedGraph, load_graph
from .schemes import VertexPartition, load_partition
from .treewidth import TreeDecomposition


def _fmt_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return repr(w)


def parse_instance(text: str) -> WeightedGraph:
    n = None
    m = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header line", line=lineno)
            if len(fields) != 4 or fields[1] != "maxqp":
                raise ParseError("header must be 'p maxqp <n> <m>'", line=lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-integer header fields", line=lineno) from None
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before header", line=lineno)
            if len(fields) != 4:
                raise ParseError("edge line must be 'e <u> <v> <w>'", line=lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
                w = float(fields[3])
            except ValueError:
                raise ParseError("malformed edge entry", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n}", line=lineno)
            if u == v:
                raise ParseError("self-loop is not allowed", line=lineno)
            entries.append((u - 1, v - 1, w))
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing header line")
    if m is not None and len(entries) != m:
        raise ParseError(f"header declares {m} edges, found {len(entries)}")
    return load_graph(n, entries)


def read_instance(path: str) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def format_instance(G: WeightedGraph, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in comments or []]
    lines.append(f"p maxqp {G.n} {G.m}")
    for u, v, w in G.edges:
        lines.append(f"e {u + 1} {v + 1} {_fmt_weight(w)}")
    return "\n".join(lines) + "\n"


def write_instance(G: WeightedGraph, path: str, comments=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(G, comments))


def parse_assignment(text: str, n: int) -> list[int]:
    tokens = text.split()
    if len(tokens) != n:
        raise ParseError(f"expected {n} signs, found {len(tokens)}")
    values = []
    for t in tokens:
        if t in ("+1", "1"):
            values.append(1)
        elif t == "-1":
            values.append(-1)
        else:
            raise ParseError(f"assignment token must be +1 or -1, got {t!r}")
    return values


def read_assignment(path: str, n: int) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        return parse_assignment(fh.read(), n)


def format_assignment(x: Assignment) -> str:
    return " ".join("+1" if s == 1 else "-1" for s in x.values) + "\n"


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
