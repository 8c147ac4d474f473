"""Text file formats of instances and assignments.

Instance format: UTF-8, '#' comment lines, a header "p maxqp <n> <m>", then
m lines "e <u> <v> <w>" with 1-based vertex ids.  Unit weights are written
exactly as "1" / "-1" so unit instances round-trip bit-exactly.  This module
knows only the graph core; the partition and tree-decomposition formats are
read by :mod:`maxqp.schemes` and :mod:`maxqp.treewidth`.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import Assignment, WeightedGraph, load_graph


def format_number(x: float) -> str:
    """An integral float as an integer ("1", "-1"), any other float by repr."""
    if x == int(x):
        return str(int(x))
    return repr(x)


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
        lines.append(f"e {u + 1} {v + 1} {format_number(w)}")
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
