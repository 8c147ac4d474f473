"""Text file formats of instances and assignments.

Instance format: UTF-8, '#' comment lines, a header "p maxqp <n> <m>", then
m lines "e <u> <v> <w>" with 1-based vertex ids.  Unit weights are written
exactly as "1" / "-1" so unit instances round-trip bit-exactly.  This module
knows only the graph core; the partition and tree-decomposition formats are
read by :mod:`maxqp.schemes` and :mod:`maxqp.treewidth`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .graph import MAX_VERTICES, Assignment, WeightedGraph, merge_columns


def format_number(x: float) -> str:
    """An integral float as an integer ("1", "-1"), any other float by repr."""
    if x == int(x):
        return str(int(x))
    return repr(x)


# Line boundaries of str.splitlines() in ASCII text, other than "\n".
_OTHER_LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def parse_instance(text: str) -> WeightedGraph:
    """Parse an instance: canonical text by columns, anything else by lines.

    Both paths end in the same merge and give the same graph; any anomaly in
    a canonical-looking text sends it down the line path, which reports every
    error with its line number.
    """
    n, us, vs, ws = _canonical_columns(text) or _line_columns(text)
    return merge_columns(n, us, vs, ws)


def _canonical_columns(text: str):
    """(n, u, v, w) of text as `format_instance` writes it, or None when the
    text is not exactly that and valid.

    Canonical means ASCII, "#" comment lines only before the header, then a
    header line and m lines "e u v w", each line ended by "\n", no blank
    line.  One `split()` gives the tokens; the header's m, the token count and
    the "e" at every fourth token, with m + 1 newlines of which m start "e ",
    prove that every line holds exactly four fields, so the line path would
    read the same entries.  u and v convert as `int()` does (an overflow falls
    back) and w by `float()`.
    """
    if not text.isascii() or any(c in text for c in _OTHER_LINE_BREAKS):
        return None
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    body = text[start:]
    tokens = body.split()
    if len(tokens) < 4 or tokens[0] != "p" or tokens[1] != "maxqp":
        return None
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except ValueError:
        return None
    if (
        not 0 <= n <= MAX_VERTICES
        or len(tokens) != 4 * m + 4
        or tokens[4::4].count("e") != m
        or not body.endswith("\n")
        or body.count("\n") != m + 1
        or body.count("\ne ") != m
    ):
        return None
    try:
        u = np.array(tokens[5::4], dtype=np.int64)
        v = np.array(tokens[6::4], dtype=np.int64)
        w = list(map(float, tokens[7::4]))
    except (ValueError, OverflowError):
        return None
    if ((u < 1) | (u > n) | (v < 1) | (v > n) | (u == v)).any():
        return None
    return n, u - 1, v - 1, w


def _line_columns(text: str):
    """(n, u, v, w) of any instance text, line by line; raises `ParseError`
    with the line number of the first malformed line."""
    n = None
    m = None
    us, vs, ws = [], [], []
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
            us.append(u - 1)
            vs.append(v - 1)
            ws.append(w)
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing header line")
    if m is not None and len(ws) != m:
        raise ParseError(f"header declares {m} edges, found {len(ws)}")
    return n, us, vs, ws


def read_instance(path: str) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _number_words(x: np.ndarray) -> list[str]:
    """`format_number` of each float: the integral ones below 2^63 as int64
    in numpy, the rest one at a time."""
    small = (x == np.trunc(x)) & (np.abs(x) < 2.0**63)
    words = np.empty(len(x), dtype=object)
    words[small] = list(map(str, x[small].astype(np.int64).tolist()))
    words[~small] = list(map(format_number, x[~small].tolist()))
    return words.tolist()


def format_instance(G: WeightedGraph, comments: list[str] | None = None) -> str:
    eu, ev, ew = G.edge_arrays()
    lines = [f"# {c}\n" for c in comments or []]
    lines.append(f"p maxqp {G.n} {G.m}\n")
    lines += [
        f"e {u} {v} {w}\n"
        for u, v, w in zip((eu + 1).tolist(), (ev + 1).tolist(), _number_words(ew))
    ]
    return "".join(lines)


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
