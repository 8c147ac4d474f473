"""Text file formats of instances and assignments.

Instance format: UTF-8, '#' comment lines, a header "p maxqp <n> <m>", then
m lines "e <u> <v> <w>" with 1-based vertex ids.  Unit weights are written
exactly as "1" / "-1" so unit instances round-trip bit-exactly.  Instances
are written, and canonical instance text and assignments are split into
tokens, a block at a time, so no list of every token or line of a large file
is held at once.  This module knows only the graph core; the partition and
tree-decomposition formats are read by :mod:`maxqp.schemes` and
:mod:`maxqp.treewidth`.
"""

from __future__ import annotations

import re
from itertools import repeat

import numpy as np

from .errors import ParseError
from .graph import MAX_VERTICES, ROW_BLOCK, Assignment, WeightedGraph, merge_columns

TEXT_BLOCK = 1 << 16  # characters of text split into tokens at a time by the readers


def format_number(x: float) -> str:
    """An integral float as an integer ("1", "-1"), any other float by repr."""
    if x == int(x):
        return str(int(x))
    return repr(x)


# Line boundaries of str.splitlines() in ASCII text, other than "\n".
_OTHER_LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_LINE_END = re.compile("\n")
_SPACE = re.compile(r"\s")  # the characters str.split() splits at


def _blocks(text: str, start: int, end: re.Pattern):
    """text[start:] in pieces of at least TEXT_BLOCK characters, but the last,
    each cut just after the first match of `end` that makes it long enough."""
    while start < len(text):
        found = end.search(text, start + TEXT_BLOCK - 1)
        stop = found.end() if found else len(text)
        yield text[start:stop]
        start = stop


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
    line.  The whole text is checked for that shape: m + 1 newlines after
    the comments, of which m start "e ", and a final one.  The edge lines are
    then split `TEXT_BLOCK` characters at a time, each block cut just after a
    newline, so only one block's tokens are held at once.  A block of k lines
    with 4k tokens and "e" at every fourth holds exactly four fields a line,
    so the line path would read the same entries.  u and v convert as
    `int()` does (an overflow falls back) and w by `float()`, into columns
    allocated up front.
    """
    if not text.isascii() or any(c in text for c in _OTHER_LINE_BREAKS):
        return None
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    body = text.find("\n", start) + 1  # the first edge line; 0 if there is none
    head = text[start:body].split()
    if len(head) != 4 or head[0] != "p" or head[1] != "maxqp":
        return None
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        return None
    if (
        not 0 <= n <= MAX_VERTICES
        or not text.endswith("\n")
        or text.count("\n", start) != m + 1
        or text.count("\ne ", start) != m
    ):
        return None
    u, v = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    w = np.empty(m, dtype=np.float64)
    a = 0
    for block in _blocks(text, body, _LINE_END):
        tokens = block.split()
        b = a + block.count("\n")
        if len(tokens) != 4 * (b - a) or tokens[::4].count("e") != b - a:
            return None
        try:
            u[a:b] = np.array(tokens[1::4], dtype=np.int64)
            v[a:b] = np.array(tokens[2::4], dtype=np.int64)
            w[a:b] = np.fromiter(map(float, tokens[3::4]), dtype=np.float64, count=b - a)
        except (ValueError, OverflowError):
            return None
        a = b
    if a != m or ((u < 1) | (u > n) | (v < 1) | (v > n) | (u == v)).any():
        return None
    u -= 1
    v -= 1
    return n, u, v, w


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


def _instance_blocks(G: WeightedGraph, comments: list[str] | None):
    """The text of `format_instance` in blocks of ROW_BLOCK edge lines, the
    comments and the header in the first."""
    eu, ev, ew = G.edge_arrays()
    lines = [f"# {c}\n" for c in comments or []] + [f"p maxqp {G.n} {G.m}\n"]
    for a in range(0, G.m, ROW_BLOCK):
        b = a + ROW_BLOCK
        us, vs = (eu[a:b] + 1).tolist(), (ev[a:b] + 1).tolist()
        lines += [f"e {u} {v} {w}\n" for u, v, w in zip(us, vs, _number_words(ew[a:b]))]
        yield "".join(lines)
        lines = []
    if lines:  # no edge lines: the header alone
        yield "".join(lines)


def format_instance(G: WeightedGraph, comments: list[str] | None = None) -> str:
    return "".join(_instance_blocks(G, comments))


def write_instance(G: WeightedGraph, path: str, comments=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_instance_blocks(G, comments))


_SIGNS = {"+1": 1, "1": 1, "-1": -1}


def parse_assignment(text: str, n: int) -> np.ndarray:
    """The n signs of an assignment text ("+1" or "1", and "-1") as int8.

    The text is split TEXT_BLOCK characters at a time, each block cut at
    whitespace; a wrong token count is reported before the first bad token.
    """
    parts, bad = [np.empty(0, dtype=np.int8)], None
    for block in _blocks(text, 0, _SPACE):
        tokens = block.split()
        signs = np.fromiter(map(_SIGNS.get, tokens, repeat(0)), dtype=np.int8, count=len(tokens))
        if bad is None and not signs.all():
            bad = tokens[int(np.argmax(signs == 0))]
        parts.append(signs)
    x = np.concatenate(parts)
    if len(x) != n:
        raise ParseError(f"expected {n} signs, found {len(x)}")
    if bad is not None:
        raise ParseError(f"assignment token must be +1 or -1, got {bad!r}")
    return x


def read_assignment(path: str, n: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return parse_assignment(fh.read(), n)


def format_assignment(x: Assignment) -> str:
    # each sign as three ASCII bytes "+1 " or "-1 ": the line, but its last space
    return np.where(x.values == 1, b"+1 ", b"-1 ").tobytes().decode()[:-1] + "\n"
