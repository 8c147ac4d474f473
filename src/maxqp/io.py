"""Text file formats of instances and assignments.

Instance format: UTF-8, '#' comment lines, a header "p maxqp <n> <m>", then
m lines "e <u> <v> <w>" with 1-based vertex ids.  Unit weights are written
exactly as "1" / "-1" so unit instances round-trip bit-exactly.  Instances
are written and read, and assignments split into tokens, a block at a time,
so no list of every token or line of a large file is held at once; a block
of edge lines is read by numpy's C text reader, with the line rules as its
fallback.
`records` is the one rule of the line-based formats: blank and '#' lines are
skipped, any other line is split into fields.  This module knows only the
graph core; the partition and tree-decomposition formats are read by
:mod:`maxqp.schemes` and :mod:`maxqp.treewidth`.
"""

from __future__ import annotations

import re
from itertools import repeat

import numpy as np

from .errors import ParseError
from .graph import MAX_VERTICES, ROW_BLOCK, Assignment, WeightedGraph, merge_columns

TEXT_BLOCK = 1 << 16  # characters of text the readers take at a time: one block of lines or tokens


def format_number(x: float) -> str:
    """An integral float as an integer ("1", "-1"), any other float by repr."""
    if x == int(x):
        return str(int(x))
    return repr(x)


# Line boundaries of str.splitlines() in ASCII text, other than "\n" and "\r".
_OTHER_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_SPACE = re.compile(r"\s")  # the characters str.split() splits at
_EDGE_ROW = [("e", "U1"), ("u", np.int64), ("v", np.int64), ("w", np.float64)]


def _blocks(text: str, end: re.Pattern):
    """text in pieces of at least TEXT_BLOCK characters, but the last,
    each cut just after the first match of `end` that makes it long enough."""
    start = 0
    while start < len(text):
        found = end.search(text, start + TEXT_BLOCK - 1)
        stop = found.end() if found else len(text)
        yield text[start:stop]
        start = stop


def records(lines, lineno: int = 0):
    """(line number, fields) of each line that is neither blank nor a '#'
    comment, the lines numbered on from lineno + 1."""
    for lineno, line in enumerate(lines, start=lineno + 1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def parse_instance(text: str) -> WeightedGraph:
    """Parse an instance, a block of lines at a time.

    The lines up to the header are read one "\\n"-line at a time, the rest in
    blocks of at least TEXT_BLOCK characters, each cut just after a "\\n".  A
    block of lines that are all "e u v w" is read by columns; any other block
    by the line rules, which report every error with its line number.
    """
    return merge_columns(*_columns(text))


def _columns(text: str):
    """(n, u, v, w) of an instance text, ids 0-based; a function of its own
    so that the last block and the per-block columns are freed before the merge."""
    n = m = None
    lineno = start = 0
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    while start < len(text):
        stop = text.find("\n", start if n is None else start + TEXT_BLOCK - 1) + 1 or len(text)
        block = text[start:stop]
        part = None if n is None else _edge_columns(block, n)
        if part is None:
            lines = block.splitlines()
            n, m, part = _line_rules(lines, lineno, n, m)
            lineno += len(lines)
        else:
            lineno += len(part[2])
        parts.append(part)
        start = stop
    if n is None:
        raise ParseError("missing header line")
    u, v, w = (np.concatenate(column) for column in zip(*parts))
    if len(w) != m:
        raise ParseError(f"header declares {m} edges, found {len(w)}")
    return n, u, v, w


def _edge_columns(block: str, n: int):
    """(u, v, w) of a block of lines that each are "e u v w" with ids in 1..n
    and no self-loop, ids 0-based, or None when the block is anything else.

    The block is ASCII, its k lines end in "\\n" or "\\r\\n" and start "e ".
    numpy's C text reader then reads the k lines as the four columns of
    `_EDGE_ROW`, with no comment character.  It refuses a line of any other
    field count (so no `usecols`), an id outside int64 and every token that
    `int()` or `float()` refuses; the few it refuses that they take (an
    underscore, say) send the block to the line rules, so its result is theirs.
    """
    k = block.count("\n")
    if not (block.isascii() and block.startswith("e ") and block.endswith("\n")):
        return None
    if block.count("\ne ") != k - 1 or any(c in block for c in _OTHER_LINE_BREAKS):
        return None
    if "\r" in block and block.count("\r") != block.count("\r\n"):
        return None
    try:
        rows = np.loadtxt(block.splitlines(), dtype=_EDGE_ROW, comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    # w copied, so that the 28-byte rows are freed here, not at the merge
    u, v, w = rows["u"], rows["v"], rows["w"].copy()
    if len(rows) != k or ((u < 1) | (u > n) | (v < 1) | (v > n) | (u == v)).any():
        return None
    return u - 1, v - 1, w


def _line_rules(lines: list[str], lineno: int, n, m):
    """Read lines numbered on from lineno + 1 by the instance line rules,
    given the header's (n, m) so far: (n, m, (u, v, w)), or `ParseError`
    with the number of the first malformed line."""
    us, vs, ws = [], [], []
    for lineno, fields in records(lines, lineno):
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
    ids = np.int64 if n is None or n <= MAX_VERTICES else object  # ids past int64 stay exact
    return n, m, (np.array(us, dtype=ids), np.array(vs, dtype=ids), np.array(ws, dtype=np.float64))


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
    for block in _blocks(text, _SPACE):
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
