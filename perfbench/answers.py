"""Answer checks that do not trust the solver.

Everything here is computed from the instance file alone, with numpy and
none of maxqp: the parser, the evaluator, the optima (exhaustive enumeration
for small n, a row-profile dynamic program for grids) and the recomputed
approximation guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Largest n solved by enumeration, and widest grid profile solved exactly.
ENUM_MAX_N = 22
PROFILE_MAX_WIDTH = 16
# Relative tolerance; the absolute one is REL_TOL * max(1, sum |w|).
REL_TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    """Instance as 0-based edge columns u < v with weights w."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def abs_weight(self) -> float:
        return float(np.abs(self.w).sum())

    @property
    def tol(self) -> float:
        return REL_TOL * max(1.0, self.abs_weight)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.u, self.v]), minlength=self.n)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one solve call: 'answered', 'refused' or 'wrong'."""

    status: str
    value: float = 0.0
    detail: str = ""


def read_graph(path) -> Graph:
    """Parse the 'p maxqp n m' / 'e u v w' format written by the generator."""
    n = None
    us, vs, ws = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            f = line.split()
            if not f or f[0].startswith("#"):
                continue
            if f[0] == "p":
                n = int(f[2])
            elif f[0] == "e":
                u, v = int(f[1]) - 1, int(f[2]) - 1
                us.append(min(u, v))
                vs.append(max(u, v))
                ws.append(float(f[3]))
            else:
                raise ValueError(f"{path}: unexpected record {f[0]!r}")
    if n is None:
        raise ValueError(f"{path}: no header")
    return Graph(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws))


def evaluate(G: Graph, x: np.ndarray) -> float:
    """sum over edges of w_uv * x_u * x_v, for x in {-1, +1}^n."""
    return float(np.dot(G.w, x[G.u] * x[G.v]))


def enumerate_optimum(G: Graph, chunk: int = 1 << 14) -> float:
    """Optimum by enumerating the 2^(n-1) assignments with vertex 0 at +1."""
    if G.n > ENUM_MAX_N:
        raise ValueError(f"enumeration is capped at n <= {ENUM_MAX_N}")
    if G.n <= 1 or len(G.w) == 0:
        return 0.0
    bits = np.arange(G.n - 1, dtype=np.int64)
    best = -math.inf
    total = 1 << (G.n - 1)
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        x = np.ones((len(masks), G.n), dtype=np.float64)
        x[:, 1:] -= 2.0 * ((masks[:, None] >> bits) & 1)
        best = max(best, float(((x[:, G.u] * x[:, G.v]) @ G.w).max()))
    return best


def grid_optimum(G: Graph, rows: int, cols: int) -> float:
    """Optimum of a rows x cols grid instance (vertex r*cols + c).

    Broken-profile dynamic program over the shorter side: the state holds the
    sign of the latest cell of every column, and each cell is added with its
    left and upper edges.  2^min(rows, cols) states.
    """
    if G.n != rows * cols:
        raise ValueError("vertex count does not match the grid shape")
    left = np.zeros(G.n)
    up = np.zeros(G.n)
    for a, b, w in zip(G.u.tolist(), G.v.tolist(), G.w.tolist()):
        if b == a + 1 and b % cols:
            left[b] = w
        elif b == a + cols:
            up[b] = w
        else:
            raise ValueError(f"edge ({a}, {b}) is not a grid edge")
    left, up = left.reshape(rows, cols), up.reshape(rows, cols)
    if cols > rows:  # walk the transposed grid so the profile is the short side
        rows, cols, left, up = cols, rows, up.T.copy(), left.T.copy()
    if cols > PROFILE_MAX_WIDTH:
        raise ValueError(f"grid profile is capped at width {PROFILE_MAX_WIDTH}")
    states = np.arange(1 << cols, dtype=np.int64)
    sign = [1.0 - 2.0 * ((states >> c) & 1) for c in range(cols)]
    best = np.zeros(1 << cols)
    for r in range(rows):
        for c in range(cols):
            low = states[(states >> c) & 1 == 0]  # states with bit c clear
            high = low | (1 << c)
            # edge terms as a function of the old state, for new sign +1
            term = up[r, c] * sign[c]
            if c:
                term = term + left[r, c] * sign[c - 1]
            plus, minus = best + term, best - term
            nxt = np.empty_like(best)
            nxt[low] = np.maximum(plus[low], plus[high])
            nxt[high] = np.maximum(minus[low], minus[high])
            best = nxt
    return float(best.max())


def degeneracy(G: Graph) -> int:
    """Largest minimum degree met while peeling minimum-degree vertices."""
    deg = G.degrees().tolist()
    nbrs: list[list[int]] = [[] for _ in range(G.n)]
    for a, b in zip(G.u.tolist(), G.v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    buckets: list[set[int]] = [set() for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].add(v)
    removed = [False] * G.n
    result = cur = 0
    for _ in range(G.n):
        cur = max(cur - 1, 0)
        while not buckets[cur]:
            cur += 1
        v = buckets[cur].pop()
        removed[v] = True
        result = max(result, cur)
        for t in nbrs[v]:
            if not removed[t]:
                buckets[deg[t]].discard(t)
                deg[t] -= 1
                buckets[deg[t]].add(t)
    return result


def guarantee(algo: str, G: Graph, epsilon: float | None) -> Fraction:
    """Approximation factor of `algo`, recomputed from the instance."""
    if algo in ("exact-tw", "brute-force"):
        return Fraction(1)
    if algo == "greedy-matching":
        return Fraction(1, 2 * int(G.degrees().max()))
    if algo == "easypack":
        return Fraction(1, 2 * degeneracy(G))
    if algo == "star-pack":
        density = Fraction(len(G.w), int((G.degrees() > 0).sum()))
        return min(Fraction(1), 1 / (3 * density))
    if algo == "baker":
        k = math.ceil(4 / epsilon)
        return Fraction(k - 4, k)
    if algo == "partition":
        h = max(1, math.ceil(len(G.w) / G.n))
        k = math.ceil(6 * h / epsilon)
        return Fraction(max(k - 6 * h, 0), k)
    raise ValueError(f"no guarantee known for algorithm {algo!r}")


def parse_output(text: str, n: int) -> tuple[dict[str, str], np.ndarray]:
    """The key=value record line and the emitted assignment of a solve."""
    lines = text.splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected a record and an assignment, got {len(lines)} lines")
    record = dict(tok.split("=", 1) for tok in lines[0].split())
    tokens = lines[1].split()
    if len(tokens) != n or any(t not in ("+1", "-1") for t in tokens):
        raise ValueError("assignment is not n signs")
    return record, np.array([1.0 if t == "+1" else -1.0 for t in tokens])


def check(G: Graph, optimum: float | None, requested_algo: str,
          epsilon: float | None, rc: int | None, out: str) -> Verdict:
    """Verdict on one `solve --emit-assignment` call.

    Exit 3 with no output is a width-cap refusal.  An answer must evaluate to
    its reported value, must not exceed the optimum, and must reach the
    recomputed guarantee times the optimum (or times sum |w| >= optimum when
    the optimum is not computable here).  For `auto`, the guarantee is the one
    of the algorithm the record names.
    """
    if rc == 3 and not out:
        return Verdict("refused")
    if rc != 0:
        return Verdict("wrong", detail=f"exit code {rc}")
    try:
        record, x = parse_output(out, G.n)
        reported = float(record["value"])
        algo = record["algo"] if requested_algo == "auto" else requested_algo
        g = guarantee(algo, G, epsilon)
    except (KeyError, ValueError) as e:
        return Verdict("wrong", detail=f"unreadable output: {e}")
    value = evaluate(G, x)
    tol = G.tol
    if abs(value - reported) > tol:
        return Verdict("wrong", value, f"reported {reported} but assignment evaluates to {value}")
    if optimum is not None and value > optimum + tol:
        return Verdict("wrong", value, f"value {value} above the optimum {optimum}")
    if g == 1 and optimum is None:
        # an exact claim that cannot be checked here must still beat greedy
        g = guarantee("greedy-matching", G, None)
    reference = optimum if optimum is not None else G.abs_weight
    if value < float(g) * reference - tol:
        return Verdict("wrong", value, f"value {value} below {g} x {reference}")
    return Verdict("answered", value)
