"""Command line surface: solve, gen, eval, bench.

Exit codes: 0 success, 2 validation error, 3 capacity error, 4 I/O error.
Solve reports are one machine-readable key=value record per line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import NamedTuple

from . import io as mio
from .errors import CapacityError, MaxQPError, ValidationError
from .graph import ApproxResult, WeightedGraph, evaluate
from .oracle import KIND_PARAMS, GeneratorSpec, brute_force, generate
from .packing import solve_bounded_degree, solve_degenerate, solve_dense
from .schemes import VertexPartition, read_partition, solve_baker, solve_partition_scheme
from .treewidth import (
    DEFAULT_WIDTH_CAP,
    read_decomposition,
    solve_exact,
    solve_treewidth,
)


class Options(NamedTuple):
    """What a solver may read besides the graph."""

    epsilon: float | None
    partition: VertexPartition | None
    width_cap: int

    def epsilon_for(self, algo: str) -> float:
        if self.epsilon is None:
            raise ValidationError(f"{algo} requires --epsilon")
        return self.epsilon


def _epsilon(epsilon: float | None) -> float | None:
    """epsilon, refused outside (0, 1] before any solver runs, so that the
    refusal does not depend on which solver answers."""
    if epsilon is not None and not 0 < epsilon <= 1:
        raise ValidationError(f"epsilon must be in (0, 1], got {epsilon!r}")
    return epsilon


# The one list of solvers.  Each entry looks its solver up by module-level
# name when it is called, so a rebound name (as in a traced run) is the one
# that runs.
SOLVERS = {
    "greedy-matching": lambda G, o: solve_bounded_degree(G),
    "easypack": lambda G, o: solve_degenerate(G),
    "star-pack": lambda G, o: solve_dense(G),
    "exact-tw": lambda G, o: solve_exact(G, o.width_cap),
    "baker": lambda G, o: solve_baker(G, o.epsilon_for("baker"), o.width_cap),
    "partition": lambda G, o: solve_partition_scheme(
        G, o.epsilon_for("partition"), o.partition, o.width_cap
    ),
    "brute-force": lambda G, o: ApproxResult(brute_force(G), Fraction(1)),
}
ALGOS = ("auto", *SOLVERS)


def _solve(G: WeightedGraph, algo: str, opts: Options) -> tuple[str, ApproxResult]:
    """Run `algo`; returns the name of the solver that answered and its result.

    `auto` tries exact-tw, then baker if an epsilon is given, and answers with
    greedy-matching when a capacity error (the width cap, or the DP's width
    limit) refuses both.
    """
    if algo != "auto":
        return algo, SOLVERS[algo](G, opts)
    tries = ("exact-tw", "baker") if opts.epsilon is not None else ("exact-tw",)
    for name in tries:
        try:
            return name, SOLVERS[name](G, opts)
        except CapacityError:
            pass
    return "greedy-matching", SOLVERS["greedy-matching"](G, opts)


def _record(instance: str, G: WeightedGraph, algo: str, r: ApproxResult,
            ov: float | None, millis: float, timing: bool) -> dict:
    """The report of one solve: the `solve` record, whose fields in `COLUMNS`
    are a `bench` row.  `ov` is the oracle's value, None without an oracle;
    the ratio is 1.0 when it is 0.  `millis` is reported only with `timing`,
    so that reports are byte-reproducible."""
    record = {
        "instance": instance,
        "n": G.n,
        "m": G.m,
        "algo": algo,
        **r.certificate,
        "value": mio.format_number(r.value),
        "guarantee": str(r.guarantee),
    }
    if ov is not None:
        record["oracle"] = mio.format_number(ov)
        record["ratio"] = repr(r.value / ov) if ov else "1.0"
    record["millis"] = f"{millis:.3f}" if timing else "0"
    return record


def cmd_solve(args) -> int:
    if args.width_cap < 0:
        raise ValidationError(f"--width-cap must be nonnegative, got {args.width_cap}")
    epsilon = _epsilon(args.epsilon)
    G = mio.read_instance(args.instance)
    t0 = time.perf_counter()
    partition = None
    if args.partition:
        if args.algo != "partition":
            raise ValidationError("--partition only applies to partition")
        partition = read_partition(args.partition, G.n)
    opts = Options(epsilon, partition, args.width_cap)
    if args.decomposition:
        if args.algo not in ("exact-tw", "auto"):
            raise ValidationError("--decomposition only applies to exact-tw")
        td = read_decomposition(args.decomposition, G.n)
        sol = solve_treewidth(G, td, args.width_cap)  # checks validity, then the cap
        algo, r = "exact-tw", ApproxResult(sol, Fraction(1), {"width": td.width})
    else:
        algo, r = _solve(G, args.algo, opts)
    millis = (time.perf_counter() - t0) * 1000.0
    ov = SOLVERS[args.oracle](G, opts).value if args.oracle else None
    record = _record(args.instance, G, algo, r, ov, millis, args.timing)
    print(" ".join(f"{k}={v}" for k, v in record.items()))
    if args.emit_assignment:
        sys.stdout.write(mio.format_assignment(r.assignment))
    return 0


# gen's parameter flags: every parameter some kind reads, once each
GEN_PARAMS = tuple(dict.fromkeys(key for keys in KIND_PARAMS.values() for key in keys))


def cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in GEN_PARAMS if getattr(args, key) is not None}
    spec = GeneratorSpec(kind=args.kind, seed=args.seed, params=params)
    G = generate(spec)
    comment = "gen " + json.dumps(
        {"kind": spec.kind, "seed": spec.seed, **spec.params}, sort_keys=True
    )
    if args.out:
        mio.write_instance(G, args.out, [comment])
    else:
        sys.stdout.write(mio.format_instance(G, [comment]))
    return 0


def cmd_eval(args) -> int:
    G = mio.read_instance(args.instance)
    values = mio.read_assignment(args.assignment, G.n)
    print(mio.format_number(evaluate(G, values)))
    return 0


def _bench_cell(cell: dict) -> list[dict]:
    opts = Options(_epsilon(cell.get("epsilon")), None, cell.get("width_cap", DEFAULT_WIDTH_CAP))
    spec = GeneratorSpec(
        kind=cell["gen"]["kind"],
        seed=cell["gen"].get("seed", 0),
        params={k: v for k, v in cell["gen"].items() if k not in ("kind", "seed")},
    )
    G = generate(spec)
    instance = f"{spec.kind}-seed{spec.seed}"
    oracle = cell.get("oracle")
    ov = SOLVERS[oracle](G, opts).value if oracle else None
    rows = []
    for algo in cell["algos"]:
        t0 = time.perf_counter()
        _, r = _solve(G, algo, opts)
        millis = (time.perf_counter() - t0) * 1000.0
        rows.append(_record(instance, G, algo, r, ov, millis, cell.get("timing", False)))
    return rows


COLUMNS = ["instance", "algo", "n", "m", "value", "oracle", "ratio", "guarantee", "millis"]


def _read_suite(path: str) -> list[dict]:
    """Cells of a bench suite file; a malformed suite is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            suite = json.load(fh)
        except ValueError as e:
            raise ValidationError(f"suite is not valid JSON: {e}") from e
    cells = suite.get("cells") if isinstance(suite, dict) else None
    if not isinstance(cells, list):
        raise ValidationError("suite must be a JSON object with a list of cells")
    for i, cell in enumerate(cells):
        if not (isinstance(cell, dict) and isinstance(cell.get("gen"), dict)):
            raise ValidationError(f"suite cell {i} has no gen object")
        if "kind" not in cell["gen"]:
            raise ValidationError(f"suite cell {i} has no gen kind")
        if not isinstance(cell.get("algos"), list):
            raise ValidationError(f"suite cell {i} has no list of algos")
        ints = (cell["gen"].get("seed", 0), cell.get("width_cap", 0))
        if any(type(v) is not int for v in ints):
            raise ValidationError(f"suite cell {i}: seed and width_cap must be integers")
        if cell.get("width_cap", 0) < 0:
            raise ValidationError(f"suite cell {i}: width_cap must be nonnegative")
        if type(cell.get("epsilon")) not in (int, float, type(None)):
            raise ValidationError(f"suite cell {i}: epsilon must be a number or null")
        if any(a not in ALGOS for a in cell["algos"]):
            raise ValidationError(f"suite cell {i}: algos must be among {', '.join(ALGOS)}")
        if cell.get("oracle") and cell["oracle"] not in tuple(SOLVERS):
            raise ValidationError(f"suite cell {i}: oracle must be one of {', '.join(SOLVERS)}")
    return cells


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    cells = _read_suite(args.suite)
    # a fork pool starts all its workers at the first submit: no more than cells
    jobs = min(args.jobs, len(cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bench_cell, cells))
    else:
        results = [_bench_cell(c) for c in cells]
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r["instance"], r["algo"]))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(
            out, fieldnames=COLUMNS, restval="", extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: every parser is a cycle of about 250 objects
    # that only the garbage collector frees.
    parser = argparse.ArgumentParser(
        prog="maxqp", description="Combinatorial MaxQP solver toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--algo", choices=ALGOS, default="auto")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--oracle", choices=tuple(SOLVERS), default=None)
    p.add_argument("--partition", default=None, help="partition file for --algo partition")
    p.add_argument(
        "--decomposition", default=None, help="externally computed tree decomposition file"
    )
    p.add_argument("--width-cap", type=int, default=DEFAULT_WIDTH_CAP)
    p.add_argument("--emit-assignment", action="store_true")
    p.add_argument(
        "--timing", action="store_true", help="report wall time (off by default so reports are byte-reproducible)"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a reproducible instance")
    p.add_argument("--kind", required=True, choices=tuple(KIND_PARAMS))
    p.add_argument("--seed", type=int, default=0)
    for key in GEN_PARAMS:  # each None unless given
        if key == "real":
            p.add_argument(
                "--real", action="store_const", const=True, help="uniform real weights, not +-1"
            )
        else:
            p.add_argument(f"--{key}", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="evaluate an assignment file on an instance")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("suite")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MaxQPError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, CapacityError):
            return 3
        return 4 if isinstance(e, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
