"""Command line surface: solve, gen, eval, bench.

Exit codes: 0 success, 2 validation error, 3 capacity error, 4 I/O error.
Solve reports are one machine-readable key=value record per line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import io as mio
from .errors import CapacityError, MaxQPError, ParseError, ValidationError
from .graph import Assignment, WeightedGraph, evaluate
from .oracle import GeneratorSpec, brute_force, generate
from .packing import solve_bounded_degree, solve_degenerate, solve_dense
from .schemes import solve_baker, solve_partition_scheme
from .treewidth import (
    DEFAULT_WIDTH_CAP,
    solve_exact,
    solve_treewidth,
    to_nice,
    validate_decomposition,
)

ALGOS = (
    "auto",
    "greedy-matching",
    "easypack",
    "star-pack",
    "exact-tw",
    "baker",
    "partition",
    "brute-force",
)


def _fmt_value(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


def _run_algo(
    G: WeightedGraph,
    algo: str,
    epsilon: float | None,
    partition=None,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> tuple[Assignment, Fraction | None, dict]:
    """Dispatch one solver; returns (assignment, guarantee, extras)."""
    if algo == "auto":
        try:
            sol, width = solve_exact(G, width_cap)
            return sol, Fraction(1), {"algo": "exact-tw", "width": width}
        except CapacityError:
            if epsilon is not None:
                algo = "baker"
            else:
                algo = "greedy-matching"
    if algo == "greedy-matching":
        r = solve_bounded_degree(G)
        return r.assignment, r.guarantee, {"algo": algo, **r.certificate}
    if algo == "easypack":
        r = solve_degenerate(G)
        return r.assignment, r.guarantee, {"algo": algo, **r.certificate}
    if algo == "star-pack":
        r = solve_dense(G)
        return r.assignment, r.guarantee, {"algo": algo, **r.certificate}
    if algo == "exact-tw":
        sol, width = solve_exact(G, width_cap)
        return sol, Fraction(1), {"algo": algo, "width": width}
    if algo == "baker":
        if epsilon is None:
            raise ValidationError("baker requires --epsilon")
        r = solve_baker(G, epsilon, width_cap)
        return r.assignment, r.guarantee, {"algo": algo, **r.certificate}
    if algo == "partition":
        if epsilon is None:
            raise ValidationError("partition requires --epsilon")
        r = solve_partition_scheme(G, epsilon, partition, width_cap)
        return r.assignment, r.guarantee, {"algo": algo, **r.certificate}
    if algo == "brute-force":
        sol = brute_force(G)
        return sol, Fraction(1), {"algo": algo}
    raise ValidationError(f"unknown algorithm {algo!r}")


def _oracle_value(G: WeightedGraph, name: str, width_cap: int) -> float:
    if name == "brute-force":
        return brute_force(G).value
    if name == "exact-tw":
        sol, _ = solve_exact(G, width_cap)
        return sol.value
    raise ValidationError(f"unknown oracle {name!r}")


def cmd_solve(args) -> int:
    G = mio.read_instance(args.instance)
    t0 = time.perf_counter()
    partition = None
    if args.partition:
        partition = mio.read_partition(args.partition, G.n)
    if args.decomposition:
        if args.algo not in ("exact-tw", "auto"):
            raise ValidationError("--decomposition only applies to exact-tw")
        td = mio.read_decomposition(args.decomposition)
        validate_decomposition(G, td)
        sol = solve_treewidth(G, to_nice(td))
        guarantee = Fraction(1)
        extras = {"algo": "exact-tw", "width": td.width}
    else:
        sol, guarantee, extras = _run_algo(
            G, args.algo, args.epsilon, partition, args.width_cap
        )
    millis = (time.perf_counter() - t0) * 1000.0
    record = {
        "instance": args.instance,
        "n": G.n,
        "m": G.m,
        **extras,
        "value": _fmt_value(sol.value),
    }
    if guarantee is not None:
        record["guarantee"] = str(guarantee)
    if args.oracle:
        ov = _oracle_value(G, args.oracle, args.width_cap)
        record["oracle"] = _fmt_value(ov)
        record["ratio"] = repr(sol.value / ov) if ov else "1.0"
    if args.seed is not None:
        record["seed"] = args.seed
    record["millis"] = f"{millis:.3f}" if args.timing else "0"
    print(" ".join(f"{k}={v}" for k, v in record.items()))
    if args.emit_assignment:
        sys.stdout.write(mio.format_assignment(sol))
    return 0


def _spec_from_args(args) -> GeneratorSpec:
    params = {}
    for key in ("rows", "cols", "n", "m", "degree"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "real", False):
        params["real"] = True
    return GeneratorSpec(kind=args.kind, seed=args.seed, params=params)


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    G = generate(spec)
    comment = "gen " + json.dumps(
        {"kind": spec.kind, "seed": spec.seed, **spec.params}, sort_keys=True
    )
    text = mio.format_instance(G, [comment])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    G = mio.read_instance(args.instance)
    values = mio.read_assignment(args.assignment, G.n)
    print(_fmt_value(evaluate(G, values)))
    return 0


def _bench_cell(cell: dict) -> list[dict]:
    spec = GeneratorSpec(
        kind=cell["gen"]["kind"],
        seed=int(cell["gen"].get("seed", 0)),
        params={k: v for k, v in cell["gen"].items() if k not in ("kind", "seed")},
    )
    G = generate(spec)
    instance = f"{spec.kind}-seed{spec.seed}"
    oracle = cell.get("oracle")
    width_cap = int(cell.get("width_cap", DEFAULT_WIDTH_CAP))
    ov = _oracle_value(G, oracle, width_cap) if oracle else None
    rows = []
    for algo in cell["algos"]:
        t0 = time.perf_counter()
        sol, guarantee, _ = _run_algo(G, algo, cell.get("epsilon"), None, width_cap)
        millis = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "instance": instance,
                "algo": algo,
                "n": G.n,
                "m": G.m,
                "value": _fmt_value(sol.value),
                "oracle": _fmt_value(ov) if ov is not None else "",
                "ratio": repr(sol.value / ov) if ov else "",
                "guarantee": str(guarantee) if guarantee is not None else "",
                "millis": f"{millis:.3f}" if cell.get("timing", False) else "0",
            }
        )
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
    return cells


def cmd_bench(args) -> int:
    cells = _read_suite(args.suite)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_cell, cells))
    else:
        results = [_bench_cell(c) for c in cells]
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r["instance"], r["algo"]))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxqp", description="Combinatorial MaxQP solver toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--algo", choices=ALGOS, default="auto")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--oracle", choices=("brute-force", "exact-tw"), default=None)
    p.add_argument("--partition", default=None, help="partition file for --algo partition")
    p.add_argument(
        "--decomposition", default=None, help="externally computed tree decomposition file"
    )
    p.add_argument("--width-cap", type=int, default=DEFAULT_WIDTH_CAP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit-assignment", action="store_true")
    p.add_argument(
        "--timing", action="store_true", help="report wall time (off by default so reports are byte-reproducible)"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a reproducible instance")
    p.add_argument(
        "--kind",
        required=True,
        choices=(
            "grid-spin-glass",
            "sparse-random",
            "d-regular",
            "perfect-matching",
            "clique-plus-matching",
            "maxcut-subdivision",
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--real", action="store_true", help="uniform real weights instead of +-1")
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
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MaxQPError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
