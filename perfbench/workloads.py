"""The four seeded workloads and how their instance files are built.

Each workload is a fixed list of instances: a maxqp generator kind with its
parameters, and the extra `maxqp solve` arguments.  The generator seed of
instance i is derived from the workload seed, so one seed gives one set of
files.  Every workload also has a tiny variant with the same algorithms; it
warms up each code path before timing and is what the benchmark's own tests
run.  Sizes are chosen for a 2-core machine; see perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    label: str
    kind: str
    params: dict
    args: tuple[str, ...] = ()
    grid: tuple[int, int] | None = None  # (rows, cols) of grid-spin-glass


def _sparse(label, n, args, real=False):
    params = {"n": n, "m": 2 * n, **({"real": True} if real else {})}
    return Instance(label, "sparse-random", params, args)


def _grid(label, rows, cols, args):
    return Instance(label, "grid-spin-glass", {"rows": rows, "cols": cols}, args, (rows, cols))


GREEDY = ("--algo", "greedy-matching")
EASYPACK = ("--algo", "easypack")
STAR = ("--algo", "star-pack")
EXACT = ("--algo", "exact-tw")
BRUTE = ("--algo", "brute-force")
BAKER = ("--algo", "baker", "--epsilon", "0.5")
PARTITION = ("--algo", "partition", "--epsilon", "0.5")

# name -> (full-size instances, tiny instances).  Why each workload exists is
# recorded in BENCHMARK.json; the sizes are in perfbench/README.md.
WORKLOADS: dict[str, tuple[list[Instance], list[Instance]]] = {
    "approx-sparse": (
        [
            _sparse("greedy-n20000", 20000, GREEDY, real=True),
            _sparse("easypack-n8000", 8000, EASYPACK),
            _sparse("star-pack-n1500", 1500, STAR),
        ],
        [
            _sparse("greedy-n300", 300, GREEDY, real=True),
            _sparse("easypack-n200", 200, EASYPACK),
            _sparse("star-pack-n60", 60, STAR),
        ],
    ),
    "exact-grid": (
        [
            _grid("grid-14x14", 14, 14, EXACT),
            _grid("grid-15x15", 15, 15, EXACT),
            _grid("strip-14x30", 14, 30, EXACT),
            _sparse("brute-n18-real", 18, BRUTE, real=True),
            _sparse("brute-n20-unit", 20, BRUTE),
        ],
        [
            _grid("grid-4x4", 4, 4, EXACT),
            _grid("strip-3x7", 3, 7, EXACT),
            _sparse("brute-n8", 8, BRUTE, real=True),
        ],
    ),
    "scheme-grid": (
        [
            _grid("baker-40x40", 40, 40, BAKER),
            _grid("partition-8x8", 8, 8, PARTITION),
            _grid("partition-18x18", 18, 18, PARTITION),
        ],
        [
            _grid("baker-6x6", 6, 6, BAKER),
            _grid("partition-5x5", 5, 5, PARTITION),
            _grid("partition-8x8-cap2", 8, 8, PARTITION + ("--width-cap", "2")),
        ],
    ),
    "auto-default": (
        [
            _sparse("auto-sparse-n350-a", 350, (), real=True),
            _sparse("auto-sparse-n350-b", 350, (), real=True),
            _sparse("auto-sparse-n350-c", 350, (), real=True),
            _grid("auto-grid-13x13", 13, 13, ()),
            _grid("auto-grid-14x14", 14, 14, ()),
        ],
        [
            _sparse("auto-sparse-n40-cap3", 40, ("--width-cap", "3"), real=True),
            _grid("auto-grid-4x4", 4, 4, ()),
        ],
    ),
}


def instances(workload: str, tiny: bool = False) -> list[Instance]:
    full, small = WORKLOADS[workload]
    return small if tiny else full


def instance_seed(seed: int, index: int) -> int:
    """Generator seed of the index-th instance of a workload run with `seed`."""
    return seed * 1000 + index


def build(maxqp, insts: list[Instance], seed: int, directory: Path) -> list[Path]:
    """Generate each instance with oracle.generate and write it with io.write_instance."""
    paths = []
    for i, inst in enumerate(insts):
        spec = maxqp.oracle.GeneratorSpec(inst.kind, instance_seed(seed, i), dict(inst.params))
        G = maxqp.oracle.generate(spec)
        path = directory / f"{inst.label}.mq"
        maxqp.io.write_instance(G, str(path))
        paths.append(path)
    return paths


def algo_of(inst: Instance) -> str:
    return inst.args[inst.args.index("--algo") + 1] if "--algo" in inst.args else "auto"


def epsilon_of(inst: Instance) -> float | None:
    return float(inst.args[inst.args.index("--epsilon") + 1]) if "--epsilon" in inst.args else None
