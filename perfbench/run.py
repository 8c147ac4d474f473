"""End-to-end benchmark of `maxqp solve`, one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every instance goes through the path a user hits, in this process and in
sequence: ``maxqp.cli.main(["solve", file, *args, "--emit-assignment"])``
reads, parses, solves and prints the record and the assignment.  Each answer
is then checked by perfbench/answers.py, which does not use maxqp.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups) and solve_s (median pass time), both scaled to host speed (see
calibrate), peak_alloc_mib (from an untimed tracemalloc pass), quality and
answered_frac.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of perfbench/spans.py plus the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The exit code is 1 when any answer is wrong and 2 when the
maxqp sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up repeats until both bounds are met; its time is the median round.
SETUP_MIN_ROUNDS = 3
SETUP_MIN_SECONDS = 1.0
MIN_PASSES = 4
# Reported times are scaled to a host on which calibrate() takes this long.
CALIBRATION_REF_S = 0.1


def import_maxqp():
    """Import maxqp from the checkout's src/, never from anywhere else."""
    if not (SRC / "maxqp" / "__init__.py").is_file():
        raise FileNotFoundError(f"maxqp sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import maxqp
    import maxqp.cli

    if Path(maxqp.__file__).resolve().parent != SRC / "maxqp":
        raise FileNotFoundError(f"imported maxqp from {maxqp.__file__}, not {SRC}")
    return maxqp


def solve(maxqp, path: Path, args: tuple[str, ...]) -> tuple[int | None, str]:
    """One in-process `maxqp solve`; returns (exit code, stdout).

    An exception escaping cli.main is reported as exit code None with the
    traceback as output, and is judged wrong by the checks.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = maxqp.cli.main(["solve", str(path), *args, "--emit-assignment"])
    except Exception:
        return None, traceback.format_exc()
    return rc, out.getvalue()


def run_pass(maxqp, insts, paths, tracer=None, cals=None):
    """Solve every instance once, in order; returns (seconds, outcomes).

    With `cals`, calibrate() runs after each solve, outside the timed
    seconds, and its times are appended to `cals`.
    """
    gc.collect()
    outcomes = []
    seconds = 0.0
    for inst, path in zip(insts, paths):
        if tracer is not None:
            tracer.instance = inst.label
        t0 = time.perf_counter()
        outcomes.append(solve(maxqp, path, inst.args))
        seconds += time.perf_counter() - t0
        if cals is not None:
            cals.append(calibrate())
    return seconds, outcomes


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python routine that uses no maxqp code.

    The speed of a shared host drifts, by up to 1.7x over tens of seconds
    on a 2-vCPU VM.  This routine is timed around the set-up and after every
    solve of a timed pass, and reported times are scaled by CALIBRATION_REF_S
    over the run's median calibration.  Like maxqp, it spends its time on sets, dicts,
    tuples and a sort.
    """
    gc.collect()
    t0 = time.perf_counter()
    n = 4096
    adj = [set() for _ in range(n)]
    x = 1
    for _ in range(40000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = x % n, (x >> 12) % n
        adj[u].add(v)
        adj[v].add(u)
    common = {(u, v): len(adj[u] & adj[v]) for u in range(n) for v in adj[u] if u < v}
    sorted(common.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


def setup(maxqp, insts, seed, directory: Path, repeat: bool) -> tuple[float, list[Path]]:
    """Build the instance files, repeatedly if `repeat`; returns the median time."""
    directory.mkdir(parents=True, exist_ok=True)
    times = []
    while not times or repeat and (
        len(times) < SETUP_MIN_ROUNDS or sum(times) < SETUP_MIN_SECONDS
    ):
        t0 = time.perf_counter()
        paths = workloads.build(maxqp, insts, seed, directory)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), paths


def peak_alloc_mib(maxqp, insts, paths) -> float:
    """Largest tracemalloc peak of one solve over the instances, untimed."""
    peak = 0
    gc.collect()
    tracemalloc.start()
    try:
        for inst, path in zip(insts, paths):
            tracemalloc.reset_peak()
            solve(maxqp, path, inst.args)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


class Checker:
    """Checks every distinct outcome of each instance once."""

    def __init__(self, insts, paths):
        self.insts = insts
        self.graphs = [answers.read_graph(p) for p in paths]
        self.optima = [self._optimum(i, G) for i, G in zip(insts, self.graphs)]
        self.verdicts: list[dict] = [{} for _ in insts]

    @staticmethod
    def _optimum(inst, G):
        if inst.grid is not None and min(inst.grid) <= answers.PROFILE_MAX_WIDTH:
            return answers.grid_optimum(G, *inst.grid)
        if G.n <= answers.ENUM_MAX_N:
            return answers.enumerate_optimum(G)
        return None

    def verdicts_of(self, outcomes) -> list[answers.Verdict]:
        out = []
        for i, outcome in enumerate(outcomes):
            if outcome not in self.verdicts[i]:
                inst = self.insts[i]
                self.verdicts[i][outcome] = answers.check(
                    self.graphs[i],
                    self.optima[i],
                    workloads.algo_of(inst),
                    workloads.epsilon_of(inst),
                    *outcome,
                )
            out.append(self.verdicts[i][outcome])
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, work: Path = WORK) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable lines."""
    maxqp = import_maxqp()
    insts = workloads.instances(name, tiny)
    directory = work / name
    tracer = spans.Tracer() if trace else None
    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def phase(label):
        nonlocal mark
        now = time.perf_counter()
        phases[label], mark = now - mark, now

    cals = [calibrate()]
    with tracer.installed() if trace else contextlib.nullcontext():
        setup_s, paths = setup(maxqp, insts, seed, directory, repeat=not trace)
    cals.append(calibrate())
    setup_layers = spans.layer_metrics(tracer.spans) if trace else {}
    phase("setup")

    warm = workloads.instances(name, tiny=True)
    (directory / "warmup").mkdir(exist_ok=True)
    run_pass(maxqp, warm, workloads.build(maxqp, warm, seed, directory / "warmup"))
    if not trace:
        peak_mib = peak_alloc_mib(maxqp, insts, paths)
    # The first passes over full-size instances, and the first after a
    # tracemalloc pass, are slower than the rest while the allocator grows
    # its pools.  This one is not timed.
    _, outcomes = run_pass(maxqp, insts, paths)
    outcomes_seen = [outcomes]
    phase("warmup")
    checker = Checker(insts, paths)
    phase("optima")

    plain_times, traced_times, pass_layers = [], [], []
    while (
        time.perf_counter() - mark < seconds
        or len(plain_times) < MIN_PASSES
        or (trace and len(traced_times) < MIN_PASSES)
    ):
        if trace and len(traced_times) < len(plain_times):
            start = len(tracer.spans)
            with tracer.installed():
                dt, outcomes = run_pass(maxqp, insts, paths, tracer, cals)
            traced_times.append(dt)
            layers = spans.layer_metrics(tracer.spans, start)
            layers["trace.spans"] = len(tracer.spans) - start
            pass_layers.append(layers)
        else:
            dt, outcomes = run_pass(maxqp, insts, paths, cals=cals)
            plain_times.append(dt)
        outcomes_seen.append(outcomes)
    phase("passes")

    verdicts = [checker.verdicts_of(o) for o in outcomes_seen]
    wrong = [(inst.label, v.detail) for vs in verdicts for inst, v in zip(insts, vs)
             if v.status == "wrong"]
    phase("checks")
    first = verdicts[0]
    answered = [(v, G) for v, G in zip(first, checker.graphs) if v.status == "answered"]
    refused = sum(v.status == "refused" for v in first)
    answered_frac = len(answered) / len(insts)

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        for key in pass_layers[0]:
            unit = "s" if key.endswith(".self_s") else spans.COUNT_UNITS.get(key, "count")
            metrics[key] = (statistics.median(layers[key] for layers in pass_layers), unit)
        for key in ("oracle.generate.self_s", "io.write_instance.self_s"):
            metrics[key] = (setup_layers[key], "s")
        untraced, traced = statistics.median(plain_times), statistics.median(traced_times)
        metrics["trace.untraced_solve_s"] = (untraced, "s")
        metrics["trace.solve_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["host.calibration_s"] = (statistics.median(cals), "s")
        metrics["cli.instances"] = (len(insts), "count")
        metrics["cli.refused"] = (refused, "count")
        metrics["cli.failed_frac"] = (1 - answered_frac, "ratio")
        tracer.write(directory / f"spans-seed{seed}.jsonl")
    else:
        speed = CALIBRATION_REF_S / statistics.median(cals)
        metrics["setup_s"] = (setup_s * speed, "s")
        metrics["solve_s"] = (statistics.median(plain_times) * speed, "s")
        metrics["peak_alloc_mib"] = (peak_mib, "MiB")
        metrics["quality"] = (
            sum(v.value for v, _ in answered) / sum(G.abs_weight for _, G in answered)
            if answered else 0.0, "ratio")
        metrics["answered_frac"] = (answered_frac, "ratio")

    result = {
        "correct": not wrong,
        "attempted": sum(len(vs) for vs in verdicts),
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [f"workload {name} seed {seed}: {len(insts)} instances, "
             f"{len(plain_times)} untraced and {len(traced_times)} traced passes",
             "  untraced pass s: " + " ".join(f"{t:.3f}" for t in plain_times),
             "  traced pass s: " + " ".join(f"{t:.3f}" for t in traced_times),
             "  calibration s: " + " ".join(f"{t:.3f}" for t in cals),
             "  phase s: " + " ".join(f"{k}={v:.2f}" for k, v in phases.items())]
    for inst, v, G, opt in zip(insts, first, checker.graphs, checker.optima):
        lines.append(f"  {inst.label:24s} {workloads.algo_of(inst):16s} {v.status:8s} "
                     f"value={v.value:.6g} sum|w|={G.abs_weight:.6g} optimum={opt}")
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} {value:.6g} {unit}")
    lines.append(f"failed_frac {1 - answered_frac:.6g} ratio "
                 f"({len(insts) - len(answered)} of {len(insts)} instances unanswered, "
                 f"{refused} refused at the width cap)")
    for label, detail in wrong:
        lines.append(f"WRONG {label}: {detail}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        import_maxqp()
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    correct = True
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
