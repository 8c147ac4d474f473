"""Tests of the benchmark itself: tiny workloads, answer checks, refusals."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _solved(tmp_path, workload, label):
    """(graph, optimum, algo, epsilon, outcome) of one tiny instance."""
    maxqp = run.import_maxqp()
    insts = workloads.instances(workload, tiny=True)
    paths = workloads.build(maxqp, insts, 7, tmp_path)
    i = [inst.label for inst in insts].index(label)
    checker = run.Checker(insts, paths)
    outcome = run.solve(maxqp, paths[i], insts[i].args)
    algo, eps = workloads.algo_of(insts[i]), workloads.epsilon_of(insts[i])
    return checker.graphs[i], checker.optima[i], algo, eps, outcome


def _with_answer(out: str, value: float, x: np.ndarray) -> str:
    record = " ".join(
        f"value={value!r}" if tok.startswith("value=") else tok for tok in out.splitlines()[0].split()
    )
    return record + "\n" + " ".join("+1" if s > 0 else "-1" for s in x) + "\n"


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """run_workload on a tiny workload, once per (workload, trace)."""
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            work = tmp_path_factory.mktemp("work")
            result, lines = run.run_workload(name, 5, 0.0, trace, tiny=True, work=work)
            cache[name, trace] = result, lines, work
        return cache[name, trace]

    return get


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_checks(tiny_run, name, trace):
    result, lines, work = tiny_run(name, trace)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= run.MIN_PASSES * len(workloads.instances(name, tiny=True))
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    assert trace or all(m["value"] > 0 for m in result["metrics"].values())
    if trace:
        assert (work / name / "spans-seed5.jsonl").stat().st_size > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_counts_on_tiny_workloads(tiny_run):
    exact = {k: v["value"] for k, v in tiny_run("exact-grid", True)[0]["metrics"].items()}
    assert exact["oracle.brute_force.states"] == 2**7
    assert exact["treewidth.dp_cells"] > 0 and exact["treewidth.decompose_useful"] == 1.0
    assert exact["treewidth.solve_treewidth.self_s"] > 0
    auto = {k: v["value"] for k, v in tiny_run("auto-default", True)[0]["metrics"].items()}
    assert auto["treewidth.build_decomposition.refused"] == 1
    assert auto["treewidth.decompose_useful"] == 0.5
    assert auto["matching.pairs"] > 0
    scheme = {k: v["value"] for k, v in tiny_run("scheme-grid", True)[0]["metrics"].items()}
    assert scheme["cli.refused"] == 1 and scheme["schemes.subproblems"] > 0


def test_refusal_counts_as_unanswered_not_failed(tiny_run, tmp_path):
    result, lines, _ = tiny_run("scheme-grid", False)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["metrics"]["answered_frac"]["value"] == pytest.approx(2 / 3)
    G, opt, algo, eps, outcome = _solved(tmp_path, "scheme-grid", "partition-8x8-cap2")
    assert outcome == (3, "")
    assert answers.check(G, opt, algo, eps, *outcome).status == "refused"


def test_corrupted_value_is_caught(tmp_path):
    G, opt, algo, eps, (rc, out) = _solved(tmp_path, "exact-grid", "grid-4x4")
    assert answers.check(G, opt, algo, eps, rc, out).status == "answered"
    _, x = answers.parse_output(out, G.n)
    bad = _with_answer(out, answers.evaluate(G, x) + 1.0, x)
    assert answers.check(G, opt, algo, eps, rc, bad).status == "wrong"


def test_corrupted_assignment_is_caught(tmp_path):
    G, opt, algo, eps, (rc, out) = _solved(tmp_path, "exact-grid", "grid-4x4")
    record, x = answers.parse_output(out, G.n)
    for v in range(G.n):
        y = x.copy()
        y[v] = -y[v]
        if answers.evaluate(G, y) < opt:
            break
    # the record still reports the old value
    flipped = _with_answer(out, float(record["value"]), y)
    assert answers.check(G, opt, algo, eps, rc, flipped).status == "wrong"
    # consistent record, but no longer the optimum an exact solver claims
    consistent = _with_answer(out, answers.evaluate(G, y), y)
    assert answers.check(G, opt, algo, eps, rc, consistent).status == "wrong"


def test_answer_below_guarantee_is_caught(tmp_path):
    G, opt, algo, eps, (rc, out) = _solved(tmp_path, "approx-sparse", "greedy-n300")
    assert opt is None and answers.check(G, opt, algo, eps, rc, out).status == "answered"
    bound = float(answers.guarantee(algo, G, eps)) * G.abs_weight
    rng = np.random.default_rng(0)
    while True:
        x = rng.choice([-1.0, 1.0], size=G.n)
        if answers.evaluate(G, x) < bound:
            break
    low = _with_answer(out, answers.evaluate(G, x), x)
    assert answers.check(G, opt, algo, eps, rc, low).status == "wrong"


def test_crash_and_unexpected_exit_are_wrong(tmp_path):
    G, opt, algo, eps, _ = _solved(tmp_path, "exact-grid", "grid-4x4")
    assert answers.check(G, opt, algo, eps, None, "Traceback ...").status == "wrong"
    assert answers.check(G, opt, algo, eps, 2, "").status == "wrong"


@pytest.mark.parametrize("rows,cols", [(1, 6), (3, 4), (4, 3), (2, 9), (4, 5)])
def test_grid_dp_matches_enumeration(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    u, v = [], []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                u.append(r * cols + c), v.append(r * cols + c + 1)
            if r + 1 < rows:
                u.append(r * cols + c), v.append((r + 1) * cols + c)
    G = answers.Graph(rows * cols, np.array(u), np.array(v), rng.uniform(-1, 1, len(u)))
    assert answers.grid_optimum(G, rows, cols) == pytest.approx(answers.enumerate_optimum(G))


def test_degeneracy_of_small_graphs():
    def graph(n, edges):
        u, v = zip(*edges)
        return answers.Graph(n, np.array(u), np.array(v), np.ones(len(edges)))

    assert answers.degeneracy(graph(4, [(0, 1), (1, 2), (1, 3)])) == 1
    assert answers.degeneracy(graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])) == 2
    assert answers.degeneracy(graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])) == 3


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
