"""End-to-end command line behavior: solve, gen, eval, bench, exit codes."""

from __future__ import annotations

import csv
import gc
import json
from fractions import Fraction

import pytest

import maxqp.cli
from maxqp import GeneratorSpec, WeightedGraph, evaluate, generate
from maxqp.cli import ALGOS, SOLVERS, Options, main
from maxqp.io import format_instance, format_number, parse_instance, read_instance
from maxqp.oracle import KIND_PARAMS

from util import random_graph


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bad_triangle(tmp_path):
    G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
    return _write(tmp_path, "tri.mq", format_instance(G))


def _path3(tmp_path):
    G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, -1.0)])
    return _write(tmp_path, "p3.mq", format_instance(G))


class TestSolve:
    def test_brute_force_on_bad_triangle(self, tmp_path, capsys):
        assert main(["solve", _bad_triangle(tmp_path), "--algo", "brute-force"]) == 0
        out = capsys.readouterr().out
        assert "value=1" in out and "algo=brute-force" in out

    def test_exact_tw_reports_width(self, tmp_path, capsys):
        assert main(["solve", _path3(tmp_path), "--algo", "exact-tw"]) == 0
        out = capsys.readouterr().out
        assert "value=2" in out and "width=1" in out

    def test_oracle_ratio_at_least_guarantee(self, tmp_path, capsys):
        assert (
            main(
                [
                    "solve",
                    _bad_triangle(tmp_path),
                    "--algo",
                    "greedy-matching",
                    "--oracle",
                    "brute-force",
                ]
            )
            == 0
        )
        fields = dict(
            kv.split("=", 1) for kv in capsys.readouterr().out.split()
        )
        assert float(fields["ratio"]) >= float(Fraction(fields["guarantee"]))

    def test_brute_force_value_and_oracle_field_are_evaluate(self, tmp_path, capsys):
        # real weights, where a running sum would drift from evaluate in the last bits
        G = random_graph(1022, 22, 44, real=True)
        inst = _write(tmp_path, "n22.mq", format_instance(G))
        assert main(["solve", inst, "--algo", "brute-force", "--emit-assignment"]) == 0
        record, signs = capsys.readouterr().out.splitlines()
        x = [int(t) for t in signs.split()]
        expected = format_number(evaluate(G, x))
        assert dict(kv.split("=", 1) for kv in record.split())["value"] == expected
        assert main(["solve", inst, "--algo", "greedy-matching", "--oracle", "brute-force"]) == 0
        fields = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        assert fields["oracle"] == expected

    def test_emitted_assignment_reproduces_value(self, tmp_path, capsys):
        inst = _path3(tmp_path)
        assert main(["solve", inst, "--algo", "exact-tw", "--emit-assignment"]) == 0
        lines = capsys.readouterr().out.splitlines()
        asg = _write(tmp_path, "x.sol", lines[-1] + "\n")
        assert main(["eval", inst, asg]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_external_decomposition_accepted(self, tmp_path, capsys):
        inst = _path3(tmp_path)
        dec = _write(tmp_path, "p3.td", "b 1 1 2\nb 2 2 3\nt 1 2\n")
        assert main(["solve", inst, "--algo", "exact-tw", "--decomposition", dec]) == 0
        assert "value=2" in capsys.readouterr().out

    def test_external_decomposition_with_empty_leaf_bag(self, tmp_path, capsys):
        inst = _write(tmp_path, "e.mq", "p maxqp 2 1\ne 1 2 1\n")
        dec = _write(tmp_path, "e.td", "b 1 1 2\nb 2\nt 1 2\n")
        assert main(["solve", inst, "--algo", "exact-tw", "--decomposition", dec]) == 0
        assert "value=1" in capsys.readouterr().out

    def test_auto_falls_back_to_greedy_on_wide_sparse_graph(self, tmp_path, capsys):
        inst = _write(tmp_path, "s350.mq", format_instance(random_graph(3, 350, 700, real=True)))
        assert main(["solve", inst]) == 0
        auto = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        assert main(["solve", inst, "--algo", "greedy-matching"]) == 0
        greedy = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        assert auto["algo"] == "greedy-matching"
        assert auto["value"] == greedy["value"]

    def test_auto_with_epsilon_falls_back_to_greedy_when_baker_is_refused(
        self, tmp_path, capsys
    ):
        # baker's subproblems on this graph exceed the width cap as well
        G = random_graph(1000, 350, 700, real=True)
        inst = _write(tmp_path, "s350.mq", format_instance(G))
        assert main(["solve", inst, "--algo", "baker", "--epsilon", "0.5"]) == 3
        capsys.readouterr()
        assert main(["solve", inst, "--epsilon", "0.5"]) == 0
        with_eps = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        assert main(["solve", inst]) == 0
        without = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        assert with_eps["algo"] == without["algo"] == "greedy-matching"
        assert with_eps["value"] == without["value"]

    def test_baker_requires_epsilon(self, tmp_path, capsys):
        assert main(["solve", _path3(tmp_path), "--algo", "baker"]) == 2

    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_algo_reports_its_own_assignment(self, tmp_path, capsys, algo):
        grid = generate(GeneratorSpec("grid-spin-glass", 3, {"rows": 3, "cols": 4}))
        inst = _write(tmp_path, "g.mq", format_instance(grid))
        args = ["solve", inst, "--algo", algo, "--epsilon", "0.5", "--emit-assignment"]
        assert main(args) == 0
        record, assignment = capsys.readouterr().out.splitlines()
        fields = dict(kv.split("=", 1) for kv in record.split())
        assert fields["algo"] == ("exact-tw" if algo == "auto" else algo)
        Fraction(fields["guarantee"])
        assert main(["eval", inst, _write(tmp_path, "g.sol", assignment + "\n")]) == 0
        assert capsys.readouterr().out.strip() == fields["value"]

    @pytest.mark.parametrize("algo", ["partition", "baker"])
    def test_empty_graph_gets_the_certificate_of_any_other(self, tmp_path, capsys, algo):
        empty = _write(tmp_path, "empty.mq", "p maxqp 0 0\n")
        records = []
        for inst in (empty, _path3(tmp_path)):
            assert main(["solve", inst, "--algo", algo, "--epsilon", "0.5"]) == 0
            records.append(dict(kv.split("=", 1) for kv in capsys.readouterr().out.split()))
        assert list(records[0]) == list(records[1])
        assert records[0]["n"] == "0" and records[0]["value"] == "0"
        if algo == "partition":
            assert {"epsilon", "k", "h", "partition_source", "chosen_part"} <= set(records[0])
            assert records[0]["h"] == "1"

    def test_partition_file_needs_partition_algo(self, tmp_path, capsys):
        inst = _path3(tmp_path)
        part = _write(tmp_path, "p3.part", "1 2\n3\n")
        for algo in ("auto", "exact-tw"):
            assert main(["solve", inst, "--algo", algo, "--partition", part]) == 2
            assert "--partition only applies to partition" in capsys.readouterr().err
        args = ["solve", inst, "--algo", "partition", "--epsilon", "0.5", "--partition", part]
        assert main(args) == 0
        assert "partition_source=external-file" in capsys.readouterr().out

    def test_partition_file_listing_a_vertex_twice_exits_2(self, tmp_path, capsys):
        inst = _path3(tmp_path)
        part = _write(tmp_path, "p3.part", "1 1 2\n3\n")
        args = ["solve", inst, "--algo", "partition", "--epsilon", "0.5", "--partition", part]
        assert main(args) == 2
        assert "line 1: part lists vertex 1 twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("1 2\n2 3\n", "partition parts overlap"), ("1 3\n", "does not cover every vertex")],
    )
    def test_partition_file_not_covering_once_exits_2(self, tmp_path, capsys, text, message):
        inst = _path3(tmp_path)
        part = _write(tmp_path, "p3.part", text)
        args = ["solve", inst, "--algo", "partition", "--epsilon", "0.5", "--partition", part]
        assert main(args) == 2
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        assert main(["solve", "/nonexistent/file.mq"]) == 4

    def test_malformed_instance_is_validation_error(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.mq", "p maxqp 2 1\ne 1 2 x\n")
        assert main(["solve", bad]) == 2

    def test_negative_vertex_count_is_validation_error(self, tmp_path, capsys):
        bad = _write(tmp_path, "neg.mq", "p maxqp -1 0\n")
        assert main(["solve", bad]) == 2
        assert "vertex count must be nonnegative" in capsys.readouterr().err

    def test_overflowing_average_weight_is_validation_error(self, tmp_path, capsys):
        bad = _write(tmp_path, "big.mq", "p maxqp 2 2\ne 1 2 1e308\ne 2 1 1e308\n")
        assert main(["solve", bad]) == 2
        assert "non-finite weight on edge (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("w1, w2", [("1e308", "1e308"), ("9e307", "-9e307"), ("8e307", "-8e307")])
    def test_total_weight_overflow_is_validation_error(self, tmp_path, capsys, w1, w2):
        # the parent crashed on all three, or reported value=0 as brute force's optimum
        inst = _write(tmp_path, "big.mq", f"p maxqp 3 2\ne 1 2 {w1}\ne 2 3 {w2}\n")
        for algo in ALGOS:
            assert main(["solve", inst, "--algo", algo, "--epsilon", "0.5"]) == 2, algo
            assert "2 * sum |w| is not finite" in capsys.readouterr().err
        assert main(["eval", inst, _write(tmp_path, "x.sol", "+1 +1 +1\n")]) == 2
        assert "2 * sum |w| is not finite" in capsys.readouterr().err

    def test_vertex_count_over_cap_is_capacity_error(self, tmp_path, capsys):
        inst = _write(tmp_path, "huge.mq", "p maxqp 1000000000000000 0\n")
        assert main(["solve", inst]) == 3
        assert "vertex count 1000000000000000 exceeds cap" in capsys.readouterr().err

    def test_cyclic_decomposition_is_validation_error(self, tmp_path, capsys):
        inst = _write(tmp_path, "e.mq", "p maxqp 2 1\ne 1 2 -1\n")
        dec = _write(tmp_path, "e.td", "b 1 1\nb 2 2\nb 3 1 2\nb 4 1 2\nt 1 2\nt 3 4\nt 4 3\n")
        assert main(["solve", inst, "--decomposition", dec]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_duplicate_bag_id_is_validation_error(self, tmp_path, capsys):
        inst = _write(tmp_path, "e.mq", "p maxqp 2 1\ne 1 2 -1\n")
        dec = _write(tmp_path, "e.td", "b 1 1 2\nb 1 1\nb 2 2\nt 1 2\n")
        assert main(["solve", inst, "--decomposition", dec]) == 2
        assert "duplicate bag id 1" in capsys.readouterr().err

    def test_bag_listing_a_vertex_twice_is_validation_error(self, tmp_path, capsys):
        inst = _write(tmp_path, "e.mq", "p maxqp 2 1\ne 1 2 -1\n")
        dec = _write(tmp_path, "e.td", "b 1 1 1 2\n")
        assert main(["solve", inst, "--decomposition", dec]) == 2
        assert "line 1: bag 1 lists vertex 1 twice" in capsys.readouterr().err

    def test_decomposition_vertex_outside_the_instance_is_named_in_file_ids(self, tmp_path, capsys):
        inst = _path3(tmp_path)
        dec = _write(tmp_path, "t.td", "b 1 1 2\nb 2 2 5\nt 1 2\n")
        assert main(["solve", inst, "--decomposition", dec]) == 2
        captured = capsys.readouterr()
        assert "line 2: bag 2 mentions vertex 5, outside 1..3" in captured.err
        assert captured.out == ""

    def test_broken_decomposition_exits_2_before_the_width_cap(self, tmp_path, capsys):
        # over the cap, and no bag holds edge 2-3 (0-based (1, 2))
        inst = _path3(tmp_path)
        dec = _write(tmp_path, "t.td", "b 1 1 2\nb 2 3\nt 1 2\n")
        assert main(["solve", inst, "--decomposition", dec, "--width-cap", "0"]) == 2
        assert r"edge (1, 2) covered by no bag" in capsys.readouterr().err
        dec = _write(tmp_path, "t.td", "b 1 1 2 3\n")
        assert main(["solve", inst, "--decomposition", dec, "--width-cap", "1"]) == 3
        assert "decomposition width 2 exceeds cap 1" in capsys.readouterr().err

    def test_width_cap_is_capacity_error(self, tmp_path, capsys):
        n = 26
        G = WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
        inst = _write(tmp_path, "k26.mq", format_instance(G))
        assert main(["solve", inst, "--algo", "exact-tw", "--width-cap", "4"]) == 3

    def test_negative_width_cap_is_validation_error(self, tmp_path, capsys):
        inst = _write(tmp_path, "e.mq", "p maxqp 3 0\n")
        assert main(["solve", inst, "--algo", "exact-tw", "--width-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--width-cap must be nonnegative" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n", [70, 40])
    def test_decomposition_wider_than_the_dp_limit_is_capacity_error(self, tmp_path, capsys, n):
        G = WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
        inst = _write(tmp_path, "k.mq", format_instance(G))
        assert main(["solve", inst, "--algo", "exact-tw", "--width-cap", "100"]) == 3
        captured = capsys.readouterr()
        assert f"decomposition width {n - 1} exceeds the DP limit" in captured.err
        assert captured.out == ""
        assert main(["solve", inst, "--width-cap", "100"]) == 0
        assert "algo=greedy-matching" in capsys.readouterr().out

    @pytest.mark.parametrize("reader", ["instance", "decomposition", "partition", "assignment"])
    def test_input_that_is_not_utf8_is_validation_error(self, tmp_path, capsys, reader):
        inst, bad = _path3(tmp_path), _write(tmp_path, "bad", "")
        (tmp_path / "bad").write_bytes(b"\xff")
        argv = {
            "instance": ["solve", bad],
            "decomposition": ["solve", inst, "--decomposition", bad],
            "partition": ["solve", inst, "--algo", "partition", "--epsilon", "0.5", "--partition", bad],
            "assignment": ["eval", inst, bad],
        }[reader]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_external_decomposition_wider_than_cap_is_capacity_error(self, tmp_path, capsys):
        n = 22
        G = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        inst = _write(tmp_path, "p22.mq", format_instance(G))
        dec = _write(tmp_path, "p22.td", "b 1 " + " ".join(str(v + 1) for v in range(n)) + "\n")
        assert main(["solve", inst, "--decomposition", dec]) == 3
        assert "decomposition width 21 exceeds cap 20" in capsys.readouterr().err
        assert main(["solve", inst, "--decomposition", dec, "--width-cap", "21"]) == 0
        assert "width=21" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", KIND_PARAMS)
    def test_gen_over_the_vertex_cap_is_capacity_error(self, tmp_path, capsys, kind):
        # clique-plus-matching took int(n**0.5) before the cap: OverflowError, exit 1
        first, *rest = (key for key in KIND_PARAMS[kind] if key != "real")
        params = {first: 10**400, **{key: 1 for key in rest}}
        flags = [token for key, v in params.items() for token in (f"--{key}", str(v))]
        cell = {"gen": {"kind": kind, **params}, "algos": ["greedy-matching"]}
        suite = _write(tmp_path, "suite.json", json.dumps({"cells": [cell]}))
        for argv in (["gen", "--kind", kind, *flags], ["bench", suite]):
            assert main(argv) == 3, argv
            captured = capsys.readouterr()
            assert f"vertex count {10**400} exceeds cap" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("eps", ["5", "0", "-0.5", "nan", "inf"])
    def test_epsilon_out_of_range_exits_2_whichever_solver_answers(self, tmp_path, capsys, eps):
        # exact-tw answered the grid and greedy ignored epsilon (exit 0); on the
        # sparse graph exact-tw is refused and baker ran, which refused it (exit 2)
        grid = generate(GeneratorSpec("grid-spin-glass", 1, {"rows": 4, "cols": 4}))
        sparse = generate(GeneratorSpec("sparse-random", 1, {"n": 300, "m": 900}))
        grid_inst = _write(tmp_path, "grid4x4.mq", format_instance(grid))
        sparse_inst = _write(tmp_path, "sparse.mq", format_instance(sparse))
        for argv in (
            ["solve", grid_inst, "--epsilon", eps],
            ["solve", sparse_inst, "--epsilon", eps],
            ["solve", grid_inst, "--algo", "greedy-matching", "--epsilon", eps],
            ["solve", "/nonexistent/file.mq", "--epsilon", eps],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert "epsilon must be in (0, 1]" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("eps", ["1e-320", "5e-324"])
    @pytest.mark.parametrize("algo", ["baker", "partition"])
    def test_epsilon_whose_class_count_overflows_is_validation_error(
        self, tmp_path, capsys, algo, eps
    ):
        # 4/eps and 6h/eps are inf: math.ceil raised OverflowError, exit 1
        G = generate(GeneratorSpec("grid-spin-glass", 1, {"rows": 3, "cols": 3}))
        inst = _write(tmp_path, "grid.mq", format_instance(G))
        assert main(["solve", inst, "--algo", algo, "--epsilon", eps]) == 2
        captured = capsys.readouterr()
        assert f"epsilon {float(eps)!r} is too small" in captured.err
        assert captured.out == ""


class TestReportedValue:
    """Every solver reports `evaluate` of its own assignment, bit for bit."""

    # real weights wherever the solver takes them; m large enough that a
    # pairwise sum rounds differently from the running one
    INSTANCES = {
        "greedy-matching": (3000, 6000, True),
        "easypack": (3000, 6000, False),
        "star-pack": (3000, 6000, False),
        "exact-tw": (60, 75, True),
        "baker": (400, 400, True),
        "partition": (100, 110, False),
        "brute-force": (14, 40, True),
    }

    @pytest.mark.parametrize("algo", SOLVERS)
    def test_value_is_evaluate_of_the_assignment(self, algo):
        n, m, real = self.INSTANCES[algo]
        for seed in range(4):
            G = random_graph(seed, n, m, real=real)
            r = SOLVERS[algo](G, Options(0.5, None, 20))
            assert r.value.hex() == evaluate(G, r.assignment.values).hex(), seed

    def test_solve_and_eval_print_the_same_value(self, tmp_path, capsys):
        G = random_graph(1, 3000, 6000, real=True)
        inst = _write(tmp_path, "g.mq", format_instance(G))
        assert main(["solve", inst, "--algo", "greedy-matching", "--emit-assignment"]) == 0
        record, assignment = capsys.readouterr().out.split("\n", 1)
        value = dict(field.split("=", 1) for field in record.split())["value"]
        assert main(["eval", inst, _write(tmp_path, "g.sol", assignment)]) == 0
        assert capsys.readouterr().out.strip() == value


class TestGenEval:
    def test_gen_round_trips_through_the_loader(self, tmp_path, capsys):
        out = str(tmp_path / "grid.mq")
        args = [
            "gen", "--kind", "grid-spin-glass", "--rows", "4", "--cols", "4",
            "--seed", "1", "--out", out,
        ]
        assert main(args) == 0
        G = read_instance(out)
        assert G.n == 16 and G.m == 24

    def test_gen_is_deterministic(self, capsys):
        args = ["gen", "--kind", "sparse-random", "--n", "12", "--m", "20", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert parse_instance(first).m == 20

    def test_eval_single_edge(self, tmp_path, capsys):
        inst = _write(tmp_path, "e.mq", "p maxqp 2 1\ne 1 2 1\n")
        asg = _write(tmp_path, "e.sol", "+1 +1\n")
        assert main(["eval", inst, asg]) == 0
        assert capsys.readouterr().out.strip() == "1"


class TestRepeatedCalls:
    def test_calls_leave_no_garbage_cycles(self, tmp_path, capsys):
        # in-process callers (the benchmark runs main in a loop) would see
        # every call's leftover cycles in their allocation peaks
        inst = _write(tmp_path, "e.mq", "p maxqp 3 2\ne 1 2 1\ne 2 3 -1\n")
        asg = _write(tmp_path, "e.sol", "+1 +1 -1\n")
        for argv in (["eval", inst, asg], ["solve", inst, "--emit-assignment"]):
            assert main(argv) == 0
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0


class TestBench:
    SUITE = {
        "cells": [
            {
                "gen": {"kind": "grid-spin-glass", "rows": 3, "cols": 3, "seed": 5},
                "algos": ["greedy-matching", "exact-tw"],
                "oracle": "brute-force",
            },
            {
                "gen": {"kind": "perfect-matching", "n": 8, "seed": 2},
                "algos": ["star-pack"],
                "oracle": "brute-force",
            },
        ]
    }

    def test_csv_ratios_meet_guarantees(self, tmp_path, capsys):
        suite = _write(tmp_path, "suite.json", json.dumps(self.SUITE))
        out = str(tmp_path / "report.csv")
        assert main(["bench", suite, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert float(row["ratio"]) >= float(Fraction(row["guarantee"])) - 1e-9

    def test_parallel_run_is_byte_identical(self, tmp_path, capsys):
        suite = _write(tmp_path, "suite.json", json.dumps(self.SUITE))
        one = str(tmp_path / "one.csv")
        two = str(tmp_path / "two.csv")
        assert main(["bench", suite, "--out", one, "--jobs", "1"]) == 0
        assert main(["bench", suite, "--out", two, "--jobs", "2"]) == 0
        assert open(one, "rb").read() == open(two, "rb").read()

    @pytest.mark.parametrize("jobs, pools", [(1, []), (2, [2]), (64, [2])])
    def test_workers_capped_at_the_cell_count(self, tmp_path, capsys, monkeypatch, jobs, pools):
        started = []

        class Recorder:
            """A pool that records its size and runs the cells in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(maxqp.cli, "ProcessPoolExecutor", Recorder)
        suite = _write(tmp_path, "suite.json", json.dumps(self.SUITE))  # two cells
        assert main(["bench", suite, "--out", str(tmp_path / "r.csv"), "--jobs", str(jobs)]) == 0
        assert started == pools

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(maxqp.cli, "ProcessPoolExecutor", None)  # no pool may start
        suite = _write(tmp_path, "suite.json", json.dumps(self.SUITE))
        assert main(["bench", suite, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert f"--jobs must be at least 1, got {jobs}" in captured.err
        assert captured.out == ""

    def test_suite_that_is_not_json_exits_2(self, tmp_path, capsys):
        suite = _write(tmp_path, "suite.json", '{"cells": [')
        assert main(["bench", suite]) == 2
        captured = capsys.readouterr()
        assert "not valid JSON" in captured.err
        assert captured.out == ""

    GRID = {"kind": "grid-spin-glass", "rows": 2, "cols": 2}
    SPARSE = {"kind": "sparse-random", "n": 5, "m": 2}
    BAD = {
        "seed-not-int": {"gen": {**GRID, "seed": "x"}, "algos": ["greedy-matching"]},
        "width-cap-not-int": {"gen": GRID, "algos": ["exact-tw"], "width_cap": "x"},
        "width-cap-negative": {"gen": GRID, "algos": ["exact-tw"], "width_cap": -1},
        "epsilon-a-string": {"gen": GRID, "algos": ["baker"], "epsilon": "0.5"},
        "epsilon-out-of-range": {"gen": GRID, "algos": ["greedy-matching"], "epsilon": 5},
        "rows-not-int": {"gen": {**GRID, "rows": "a"}, "algos": ["greedy-matching"]},
        "cols-missing": {"gen": {"kind": "grid-spin-glass", "rows": 2}, "algos": ["easypack"]},
        "unknown-algo": {"gen": GRID, "algos": ["greedy"]},
        "oracle-not-a-solver": {"gen": GRID, "algos": ["greedy-matching"], "oracle": "auto"},
        "gen-without-m": ["gen", "--kind", "sparse-random", "--n", "5"],
        "gen-negative-n": ["gen", "--kind", "sparse-random", "--n", "-5", "--m", "2"],
        "real-not-a-bool": {"gen": {**SPARSE, "real": "yes"}, "algos": ["greedy-matching"]},
        "n-on-a-grid": {"gen": {**GRID, "n": 7}, "algos": ["greedy-matching"]},
        "kind-not-a-string": {"gen": {**GRID, "kind": ["grid-spin-glass"]}, "algos": ["easypack"]},
        "gen-grid-with-real": ["gen", "--kind", "grid-spin-glass", "--rows", "2", "--cols", "2", "--real"],
    }

    @pytest.mark.parametrize("given", BAD.values(), ids=BAD.keys())
    def test_malformed_cell_or_gen_exits_2(self, tmp_path, capsys, given):
        if isinstance(given, dict):
            given = ["bench", _write(tmp_path, "suite.json", json.dumps({"cells": [given]}))]
        assert main(given) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_gen_takes_every_kind_of_the_generator_table(self):
        for kind in KIND_PARAMS:
            assert maxqp.cli.build_parser().parse_args(["gen", "--kind", kind]).kind == kind

    def test_gen_flags_are_the_parameters_of_the_generator_table(self):
        gen = maxqp.cli.build_parser()._subparsers._group_actions[0].choices["gen"]
        flags = {flag for action in gen._actions for flag in action.option_strings}
        params = {f"--{key}" for keys in KIND_PARAMS.values() for key in keys}
        assert flags - {"-h", "--help", "--kind", "--seed", "--out"} == params

    # (gen, algos, oracle) of one bench cell; the first has no edges, so its optimum is 0
    AGREE = [
        ({"kind": "sparse-random", "n": 5, "m": 0, "seed": 3},
         ["auto", "greedy-matching"], "brute-force"),
        ({"kind": "grid-spin-glass", "rows": 3, "cols": 4, "seed": 5},
         ["easypack", "exact-tw"], "brute-force"),
        ({"kind": "sparse-random", "n": 12, "m": 20, "real": True, "seed": 2},
         ["greedy-matching"], "exact-tw"),
        ({"kind": "perfect-matching", "n": 8, "seed": 2}, ["star-pack", "baker"], "brute-force"),
    ]

    @pytest.mark.parametrize("gen, algos, oracle", AGREE)
    def test_bench_rows_are_fields_of_the_solve_record(self, tmp_path, capsys, gen, algos, oracle):
        # a bench row's algo is the one asked for (`auto` too), solve's the one that
        # answered, so the row and the record are compared on every other field
        cell = {"gen": gen, "algos": algos, "oracle": oracle, "epsilon": 0.5}
        suite = _write(tmp_path, "suite.json", json.dumps({"cells": [cell]}))
        assert main(["bench", suite]) == 0
        rows = {row["algo"]: row for row in csv.DictReader(capsys.readouterr().out.splitlines())}
        params = {k: v for k, v in gen.items() if k not in ("kind", "seed")}
        G = generate(GeneratorSpec(gen["kind"], gen["seed"], params))
        inst = _write(tmp_path, "inst.mq", format_instance(G))
        fields = ("n", "m", "value", "oracle", "ratio", "guarantee")
        for algo in algos:
            argv = ["solve", inst, "--algo", algo, "--oracle", oracle, "--epsilon", "0.5"]
            assert main(argv) == 0
            record = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
            assert [rows[algo][f] for f in fields] == [record[f] for f in fields], algo
            assert float(record["ratio"]) >= float(Fraction(record["guarantee"])) - 1e-9
        if G.m == 0:
            assert {row["ratio"] for row in rows.values()} == {"1.0"}

    def test_cell_without_gen_exits_2(self, tmp_path, capsys):
        cell = {"algos": ["greedy-matching"], "oracle": "brute-force"}
        suite = _write(tmp_path, "suite.json", json.dumps({"cells": [cell]}))
        assert main(["bench", suite]) == 2
        captured = capsys.readouterr()
        assert "cell 0 has no gen" in captured.err
        assert captured.out == ""
