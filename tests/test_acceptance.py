"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every inequality is checked against an independent oracle (exhaustive
enumeration or the exact DP) at desk scale, with the stated tolerances and
wall-clock budgets.
"""

from __future__ import annotations

import contextlib
import json
import time
from fractions import Fraction

from maxqp import (
    GeneratorSpec,
    SplitMix64,
    WeightedGraph,
    bfs_layers,
    brute_force,
    build_decomposition,
    easypack,
    extend_from_induced,
    generate,
    glue_blocks,
    greedy_sorted_matching,
    induced_subgraph,
    maximum_matching,
    solve_baker,
    solve_bounded_degree,
    solve_degenerate,
    solve_dense,
    solve_exact,
    solve_partition_scheme,
    solve_treewidth,
    star_packing,
    stats,
    subdivide_for_maxcut,
)
from maxqp.cli import main as cli_main
from maxqp.errors import CapacityError
from maxqp.graph import degeneracy

from util import (
    adjacency,
    brute_force_maxcut,
    check_easy_packing,
    covered,
    edge_list,
    evaluate_partial,
    heuristic_partition,
    is_bipartite,
    max_matching_size,
    normalize_nonneg,
    partition_of,
    parts,
    random_graph,
    random_sign,
    residue_classes,
)

TOL = 1e-9


@contextlib.contextmanager
def criterion(capsys, num, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    with capsys.disabled():
        print(f"criterion {num:2d} ({name}): PASS [{elapsed:.1f}s]")


def _small_instance(rng, seed, max_n=14, unit=None):
    n = 4 + rng.randrange(max_n - 3)
    m = rng.randrange(int(1.7 * n) + 1)
    real = (seed % 2 == 0) if unit is None else not unit
    return random_graph(40_000 + seed, n, m, real=real)


def test_01_dp_matches_enumeration_oracle(capsys):
    with criterion(capsys, 1, "oracle equivalence", 60):
        rng = SplitMix64(11)
        done = seed = 0
        while done < 300:
            seed += 1
            G = _small_instance(rng, seed)
            try:
                td = build_decomposition(G, width_cap=6)
            except CapacityError:
                continue
            a = solve_treewidth(G, td)
            opt = brute_force(G).value
            if G.unit:
                assert a.value == opt
            else:
                assert abs(a.value - opt) <= TOL
            done += 1


def test_02_nonnegative_normalization(capsys):
    with criterion(capsys, 2, "nonnegative scan", 5):
        rng = SplitMix64(22)
        for seed in range(1000):
            G = _small_instance(rng, seed)
            if seed % 5 == 0:  # include all-negative-weight graphs
                G = WeightedGraph(G.n, [(u, v, -abs(w)) for u, v, w in edge_list(G)])
            assert normalize_nonneg(G).value >= -TOL


def test_03_lossless_composition(capsys):
    with criterion(capsys, 3, "composition primitives", 5):
        rng = SplitMix64(33)
        for seed in range(500):
            G = _small_instance(rng, seed)
            bits = rng.next_u64()
            # left (block 1) glued onto right (block 0), as partial assignments
            block_of = [bits >> (2 * v + 1) & 1 for v in range(G.n)]
            left = [(1 if bits >> (2 * v) & 1 else -1) if block_of[v] else 0
                    for v in range(G.n)]
            right = [0 if block_of[v] else 1 for v in range(G.n)]
            z1 = evaluate_partial(G, left)
            z2 = evaluate_partial(G, right)
            glued = glue_blocks(G, block_of, [a + b for a, b in zip(left, right)])
            assert glued.value >= z1 + z2 - TOL
            assert extend_from_induced(G, left).value >= z1 - TOL


def test_04_bounded_degree_driver(capsys):
    with criterion(capsys, 4, "greedy matching driver", 60):
        # oracle-backed runs on degree-bounded instances
        combos = [(8, 2), (10, 3), (12, 4), (14, 5)]
        for trial in range(300):
            n, d = combos[trial % 4]
            G = generate(GeneratorSpec("d-regular", 500 + trial, {"n": n, "degree": d}))
            st = stats(G)
            r = solve_bounded_degree(G)
            bound = 1.0 / (2 * st.max_degree)
            assert r.value >= bound * st.abs_weight - TOL
            assert r.value >= bound * brute_force(G).value - TOL
        # matching weight bound alone on many larger instances
        rng = SplitMix64(44)
        for trial in range(10_000):
            n = 30
            m = 30 + rng.randrange(46)
            G = random_graph(60_000 + trial, n, m, real=trial % 7 == 0)
            M = greedy_sorted_matching(G)
            delta = max(len(nbrs) for nbrs in adjacency(G))
            w_all = sum(abs(w) for _, _, w in edge_list(G))
            assert M.total_abs_weight >= w_all / (2 * delta) - TOL


def test_05_degenerate_driver(capsys):
    with criterion(capsys, 5, "easy packing driver", 60):
        rng = SplitMix64(55)
        done = seed = 0
        while done < 300:
            seed += 1
            n = 4 + rng.randrange(11)
            m = 1 + rng.randrange(int(1.5 * n))
            G = random_graph(70_000 + seed, n, min(m, n * (n - 1) // 2))
            d = degeneracy(G)
            if not 1 <= d <= 3:
                continue
            P = easypack(G)
            check_easy_packing(G, P)
            opt = brute_force(G).value
            r = solve_degenerate(G)
            assert r.value >= opt / (2 * d) - TOL
            assert 2 * P.edge_count >= len(covered(P))
            assert opt <= d * len(covered(P)) + TOL
            # each center edge forms a triangle with at most one uncovered vertex
            adj = adjacency(G)
            center_vs = set(P.centers.ravel().tolist())
            istar = {v for v in range(n) if v not in center_vs and adj[v]}
            for x, y in P.centers.tolist():
                assert len(adj[x].keys() & adj[y].keys() & istar) <= 1
            done += 1


def test_06_dense_driver(capsys):
    with criterion(capsys, 6, "star packing driver", 60):
        rng = SplitMix64(66)
        instances = []
        seed = 0
        while len(instances) < 299:
            seed += 1
            n = 4 + rng.randrange(11)
            m = max(1, n // 2) + rng.randrange(n)
            G = random_graph(80_000 + seed, n, min(m, n * (n - 1) // 2))
            if not all(adjacency(G)):
                continue
            instances.append(G)
        instances.append(generate(GeneratorSpec("clique-plus-matching", 3, {"n": 16})))
        for G in instances:
            delta = Fraction(G.m, G.n)
            bound = G.m / (3 * float(delta))
            P = star_packing(G)
            check_easy_packing(G, P)
            opt = brute_force(G).value
            r = solve_dense(G)
            assert r.value >= bound - TOL
            assert r.value >= opt / (3 * float(delta)) - TOL
            assert P.edge_count >= bound - TOL
            adj = adjacency(G)
            leftover = set(range(G.n)) - covered(P)
            for part in parts(P):
                pset = set(part)
                touching = {
                    v for v in leftover
                    if any(u in pset for u in adj[v])
                }
                assert len(touching) <= 1


def test_07_maximum_matching_oracle(capsys):
    with criterion(capsys, 7, "blossom vs enumeration", 30):
        rng = SplitMix64(77)
        for trial in range(300):
            n = 4 + rng.randrange(9)
            m = rng.randrange(min(18, n * (n - 1) // 2) + 1)
            G = random_graph(90_000 + trial, n, m)
            assert len(maximum_matching(G).edges) == max_matching_size(G)


def _planar_like(trial):
    """Grid spin glasses, some with randomly deleted edges."""
    rng = SplitMix64(7000 + trial)
    rows = 2 + rng.randrange(5)
    cols = 2 + rng.randrange(5)
    G = generate(GeneratorSpec("grid-spin-glass", trial, {"rows": rows, "cols": cols}))
    if trial % 2:
        kept = [e for e in edge_list(G) if rng.randrange(5)]
        G = WeightedGraph(G.n, kept)
    return G


def test_08_baker_scheme(capsys):
    with criterion(capsys, 8, "layering scheme", 120):
        epsilons = [0.5, 0.75, 1.0]
        for trial in range(100):
            G = _planar_like(trial)
            eps = epsilons[trial % 3]
            opt = solve_exact(G).assignment
            r = solve_baker(G, eps)
            assert r.value >= (1 - eps) * opt.value - TOL
            if G.n <= 14:
                # residue-class accounting against the enumeration oracle
                k = r.certificate["k"]
                full = brute_force(G).value
                adj = adjacency(G)
                for cls in residue_classes(bfs_layers(G), k):
                    drop = set(cls)
                    keep = [v for v in range(G.n) if v not in drop]
                    hood = set(cls)
                    for v in cls:
                        hood.update(adj[v])
                    gi, _ = induced_subgraph(G, keep)
                    hi, _ = induced_subgraph(G, sorted(hood))
                    assert (
                        brute_force(gi).value + brute_force(hi).value >= full - TOL
                    )


def test_09_partition_scheme(capsys):
    with criterion(capsys, 9, "partition scheme", 120):
        for trial in range(100):
            G = _planar_like(trial + 1000)
            eps = [0.5, 0.75, 1.0][trial % 3]
            opt = solve_exact(G).assignment
            if trial % 2:
                r = solve_partition_scheme(G, eps)
                assert r.value >= (1 - eps) * opt.value - TOL
            else:
                k = max(2, min(G.n, 8))
                part = partition_of(G.n, [c for c in residue_classes(bfs_layers(G), k) if c])
                r = solve_partition_scheme(G, eps, partition=part)
                assert r.value >= float(r.guarantee) * opt.value - TOL
            if G.n <= 14:
                full = brute_force(G).value
                for part in parts(heuristic_partition(G, 4)):
                    pset = set(part)
                    m_i = sum(1 for u, v, _ in edge_list(G) if (u in pset) != (v in pset))
                    inside, _ = induced_subgraph(G, pset)
                    outside, _ = induced_subgraph(G, set(range(G.n)) - pset)
                    opt_gi = brute_force(inside).value + brute_force(outside).value
                    assert opt_gi + m_i >= full - TOL


def test_10_subdivision_reduction(capsys):
    with criterion(capsys, 10, "cut subdivision", 30):
        rng = SplitMix64(88)
        for trial in range(100):
            n = 4 + rng.randrange(5)
            m = rng.randrange(min(n + 2, n * (n - 1) // 2) + 1)
            G = random_graph(95_000 + trial, n, m)
            H = subdivide_for_maxcut(G)
            assert is_bipartite(H)
            d = degeneracy(H)
            assert d <= 2
            cut = brute_force_maxcut(G.n, [(u, v) for u, v, _ in edge_list(G)])
            assert brute_force(H).value == 2 * cut


def test_11_performance_scaling(capsys):
    with criterion(capsys, 11, "performance", 600):
        sizes = (10**5, 10**6)
        specs = [GeneratorSpec("sparse-random", 42, {"n": n, "m": 2 * n}) for n in sizes]
        graphs = [generate(spec) for spec in specs]
        best = [float("inf")] * len(sizes)
        # best of 3 per size, the sizes alternating, so that a slow stretch
        # of the host slows both sizes rather than one
        for _ in range(3):
            for i, G in enumerate(graphs):
                t0 = time.perf_counter()
                solve_bounded_degree(G)
                best[i] = min(best[i], time.perf_counter() - t0)
        t5, t6 = best
        assert t6 <= 10.0, f"large run took {t6:.2f}s"
        assert t6 / t5 <= 15.0, f"scaling ratio {t6 / t5:.1f}"

        rng = SplitMix64(99)
        edges = [
            (rng.randrange(v), v, float(random_sign(rng))) for v in range(1, 1000)
        ]
        T = WeightedGraph(1000, edges)
        td = build_decomposition(T)
        t0 = time.perf_counter()
        a = solve_treewidth(T, td)
        assert time.perf_counter() - t0 <= 1.0
        assert a.value == float(T.m)  # trees: every edge can be made good


def test_12_deterministic_reports(capsys, tmp_path):
    with criterion(capsys, 12, "determinism", 60):
        from maxqp.io import format_instance

        inst = tmp_path / "det.mq"
        G = generate(GeneratorSpec("grid-spin-glass", 17, {"rows": 4, "cols": 5}))
        inst.write_text(format_instance(G), encoding="utf-8")

        runs = []
        for _ in range(2):
            for algo in ("greedy-matching", "easypack", "exact-tw", "brute-force"):
                assert cli_main(["solve", str(inst), "--algo", algo]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps(
                {
                    "cells": [
                        {
                            "gen": {"kind": "grid-spin-glass", "rows": 4, "cols": 4,
                                    "seed": s},
                            "algos": ["greedy-matching", "exact-tw"],
                            "oracle": "brute-force",
                        }
                        for s in range(4)
                    ]
                }
            ),
            encoding="utf-8",
        )
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert cli_main(["bench", str(suite), "--out", str(serial)]) == 0
        assert cli_main(["bench", str(suite), "--out", str(parallel), "--jobs", "3"]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

        spec = GeneratorSpec("sparse-random", 5, {"n": 50, "m": 100, "real": True})
        assert edge_list(generate(spec)) == edge_list(generate(spec))
