"""Acceptance battery: one test per criterion, each printing a verdict line.

Every criterion cross-checks an estimator against an independent
recomputation (full realization enumeration, brute-force geometry, or a
closed form) at a stated tolerance, and the performance criteria assert
their wall-clock budgets.  Run with ``pytest -v tests/test_acceptance.py``;
the verdict lines show up with ``-s`` or in the captured output.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from schull import (
    FprasConfig,
    expected_complexity,
    expected_diameter_two_approx,
    expected_diameter_witness,
    expected_face_counts,
    expected_width_fpras,
    expected_width_witness,
    face_prob,
    fpras_gamma,
    hardness_identity_check,
    hardness_instance,
    load_dataset,
    membership_prob_1d,
    membership_prob_2d,
    oracle_expectation,
    oracle_face_expectations,
    width_simplex_factor,
)
from schull.cli import main as cli_main
from schull.geometry import distance_matrix

from conftest import (
    brute_hyperplane_stats,
    face_prob_enumeration,
    in_hull_1d,
    in_hull_2d,
    membership_enumeration,
    random_dataset,
    random_points,
    sweep_stats,
)
from reference import (
    affine_rank,
    expected_diameter_witness_naive,
    pointset_width,
    simplex_width,
    witness_sequence,
    witness_simplex,
    witness_spread_by_realization,
    witness_width_by_realization,
)

TOL = 1e-9


def _verdict(num, detail):
    print(f"[PASS] criterion {num}: {detail}")


def _full_rank_points(rng, n, d):
    while True:
        pts = random_points(rng, n, d)
        if affine_rank(pts)[0] == d:
            return pts


def test_criterion_01_witness_bracket_500_pointsets():
    rng = np.random.default_rng(101)
    lo = 1.0 / 1.63300
    worst = 1.0
    t0 = time.perf_counter()
    for trial in range(500):
        d = (2, 3, 4, 5, 10, 20)[trial % 6]
        n = int(rng.integers(2, 41))
        pts = random_points(rng, n, d)
        spread = witness_sequence(pts).spread
        diam = distance_matrix(pts).max()
        ratio = spread / diam
        assert lo <= ratio <= 1.0 + 1e-12, (n, d, ratio)
        worst = min(worst, ratio)
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"bracket battery took {dt:.2f} s"
    _verdict(1, f"500 sets, ratio in [{lo:.5f}, 1]; worst {worst:.5f}, {dt:.2f} s")


def _criterion_2_3_datasets():
    rng = np.random.default_rng(202)
    out = []
    for trial in range(50):
        d = (2, 3, 5)[trial % 3]
        n = int(rng.integers(2, 11))
        out.append(random_dataset(rng, n, d))
    return out


def test_criterion_02_expected_diameter_matches_enumeration():
    worst_gap = 0.0
    for ds in _criterion_2_3_datasets():
        v = expected_diameter_witness(ds)
        enum = witness_spread_by_realization(ds)
        assert abs(v - enum) <= TOL, (len(ds), ds.dim, v, enum)
        worst_gap = max(worst_gap, abs(v - enum))
        oracle = oracle_expectation(ds, "diameter")
        assert oracle / 1.6330 - TOL <= v <= oracle + TOL, (v, oracle)
    _verdict(2, f"50 datasets, enumeration gap <= {worst_gap:.2e}, bracket holds")


def test_criterion_03_two_approx_bracket():
    for ds in _criterion_2_3_datasets():
        v = expected_diameter_two_approx(ds)
        oracle = oracle_expectation(ds, "diameter")
        assert oracle / 2.0 - TOL <= v <= oracle + TOL, (v, oracle)
    _verdict(3, "50 datasets, two-approx in [oracle/2, oracle]")


def test_criterion_04_grouped_diameter_performance_and_equality():
    rng = np.random.default_rng(404)
    big = random_dataset(rng, 40, 2)
    t0 = time.perf_counter()
    expected_diameter_witness(big)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"n=40 run took {dt:.2f} s"
    small = random_dataset(rng, 8, 2)
    grouped = expected_diameter_witness(small)
    naive = expected_diameter_witness_naive(small)
    assert abs(grouped - naive) <= 1e-12, (grouped, naive)
    _verdict(4, f"n=40 d=2 in {dt:.2f} s; grouped == naive at n=8 "
                f"(gap {abs(grouped - naive):.1e})")


def test_criterion_05_hardness_identity_20_graphs():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        all_edges = list(combinations(range(n), 2))
        m = int(rng.integers(1, len(all_edges) + 1))
        pick = rng.choice(len(all_edges), size=m, replace=False)
        edges = [all_edges[i] for i in pick]
        inst = hardness_instance(n, edges)
        lhs, rhs = hardness_identity_check(inst)
        rel = abs(lhs - rhs) / abs(rhs)
        assert rel <= TOL, (n, m, lhs, rhs)
        worst = max(worst, rel)
    _verdict(5, f"20 graphs, worst relative gap {worst:.2e}")


def test_criterion_06_witness_simplex_bounds_200_realizations():
    rng = np.random.default_rng(606)
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        c1 = width_simplex_factor(d)
        n = int(rng.integers(d + 1, 16))
        pts = _full_rank_points(rng, n, d)
        sw = simplex_width(pts[list(witness_simplex(pts))])
        w = pointset_width(pts)
        assert sw <= w + TOL, (n, d, sw, w)
        assert sw >= c1 * w - TOL, (n, d, sw, w)
    _verdict(6, "200 realizations, simplex width in [c1 * width, width]")


def test_criterion_07_expected_width_matches_enumeration():
    rng = np.random.default_rng(707)
    worst_gap = 0.0
    for trial in range(30):
        d = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(d + 1, 11 if d == 2 else 10))
        ds = random_dataset(rng, n, d)
        v = expected_width_witness(ds)
        enum = witness_width_by_realization(ds)
        assert abs(v - enum) <= TOL, (n, d, v, enum)
        worst_gap = max(worst_gap, abs(v - enum))
        oracle = oracle_expectation(ds, "width")
        c1 = width_simplex_factor(d)
        assert c1 * oracle - TOL <= v <= oracle + TOL, (v, oracle)
    _verdict(7, f"30 datasets, enumeration gap <= {worst_gap:.2e}, bracket holds")


def test_criterion_08_fpras_accuracy_and_reproducibility():
    rng = np.random.default_rng(808)
    datasets = [random_dataset(rng, 10, 2) for _ in range(5)]
    eps = 0.1
    tuned = 40.0
    total_hits = 0
    for k, ds in enumerate(datasets):
        oracle = oracle_expectation(ds, "width")
        t0 = time.perf_counter()
        runs = [
            expected_width_fpras(ds, FprasConfig(eps, seed=s, gamma_override=tuned))
            for s in range(30)
        ]
        dt = time.perf_counter() - t0
        assert dt < 120.0, f"dataset {k}: 30 runs took {dt:.1f} s"
        hits = sum(1 for v in runs if abs(v - oracle) <= eps * oracle)
        assert hits >= 20, f"dataset {k}: only {hits}/30 within eps"
        total_hits += hits
        again = expected_width_fpras(
            ds, FprasConfig(eps, seed=17, gamma_override=tuned)
        )
        assert again == runs[17], "seeded run not reproducible"
    smoke_ds = datasets[0]
    smoke = expected_width_fpras(smoke_ds, FprasConfig(eps, seed=0))
    oracle0 = oracle_expectation(smoke_ds, "width")
    assert math.isfinite(smoke) and smoke > 0.0
    _verdict(8, f"{total_hits}/150 hits (need >= 100), seeded runs reproducible; "
                f"theoretical gamma={fpras_gamma(2):.0f} smoke value {smoke:.4f} "
                f"vs oracle {oracle0:.4f}")


def test_criterion_09_membership_matches_enumeration():
    rng = np.random.default_rng(909)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 15))
        if trial % 2 == 0:
            ds = random_dataset(rng, n, 1)
            while True:
                q = rng.uniform(-1.2, 1.2)
                if np.min(np.abs(ds.points[:, 0] - q)) > 1e-6:
                    break
            got = membership_prob_1d(ds, [q])
            want = membership_enumeration(
                ds, q, lambda qq, xs: in_hull_1d(qq, xs[:, 0])
            )
        else:
            ds = random_dataset(rng, n, 2)
            q = rng.uniform(-1.2, 1.2, 2)
            got = membership_prob_2d(ds, q)
            want = membership_enumeration(ds, q, in_hull_2d)
        assert abs(got - want) <= TOL, (trial, n, got, want)
        checked += 1
    _verdict(9, f"{checked} instances, 1d and 2d membership match enumeration")


def test_criterion_10_face_prob_matches_enumeration():
    rng = np.random.default_rng(1010)
    cases = [(12, 2), (7, 2), (10, 3), (6, 3)]
    faces = 0
    for n, d in cases:
        ds = random_dataset(rng, n, d)
        for k in (d - 2, d - 1):
            for verts in combinations(range(n), k + 1):
                got = face_prob(ds, verts)
                want = face_prob_enumeration(ds, verts)
                assert abs(got - want) <= TOL, (n, d, verts, got, want)
                faces += 1
    _verdict(10, f"{faces} simplices across n up to 12, d in {{2, 3}}")


def test_criterion_11_sweep_visits_and_timing():
    rng = np.random.default_rng(1111)
    for n, d in [(12, 2), (8, 3)]:
        ds = random_dataset(rng, n, d)
        count, seen = sweep_stats(ds)
        assert count == math.comb(n, d) == len(seen)
        for sub, (bp, bn) in brute_hyperplane_stats(ds).items():
            assert seen[sub][0] == pytest.approx(bp, abs=1e-12)
            assert seen[sub][1] == pytest.approx(bn, abs=1e-12)
    big = random_dataset(rng, 200, 2)
    t0 = time.perf_counter()
    expected_face_counts(big)
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"n=200 sweep took {dt:.2f} s"
    assert sweep_stats(big)[0] == math.comb(200, 2)
    _verdict(11, f"C(n,d) visits match brute stats; n=200 pass in {dt:.2f} s")


def test_criterion_12_complexity_matches_oracle():
    rng = np.random.default_rng(1212)
    worst2 = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 15))
        ds = random_dataset(rng, n, 2)
        v = expected_complexity(ds)
        oracle = oracle_expectation(ds, "complexity")
        assert abs(v - oracle) <= TOL, (n, v, oracle)
        worst2 = max(worst2, abs(v - oracle))
    worst3 = 0.0
    for _ in range(8):
        n = int(rng.integers(5, 12))
        ds = random_dataset(rng, n, 3)
        counts = expected_face_counts(ds)
        ofe = oracle_face_expectations(ds)
        total = expected_complexity(ds)
        oracle = oracle_expectation(ds, "complexity")
        # the edge count again, from the face probabilities of every pair
        subface = sum(face_prob(ds, pair) for pair in combinations(range(n), 2))
        gaps = [*np.abs(counts - ofe), abs(total - oracle), abs(subface - ofe[1])]
        assert max(gaps) <= TOL, (n, counts, ofe, total, oracle, subface)
        worst3 = max(worst3, *gaps)
    _verdict(12, f"d=2 gap <= {worst2:.2e} over 30 datasets; "
                 f"d=3 face count, total and subface gaps <= {worst3:.2e}")


def test_criterion_13_cli_round_trip(tmp_path, capsys):
    ds_path = tmp_path / "fixture.json"
    gen = ["gen", "random", "--n", "8", "--dim", "2", "--seed", "42",
           "--out", str(ds_path)]
    assert cli_main(gen) == 0
    first_bytes = ds_path.read_bytes()
    assert cli_main(gen) == 0
    assert ds_path.read_bytes() == first_bytes

    reports = {}
    for stat in ("diameter", "width", "complexity"):
        argv = ["compute", "--input", str(ds_path), "--stat", stat,
                "--seed", "9"]
        assert cli_main(argv) == 0
        rep = capsys.readouterr().out
        assert json.loads(rep)["schema"] == 1
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == rep, "report not byte-identical"
        reports[stat] = rep
        assert cli_main(["verify", "--input", str(ds_path), "--stat", stat]) == 0
        assert "contains_oracle=yes" in capsys.readouterr().out

    graph = tmp_path / "k3.graph"
    graph.write_text("3 3\n1 2\n2 3\n1 3\n")
    hard_path = tmp_path / "k3.json"
    assert cli_main(["gen", "hardness", "--graph", str(graph),
                     "--out", str(hard_path)]) == 0
    meta = json.loads(capsys.readouterr().out)
    hard_ds = load_dataset(hard_path)
    assert oracle_expectation(hard_ds, "diameter") == pytest.approx(
        meta["expected_diameter"], abs=TOL
    )
    _verdict(13, "gen/compute/verify round-trip, byte-identical reports, "
                 "hardness metadata consistent")
