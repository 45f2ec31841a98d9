import math
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from schull import (
    CapabilityError,
    DatasetError,
    FprasConfig,
    StochasticDataset,
    expected_width_fpras,
    expected_width_witness,
    fpras_gamma,
    fpras_sample_count,
    oracle_expectation,
    width_simplex_factor,
)
import schull.geometry
import schull.width
from schull.cli import VERIFY_REL_SLACK
from schull.complexity import _size_probs
from schull.dataset import rng_stream
from schull.geometry import _CHUNK, _least_extent, lex_ranks
from schull.width import _count_rows, _witness_runs

from conftest import chain_dataset, grid_dataset, random_dataset, random_points
from reference import (
    affine_rank,
    enumerate_realizations,
    expectation_by_realization,
    expected_width_witness_naive,
    pointset_width,
    recover_vertex_list,
    simplex_width,
    witness_cells,
    witness_simplex,
    witness_simplex_prob,
    witness_width_by_realization,
)


def test_factor_values():
    assert width_simplex_factor(2) == pytest.approx(0.1)
    assert width_simplex_factor(3) == pytest.approx(0.02)


def test_simplex_width_matches_pointset_width(rng):
    for d in (2, 3):
        for _ in range(10):
            pts = random_points(rng, d + 1, d)
            if affine_rank(pts)[0] < d:
                continue
            assert simplex_width(pts) == pytest.approx(
                pointset_width(pts), rel=1e-9
            )
    # The width kernel against the hull-based reference, on a batch of
    # simplices and on presence rows of one point set.  Grid points give
    # exact ties and parallel pair differences; a rank-deficient row has
    # true width 0 and the kernel its rounding noise, hence the abs floor.
    for d in (2, 3):
        for pts in (random_points(rng, 9, d), grid_dataset(rng, 9, d).points):
            verts = np.array([rng.choice(9, d + 1, replace=False) for _ in range(40)])
            ref = [pointset_width(pts[v]) for v in verts]
            assert _least_extent(pts[verts]) == pytest.approx(ref, rel=1e-12, abs=1e-15)
            present = rng.random((60, 9)) < 0.6
            present[:, : d + 1] = True
            ref = [pointset_width(pts[row]) for row in present]
            got = _least_extent(pts, present)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("d, n", [(2, 8), (3, 7)])
def test_width_estimators_scale_with_coordinates(rng, d, n):
    # Both width estimators scale linearly with the coordinates.  Below
    # 10^-6 the decomposition's absolute distance-tie tolerance still decides
    # ties, so smaller scales are left out.
    ds = random_dataset(rng, n, d)
    cfg = FprasConfig(epsilon=0.25, seed=5, gamma_override=4.0)
    base = (expected_width_witness(ds), expected_width_fpras(ds, cfg))
    for k in range(-6, 9):
        scaled = StochasticDataset(ds.points * 10.0**k, ds.probs)
        got = (expected_width_witness(scaled), expected_width_fpras(scaled, cfg))
        assert got == pytest.approx((base[0] * 10.0**k, base[1] * 10.0**k), rel=1e-9), k


def test_decomposition_mass_is_full_rank_probability(rng):
    cases = [random_dataset(rng, n, d) for n, d in [(7, 2), (6, 3)]]
    cases += [grid_dataset(rng, n, d) for n, d in [(7, 2), (6, 3)]]
    for ds in cases:
        d = ds.dim
        mass = sum(p for _, p, _, _ in witness_cells(ds))
        expect = expectation_by_realization(
            ds, lambda idx: float(affine_rank(ds.points[idx])[0] == d))
        assert mass == pytest.approx(expect, abs=1e-11)


def test_decomposition_partition_consistency(rng):
    cases = [random_dataset(rng, 6, 2), grid_dataset(rng, 7, 2), grid_dataset(rng, 6, 3)]
    for ds in cases:
        for verts, prob, excluded, free in witness_cells(ds):
            assert witness_simplex_prob(ds, verts) == pytest.approx(prob, abs=1e-12)
            covered = set(verts) | set(excluded) | set(free)
            assert covered == set(range(len(ds)))
            assert not (set(verts) & set(excluded))


def test_decomposition_partitions_realizations(rng):
    # The sampling estimator conditions on a cell: every full-dimensional
    # realization must lie in exactly one, the one of its witness simplex.
    shapes = [(6, 2), (7, 2), (6, 3), (7, 3)]
    cases = [random_dataset(rng, n, d) for n, d in shapes]
    cases += [grid_dataset(rng, n, d) for n, d in shapes]
    for ds in cases:
        d = ds.dim
        cells = list(witness_cells(ds))
        full_rank = 0
        for idx, _pr in enumerate_realizations(ds):
            idx = list(idx)
            sub = ds.points[idx]
            if affine_rank(sub)[0] < d:
                continue
            full_rank += 1
            present = set(idx)
            hits = [
                verts
                for verts, _p, excluded, _f in cells
                if present.issuperset(verts) and present.isdisjoint(excluded)
            ]
            expect = tuple(idx[i] for i in witness_simplex(sub))
            assert hits == [expect]
        assert full_rank > 0


def test_grouped_equals_naive(rng):
    cases = [random_dataset(rng, n, d) for n, d in [(5, 2), (6, 2), (5, 3), (6, 3)]]
    # integer grids: exact distance ties decide steps by lex order
    cases += [grid_dataset(rng, n, d) for n, d in [(6, 2), (7, 2), (6, 3), (7, 3)]]
    for ds in cases:
        assert expected_width_witness(ds) == pytest.approx(
            expected_width_witness_naive(ds), abs=1e-12
        )


def test_mask_candidates_recover_to_their_order(rng):
    # The decomposition accepts a last vertex from the exclusion mask alone;
    # the greedy construction must pick the same order.  The prefixes come
    # in strictly ascending lexicographic order, each led by its simplex's
    # lex-largest vertex: the order that keeps the witness sum's bits.
    accepted = 0
    for k in range(12):
        n, d = (7, 2) if k % 2 == 0 else (6, 3)
        ds = grid_dataset(rng, n, d) if k < 8 else random_dataset(rng, n, d)
        ranks = lex_ranks(ds.points)
        groups = [(tuple(verts[lo, :-1].tolist()), verts[lo:hi, -1])
                  for v0 in range(len(ds))
                  for bounds, verts, _, _ in _witness_runs(ds, ranks, v0)
                  for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        prefixes = [prefix for prefix, _ in groups]
        assert prefixes == sorted(set(prefixes))
        for prefix, last in groups:
            assert ranks[prefix[0]] > ranks[list(prefix[1:]) + last.tolist()].max()
        for verts, _prob, _excluded, _free in witness_cells(ds):
            assert recover_vertex_list(ds.points, verts) == verts
            accepted += 1
    assert accepted > 100


def test_width_witness_equals_enumeration(rng):
    for n, d in [(7, 2), (6, 3)]:
        ds = random_dataset(rng, n, d)
        assert expected_width_witness(ds) == pytest.approx(
            witness_width_by_realization(ds), abs=1e-9)


def test_width_witness_brackets_oracle(rng):
    for n, d in [(7, 2), (6, 3)]:
        ds = random_dataset(rng, n, d)
        v = expected_width_witness(ds)
        o = oracle_expectation(ds, "width")
        assert v <= o + 1e-9
        assert o <= v / width_simplex_factor(d) + 1e-9


def test_width_witness_small_n_zero(rng):
    ds = random_dataset(rng, 2, 2)
    assert expected_width_witness(ds) == 0.0
    stats = {}
    assert (expected_width_fpras(ds, FprasConfig(epsilon=0.25), stats=stats), stats) == (
        0.0, {"sampled_cells": 0})


def _witness_bit_cases(rng):
    """Seeded sets for the width-witness pin: random sets, integer grids
    (exact distance ties), probability-1 points (omp = 0 inside ``left`` and
    the suffix products), collinear points plus one off the line (degenerate
    flats) and an n = d set."""
    cases = [random_dataset(rng, 12, 2), random_dataset(rng, 9, 3),
             grid_dataset(rng, 12, 2, side=4), grid_dataset(rng, 10, 3)]
    certain = random_dataset(rng, 12, 2)
    probs = certain.probs.copy()
    probs[[1, 5, 8]] = 1.0
    cases.append(StochasticDataset(certain.points, probs))
    line = np.column_stack([np.arange(7.0), np.zeros(7)])
    cases.append(StochasticDataset(np.vstack([line, [[2.5, 1.5]]]), rng.uniform(0.1, 0.95, 8)))
    cases.append(random_dataset(rng, 2, 2))
    return cases


def test_width_witness_values_pinned(rng):
    # Bit patterns on the seeded cases.  A reordered product or sum moves
    # the last bits, which the golden tolerance would not see.
    got = [float.hex(expected_width_witness(ds)) for ds in _witness_bit_cases(rng)]
    assert got == [
        "0x1.c02a9ad87453cp-1", "0x1.888ac29c68f00p-2", "0x1.e31aabc12ba32p+0",
        "0x1.652ba58d7df21p-2", "0x1.1ba46ccca0a94p+0", "0x1.35c5186c20f50p+0",
        "0x0.0p+0",
    ]


def test_width_witness_skip_values_pinned(rng, monkeypatch):
    # Bit pattern captured before first vertices with a negligible bound
    # were skipped; the cut of negligible prefixes must fire on this set.
    ds = random_dataset(rng, 80, 2)
    dropped = []
    test = schull.geometry._negligible
    monkeypatch.setattr(schull.geometry, "_negligible",
                        lambda b, t: dropped.append(np.sum(test(b, t))) or test(b, t))
    assert float.hex(expected_width_witness(ds)) == "0x1.3ff21737b2e75p+0"
    assert sum(dropped) > 0


def test_width_witness_cuts_prefixes_below_first_vertex(rng, monkeypatch):
    # Bit pattern captured before prefixes of negligible mass were cut at
    # every tree level.  Over the first vertices whose own prefix is kept,
    # fewer leaf-level prefixes reach dists_to_flat than in the uncut walk,
    # so the cut fires below the first level.
    ds = random_dataset(rng, 60, 2)
    flat = schull.width.dists_to_flat
    first, leaf_rows = set(), [0]

    def counted(pts, spans):
        # spans is (prefixes, vertices so far, d); each row starts at its first vertex
        if spans.shape[1] == 1:
            first.update(map(tuple, spans[:, 0]))
        if spans.shape[1] == ds.dim:
            leaf_rows[0] += len(spans)
        return flat(pts, spans)

    monkeypatch.setattr(schull.width, "dists_to_flat", counted)
    assert float.hex(expected_width_witness(ds)) == "0x1.3961b06712e0ep+0"
    cut, leaf_rows[0] = leaf_rows[0], 0
    ranks = lex_ranks(ds.points)
    for v0 in range(len(ds)):
        if tuple(ds.points[v0]) in first:
            for _ in _witness_runs(ds, ranks, v0):
                pass
    assert 0 < cut < leaf_rows[0]


def test_width_witness_runs_values_pinned(rng):
    # Bit patterns captured before the leaf pass and the width kernel took
    # runs of prefixes in place of one prefix at a time; on both sets some
    # first vertex's cells span more than two runs.  For the FPRAS, points
    # 10, 23 and 11 of the d = 3 set are made certain: the lex-largest
    # point, the point farthest from it and the point farthest from their
    # line.  Only 22 cells, all in a later run of first vertex 10, keep a
    # positive probability, so the call takes about a second instead of
    # more than a minute.
    d2, d3 = random_dataset(rng, 50, 2), random_dataset(rng, 25, 3)
    for ds in (d2, d3):
        ranks = lex_ranks(ds.points)
        cells = [sum(len(verts) for _, verts, _, _ in _witness_runs(ds, ranks, v0))
                 for v0 in range(len(ds))]
        assert max(cells) * len(ds) > 2 * _CHUNK
    probs = d3.probs.copy()
    probs[[10, 23, 11]] = 1.0
    stats = {}
    fpras = expected_width_fpras(StochasticDataset(d3.points, probs),
                                 FprasConfig(0.9, gamma_override=4.0), stats=stats)
    assert [float.hex(expected_width_witness(d2)), float.hex(expected_width_witness(d3)),
            float.hex(fpras), stats["sampled_cells"]] == [
        "0x1.3166c6ca63a89p+0", "0x1.f4baf3e9ff3dfp-1", "0x1.7a5270bf730f6p+0", 17]


@pytest.mark.parametrize("n, d, mib", [(50, 2, 1), (40, 3, 2)])
def test_witness_walk_memory_per_first_vertex(rng, n, d, mib):
    # One walk from every first vertex, with roots and children taken
    # _CHUNK // n at a time, traces 0.98 MiB at n = 50 (0.49 MiB walking one
    # first vertex at a time); holding every first vertex's level in one
    # array traced about 3 MB.  In space it traces 1.67 MiB at n = 40 (1.38
    # MiB one first vertex at a time); whole levels per first vertex traced
    # 2.3 MiB.
    ds = random_dataset(rng, n, d)
    tracemalloc.start()
    try:
        expected_width_witness(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_width_witness_chunks_do_not_change_bits(rng, monkeypatch):
    # Each prefix's cells are added on their own in prefix order, so walk
    # batches of one prefix (_CHUNK = 16) or of a few (100 // n), and the
    # runs they give, must reproduce the default batches exactly.  Smaller
    # budgets also shrink the width kernel's direction chunks to one row,
    # whose matrix product may round differently.
    cases = _witness_bit_cases(rng)
    full = [expected_width_witness(ds) for ds in cases]
    for chunk in (16, 100):
        monkeypatch.setattr(schull.geometry, "_CHUNK", chunk)
        assert [expected_width_witness(ds) for ds in cases] == full


def test_witness_runs_from_all_first_vertices_concatenate(rng):
    # The sampling estimator walks from every first vertex at once and adds
    # its cells in stream order, so that stream must be the per-first-vertex
    # streams one after another: the same cells, probabilities and masks in
    # the same order.  Only the run boundaries may differ, and on these sets
    # runs do hold cells of several first vertices.
    def cells(runs):
        return [(tuple(verts), float.hex(prob), row.tobytes())
                for _, vs, probs, excluded in runs
                for verts, prob, row in zip(vs.tolist(), probs.tolist(), excluded)]

    for ds in [*_witness_bit_cases(rng), grid_dataset(rng, 14, 3)]:
        ranks = lex_ranks(ds.points)
        apart = [list(_witness_runs(ds, ranks, v0)) for v0 in range(len(ds))]
        joint = list(_witness_runs(ds, ranks, np.arange(len(ds))))
        assert cells(joint) == cells(run for runs in apart for run in runs)
        if len(ds) > 2:
            assert len(joint) < sum(map(len, apart))


def test_width_witness_equals_per_first_vertex_walks(rng):
    # The witness walks once from every first vertex.  Its cells are the
    # per-first-vertex streams concatenated, and the mass cut drops only
    # additions that leave the total as it is, so the sum must equal one
    # walk per first vertex, each cut against the running total, bit for
    # bit.  The n = 60 set is the cut test's: the fixture's first draw.
    def per_first_vertex(ds):
        pts, ranks, total = ds.points, lex_ranks(ds.points), 0.0
        for v0 in range(len(ds)):
            for bounds, verts, probs, _ in _witness_runs(ds, ranks, v0, lambda: total):
                widths = _least_extent(pts[verts])
                for lo, hi in zip(bounds, bounds[1:]):
                    total += float(probs[lo:hi] @ widths[lo:hi])
        return total

    cases = [random_dataset(rng, 60, 2), *_witness_bit_cases(rng), grid_dataset(rng, 14, 3)]
    assert ([float.hex(expected_width_witness(ds)) for ds in cases]
            == [float.hex(per_first_vertex(ds)) for ds in cases])


# --- sampling estimator ---


def test_fpras_sample_count():
    assert fpras_sample_count(10, 0.1, fpras_gamma(2)) == math.ceil(
        2 * (2 * 5) ** 2 * math.log(10) / 0.01
    )
    assert fpras_gamma(2) == pytest.approx(200.0)
    assert fpras_gamma(3) == pytest.approx(3 * 2500.0)


@pytest.mark.parametrize("k", [3, 6, 10])
def test_cells_partition_chain_sets(k):
    # A chain of near ties from the first vertex.  Its planar realizations
    # of at least three points are full-dimensional, and each has one cell,
    # so the cells' probabilities sum to P(|R| >= 3) up to rounding; the
    # pairwise tie rule left 0.29 of 0.95 without a cell at k = 3.  The
    # FPRAS sums every cell exactly here, so it equals the oracle.
    ds = chain_dataset(k)
    probs = np.concatenate([p for *_, p, _ in _witness_runs(ds, lex_ranks(ds.points),
                                                               np.arange(len(ds)))])
    tail = _size_probs(ds.probs, 2)[-1]
    assert abs(probs.sum() - tail) <= 4 * len(probs) * np.finfo(float).eps
    stats = {}
    value = expected_width_fpras(ds, FprasConfig(0.1), stats=stats)
    truth = oracle_expectation(ds, "width")
    assert stats["sampled_cells"] == 0
    assert abs(value - truth) <= VERIFY_REL_SLACK * truth


def test_fpras_config_validation():
    with pytest.raises(DatasetError):
        FprasConfig(epsilon=0.0)
    with pytest.raises(DatasetError):
        FprasConfig(epsilon=1.5)
    with pytest.raises(DatasetError):
        FprasConfig(epsilon=0.1, gamma_override=-1.0)
    for gamma in (math.nan, math.inf, -math.inf):
        with pytest.raises(DatasetError, match="finite"):
            FprasConfig(epsilon=0.1, gamma_override=gamma)
    with pytest.raises(DatasetError, match="seed"):
        FprasConfig(epsilon=0.1, seed=-1)
    # a float or bool seed would run silently as int(seed)
    for seed in (0.9, 1.0, True, False):
        with pytest.raises(DatasetError, match="seed must be a non-negative integer"):
            FprasConfig(epsilon=0.1, seed=seed)
    assert FprasConfig(epsilon=0.1, seed=np.int64(3)).seed == 3
    # a finite gamma can still overflow the sample count
    with pytest.raises(DatasetError, match="not finite"):
        fpras_sample_count(12, 0.25, 1e308)
    assert fpras_sample_count(12, 0.25, 1.0) == math.ceil(math.log(12) / 0.0625)


@pytest.mark.parametrize("k", [1, 5, 62, 63, 70])
@pytest.mark.parametrize("m", [1, 7951, 233510])
def test_count_rows_matches_row_unique(k, m):
    # Columns are nearly constant (p = 0.01 or 0.99) with a few fair ones, so
    # rows repeat, and the rows that differ do so in every chunk of columns.
    rng = np.random.default_rng(1000 * k + m)
    probs = rng.choice([0.01, 0.5, 0.99], size=k, p=[0.45, 0.1, 0.45])
    present = np.column_stack([rng.random(m) < p for p in probs])
    rows, counts = _count_rows(present)
    if m <= 7951:
        ref_rows, ref_counts = np.unique(present, axis=0, return_counts=True)
    else:
        # a row-wise np.unique takes seconds here; count the rows' bytes
        # instead (0/1 bytes of equal length sort as the boolean rows do)
        tally = Counter(row.tobytes() for row in present)
        keys = sorted(tally)
        ref_rows = np.frombuffer(b"".join(keys), dtype=bool).reshape(len(keys), k)
        ref_counts = np.array([tally[key] for key in keys], dtype=np.intp)
    assert rows.dtype == ref_rows.dtype and counts.dtype == ref_counts.dtype
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(counts, ref_counts)


def test_fpras_reproducible_and_seed_sensitive(rng):
    # m = 13 samples per cell: the cells with 4 or more free points are sampled
    ds = random_dataset(rng, 8, 2)
    cfg = FprasConfig(epsilon=0.2, seed=11, gamma_override=0.25)
    stats = {}
    a = expected_width_fpras(ds, cfg, stats=stats)
    assert stats["sampled_cells"] > 0
    b = expected_width_fpras(ds, cfg)
    assert a == b
    c = expected_width_fpras(ds, FprasConfig(epsilon=0.2, seed=12, gamma_override=0.25))
    assert a != c  # different stream, almost surely different estimate


def _fpras_reference(ds, cfg):
    """The sampling estimator cell by cell, with independent width code.

    A cell with 2^|free| <= m walks its sub-realizations; any other draws
    its free points from the cell's stream and averages the m widths.
    Returns (value, sampled cells).
    """
    pts, pi = ds.points, ds.probs
    m = fpras_sample_count(len(ds), cfg.epsilon, cfg.gamma_override)
    total, sampled = 0.0, 0
    for verts, prob, _excluded, free in witness_cells(ds):
        base, free = sorted(verts), np.array(free, dtype=int)
        if 2 ** len(free) <= m:
            rows = list(product((False, True), repeat=len(free)))
            weights = [np.prod(np.where(row, pi[free], 1.0 - pi[free])) for row in rows]
        else:
            sampled += 1
            rng = rng_stream(cfg.seed, *base)
            rows = rng.random((m, len(free))) < pi[free]
            weights = np.full(m, 1.0 / m)
        widths = [pointset_width(pts[base + free[list(row)].tolist()]) for row in rows]
        total += prob * float(np.dot(weights, widths))
    return total, sampled


def _gamma_for(n, epsilon, m):
    """A sample coefficient that gives exactly m samples per cell."""
    gamma = (m - 0.5) * epsilon * epsilon / math.log(n)
    assert fpras_sample_count(n, epsilon, gamma) == m
    return gamma


@pytest.mark.parametrize("d, n", [(2, 8), (2, 10), (3, 6), (3, 8)])
@pytest.mark.parametrize("grid", [False, True])
def test_fpras_exact_cells_match_oracle(rng, d, n, grid):
    # With the theoretical gamma every cell here has 2^|free| <= m: the
    # estimate is the exact expectation, whatever the seed.
    for _ in range(2):
        ds = grid_dataset(rng, n, d, side=4) if grid else random_dataset(rng, n, d)
        oracle = oracle_expectation(ds, "width")
        for seed in (0, 1, 7):
            stats = {}
            v = expected_width_fpras(ds, FprasConfig(0.25, seed=seed), stats=stats)
            assert stats["sampled_cells"] == 0
            assert v == pytest.approx(oracle, rel=1e-12, abs=1e-15), (seed, v, oracle)


@pytest.mark.parametrize("d, n, gamma, seeds", [(2, 12, 0.05, 12), (3, 9, 0.05, 6)])
def test_fpras_mixed_cells_near_oracle(rng, d, n, gamma, seeds):
    # m = 13 (d = 2) or 12 (d = 3) samples per cell, so the cells with four
    # or more free points are sampled and the rest are summed exactly.
    eps = 0.1
    ds = random_dataset(rng, n, d)
    oracle = oracle_expectation(ds, "width")
    values = []
    for seed in range(seeds):
        stats = {}
        values.append(
            expected_width_fpras(
                ds, FprasConfig(eps, seed=seed, gamma_override=gamma), stats=stats
            )
        )
        assert stats["sampled_cells"] > 0
    assert len(set(values)) == seeds
    hits = sum(abs(v - oracle) <= eps * oracle for v in values)
    assert hits >= 0.8 * seeds, (hits, values, oracle)


@pytest.mark.parametrize("d, n", [(2, 9), (3, 7)])
def test_fpras_matches_cell_reference(rng, d, n):
    # Sampled cells draw the stream keyed by their sorted simplex, exact
    # cells sum their sub-realizations, at m below, between and above the
    # free-set sizes.
    ds = random_dataset(rng, n, d)
    for gamma in (0.01, 0.05, 0.2, 4.0):
        cfg = FprasConfig(0.2, seed=3, gamma_override=gamma)
        stats = {}
        got = expected_width_fpras(ds, cfg, stats=stats)
        want, sampled = _fpras_reference(ds, cfg)
        assert stats["sampled_cells"] == sampled
        assert got == pytest.approx(want, rel=1e-12), gamma


def _fpras_bit_cases(rng):
    """Seeded (dataset, config) pairs that sample cells.  At eps 0.5 and
    gamma 0.1 one row is drawn per cell, so every cell with a free point is
    sampled; at smaller eps the sampled cells draw 6 to 1,056 rows, which
    repeat.  The width-witness sets follow, each summed all-exact at the
    theoretical gamma and sampled at eps 0.5, gamma 0.1: exact distance
    ties, zero-probability cells, degenerate flats and an n = d set."""
    d2, d3 = random_dataset(rng, 12, 2), random_dataset(rng, 9, 3)
    d2n14 = random_dataset(rng, 14, 2)
    cases = [
        (d2, FprasConfig(0.5, gamma_override=0.1)),
        (d3, FprasConfig(0.5, gamma_override=0.1)),
        (d2, FprasConfig(0.1, gamma_override=0.1)),
        (d3, FprasConfig(0.2, seed=3, gamma_override=0.1)),
        (d2n14, FprasConfig(0.1, gamma_override=4.0)),
    ]
    for ds in _witness_bit_cases(rng):
        cases += [(ds, FprasConfig(0.25)), (ds, FprasConfig(0.5, gamma_override=0.1))]
    return cases


def test_fpras_values_pinned(rng):
    # Bit patterns and sampled-cell counts on the seeded cases.  A reordered
    # row count or sum moves the last bits, which the self-comparison of
    # the CLI reports would not see.
    got = []
    for ds, cfg in _fpras_bit_cases(rng):
        stats = {}
        value = expected_width_fpras(ds, cfg, stats=stats)
        got.append((float.hex(value), stats["sampled_cells"]))
    assert got == [
        ("0x1.11d4b8c9fbd2ap+0", 165), ("0x1.9e804d665b91dp-2", 70),
        ("0x1.10cdec47407a9p+0", 35), ("0x1.a19b6c815ca2ap-2", 15),
        ("0x1.122198ae19d55p+0", 1),
        ("0x1.912b6c4b8e8dcp-1", 0), ("0x1.9b8574635a5d4p-1", 165),
        ("0x1.890b05e1bd444p-2", 0), ("0x1.91d919c6c35aap-2", 70),
        ("0x1.d7bdf662947fcp+0", 0), ("0x1.d934d1a1053e2p+0", 162),
        ("0x1.93f38477e9e40p-1", 0), ("0x1.9bf2407e666d2p-1", 117),
        ("0x1.85e7d5c3ec551p-2", 0), ("0x1.8186e5076eb7bp-2", 32),
        ("0x1.06af87def7a16p-2", 0), ("0x1.06af87def7a17p-2", 15),
        ("0x0.0p+0", 0), ("0x0.0p+0", 0),
    ]


def test_fpras_exact_batches_do_not_change_bits(rng, monkeypatch):
    # Every exact cell's value has the bits of a batch of one cell, so
    # batches of one cell and of all cells of one free-set size in a run
    # must reproduce the pinned values.  The budget is patched where the
    # batch sizing reads it: a smaller geometry._CHUNK would also shrink
    # the width kernel's direction chunks, whose matrix products may round
    # differently.
    cases = _fpras_bit_cases(rng)
    full = [expected_width_fpras(ds, cfg) for ds, cfg in cases]
    for chunk in (1, 1 << 40):
        monkeypatch.setattr(schull.width, "_CHUNK", chunk)
        assert [expected_width_fpras(ds, cfg) for ds, cfg in cases] == full


@pytest.mark.parametrize("n, d, cfg", [(12, 3, FprasConfig(0.25)),
                                       (20, 2, FprasConfig(0.25, gamma_override=4.0))])
def test_fpras_memory(rng, n, d, cfg):
    # The walk from every first vertex builds its levels _CHUNK // n
    # prefixes at a time, and exact cells are summed in batches of at most
    # _CHUNK values per work array.  The planar set samples cells too.
    ds = random_dataset(rng, n, d)
    tracemalloc.start()
    try:
        expected_width_fpras(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_fpras_exact_up_to_sample_count(rng):
    # A cell with 2^|free| = m is summed exactly; at m = 2^|free| - 1 it is
    # sampled.
    n, eps = 9, 0.2
    ds = random_dataset(rng, n, 2)
    sizes = [len(cell[3]) for cell in witness_cells(ds)]
    k = max(sizes)
    stats = {}
    v = expected_width_fpras(
        ds, FprasConfig(eps, seed=4, gamma_override=_gamma_for(n, eps, 2**k)), stats=stats
    )
    assert stats["sampled_cells"] == 0
    assert v == pytest.approx(oracle_expectation(ds, "width"), rel=1e-12)
    cfg = FprasConfig(eps, seed=4, gamma_override=_gamma_for(n, eps, 2**k - 1))
    expected_width_fpras(ds, cfg, stats=stats)
    assert stats["sampled_cells"] == sizes.count(k) > 0


def test_fpras_close_to_oracle(rng):
    ds = random_dataset(rng, 8, 2)
    o = oracle_expectation(ds, "width")
    v = expected_width_fpras(ds, FprasConfig(epsilon=0.15, seed=3, gamma_override=60.0))
    assert abs(v - o) <= 0.15 * o


def test_fpras_exact_when_no_free_points():
    # all probabilities 1: single realization, estimator must be exact
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    ds = StochasticDataset(tri, [1.0, 1.0, 1.0])
    v = expected_width_fpras(ds, FprasConfig(epsilon=0.3, seed=0, gamma_override=1.0))
    assert v == pytest.approx(pointset_width(tri), abs=1e-12)


def test_fpras_dimension_guard(rng):
    pts = rng.uniform(-1, 1, (6, 4))
    ds = StochasticDataset(pts, np.full(6, 0.5))
    with pytest.raises(CapabilityError):
        expected_width_fpras(ds, FprasConfig(epsilon=0.2))
