import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schull import (
    DIAMETER_WITNESS_FACTOR,
    CapabilityError,
    DatasetError,
    StochasticDataset,
    count_independent_sets,
    expected_diameter_two_approx,
    expected_diameter_witness,
    hardness_identity_check,
    hardness_instance,
    oracle_expectation,
    parse_graph,
)
import schull.diameter
import schull.geometry
from schull.diameter import double_simplex, regular_simplex
from schull.cli import VERIFY_REL_SLACK
from schull.geometry import _order_keys, distance_matrix, lex_ranks

from conftest import CHAIN_CASES, chain_dataset, grid_dataset, random_dataset, random_points
from reference import (
    after_in_order,
    expectation_by_realization,
    expected_diameter_witness_naive,
    witness_sequence,
    witness_spread_by_realization,
)


def test_factor_value():
    assert DIAMETER_WITNESS_FACTOR == pytest.approx(2.0 * math.sqrt(2.0 / 3.0))


def test_pointset_bracket(rng):
    for _ in range(60):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(2, 6))
        pts = random_points(rng, n, d)
        approx = witness_sequence(pts).spread
        diam = max(
            np.linalg.norm(pts[a] - pts[b]) for a in range(n) for b in range(n)
        )
        assert approx <= diam + 1e-12
        assert approx >= diam / DIAMETER_WITNESS_FACTOR - 1e-12


def test_grouped_equals_naive(rng):
    cases = [random_dataset(rng, n, d) for n, d in [(4, 2), (5, 2), (6, 2), (5, 3), (4, 5)]]
    # integer grids: exact distance ties decide picks by lex order
    cases += [grid_dataset(rng, n, d) for n, d in [(5, 2), (6, 2), (6, 3)]]
    for ds in cases:
        g = expected_diameter_witness(ds)
        nv = expected_diameter_witness_naive(ds)
        assert g == pytest.approx(nv, abs=1e-12)


def test_witness_expectation_equals_enumeration(rng):
    for n, d in [(6, 2), (7, 2), (6, 3)]:
        ds = random_dataset(rng, n, d)
        assert expected_diameter_witness(ds) == pytest.approx(
            witness_spread_by_realization(ds), abs=1e-9)


def test_witness_expectation_brackets_oracle(rng):
    for n, d in [(7, 2), (6, 3)]:
        ds = random_dataset(rng, n, d)
        v = expected_diameter_witness(ds)
        o = oracle_expectation(ds, "diameter")
        assert v <= o + 1e-9
        assert o <= v * DIAMETER_WITNESS_FACTOR + 1e-9


@pytest.mark.parametrize("k, gap", CHAIN_CASES)
def test_witness_brackets_oracle_on_chain_sets(k, gap):
    # A chain of near ties from the first point: each realization still has
    # one witness sequence, so the bracket holds (the pairwise tie rule read
    # 1.73 against an oracle of 5.30 at k = 3 and gap 0.6e-9).
    ds = chain_dataset(k, gap)
    lo = expected_diameter_witness(ds)
    hi = lo * DIAMETER_WITNESS_FACTOR
    truth = oracle_expectation(ds, "diameter")
    slack = VERIFY_REL_SLACK * max(lo, hi, truth)
    assert lo - slack <= truth <= hi + slack


def _fifth_point_near_tie(seed):
    """Six random planar points and a seventh, b, that ties their fifth
    witness point p5 within EPS_GEO: b is 5e-10 farther from p4 than p5,
    turned 1e-3 rad about p4 to the side where it is lex-smaller than p5."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(6, 2))
    w = witness_sequence(pts)
    p4, p5 = pts[w.far3], pts[w.far4]
    u = (p5 - p4) * (1.0 + 5e-10 / np.linalg.norm(p5 - p4))
    for t in (1e-3, -1e-3):
        b = p4 + np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) @ u
        if tuple(b) < tuple(p5):
            break
    return StochasticDataset(np.vstack([pts, b]), np.random.default_rng(seed).uniform(0.3, 0.9, 7))


@pytest.mark.parametrize("seed", [0, 2, 5, 11, 16, 19])
def test_witness_fifth_point_ties_by_class(seed):
    # The fifth point is decided in the tie-class order of the other four
    # contests, so the lex-larger p5 beats b; an exact-float order there put
    # b after p5 and missed the realization walk by 8e-12 to 6.5e-11.
    ds = _fifth_point_near_tie(seed)
    assert expected_diameter_witness(ds) == pytest.approx(
        witness_spread_by_realization(ds), rel=0, abs=1e-12)


def test_witness_tie_class_values_pinned():
    # Bit patterns of two sets whose rows of distances tie up to rounding,
    # where an exact-float fifth-point order would move the last bits.
    t = 2.0 * np.pi * np.arange(80) / 80
    gon = StochasticDataset(np.column_stack([np.cos(t), np.sin(t)]),
                            np.random.default_rng(80).uniform(0.1, 0.95, 80))
    pairs = list(combinations(range(16), 2))
    pick = sorted(np.random.default_rng(16).choice(len(pairs), size=32, replace=False))
    hard = hardness_instance(16, [pairs[i] for i in pick]).dataset
    assert [float.hex(expected_diameter_witness(ds)) for ds in (gon, hard)] == [
        "0x1.ffec391448cf2p+0", "0x1.7040ea61043d1p+2"]


def test_singleton_dataset_zero():
    ds = StochasticDataset(np.array([[1.0, 2.0]]), [0.7])
    assert expected_diameter_witness(ds) == 0.0
    assert expected_diameter_two_approx(ds) == 0.0


# --- 2-approximation ---


def _two_approx_enumeration(ds):
    """Critical-pair expectation straight from the definition."""
    from schull.geometry import lex_ranks

    pts = ds.points
    ranks = lex_ranks(pts)

    def critical_distance(idx):
        if len(idx) < 2:
            return 0.0
        anchor = idx[0]  # smallest index present
        dists = [np.linalg.norm(pts[j] - pts[anchor]) for j in idx]
        best = max(dists)
        cands = [j for j, dj in zip(idx, dists) if dj >= best - 1e-9]
        partner = max(cands, key=lambda j: ranks[j])
        return np.linalg.norm(pts[partner] - pts[anchor])

    return expectation_by_realization(ds, critical_distance)


def test_two_approx_simple_cases():
    two = StochasticDataset(np.array([[0.0, 0.0], [5.0, 0.0]]), [0.5, 0.5])
    assert expected_diameter_two_approx(two) == pytest.approx(1.25)
    eq = StochasticDataset(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
        [1.0, 1.0, 1.0],
    )
    assert expected_diameter_two_approx(eq) == pytest.approx(1.0)


def test_two_approx_equals_enumeration(rng):
    for n, d in [(6, 2), (7, 3)]:
        ds = random_dataset(rng, n, d)
        assert expected_diameter_two_approx(ds) == pytest.approx(
            _two_approx_enumeration(ds), abs=1e-11
        )


def _two_approx_per_row(ds):
    """The 2-approximation one anchor row at a time over a full distance
    table: the layout the blocked estimator replaced, kept as its bit-level
    reference."""
    from schull.geometry import distance_matrix, lex_ranks

    def exclusive_suffix_product(w):
        run = np.cumprod(w[..., ::-1], axis=-1)[..., ::-1]
        return np.concatenate([run[..., 1:], np.ones(w.shape[:-1] + (1,))], axis=-1)

    n = len(ds)
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    if n == 1:
        return 0.0
    dmat = distance_matrix(pts)
    ranks = lex_ranks(pts)
    ar = np.arange(n)
    pre = np.concatenate([[1.0], np.cumprod(omp)])  # pre[i] = P[no point below index i]
    total = 0.0
    for i in range(n):
        order = np.lexsort((ranks, dmat[i]))
        pos = np.empty(n, dtype=np.intp)
        pos[order] = ar
        suffix = exclusive_suffix_product(np.where(order > i, omp[order], 1.0))
        pr = pi[i] * pre[i] * pi * suffix[pos]
        pr[: i + 1] = 0.0  # the anchor is the smallest present index
        total += float(np.dot(pr, dmat[i]))
    return total


def test_two_approx_blocks_match_per_row_reference(rng, monkeypatch):
    # Three full anchor blocks and a partial one; the blocked layout changes
    # no product and no summation order, so the value is bit-identical.
    n = 3 * 32 + 5
    monkeypatch.setattr(schull.diameter, "_CHUNK", 32 * n)  # 32 anchors a block
    certain = random_dataset(rng, n, 2)
    probs = certain.probs.copy()
    probs[[40, n - 3]] = 1.0  # omp = 0 inside the suffix products
    cases = [
        random_dataset(rng, n, 2),
        grid_dataset(rng, n, 2, side=11),  # exact distance ties
        grid_dataset(rng, n, 3, side=5),  # exact distance ties in space
        StochasticDataset(certain.points, probs),
    ]
    for ds in cases:
        assert expected_diameter_two_approx(ds) == _two_approx_per_row(ds)


def test_two_approx_builds_no_distance_table(rng):
    # A full n x n table at n = 2000 traces about 160 MB; the blocked
    # layout needs a few (block, n) arrays.
    ds = random_dataset(rng, 2000, 2)
    tracemalloc.start()
    try:
        expected_diameter_two_approx(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_two_approx_builds_no_distance_table_without_stop(rng):
    # At probabilities in [0.01, 0.05] the stop fires late or never, so
    # nearly every anchor block runs; each still needs only (block, n) arrays.
    ds = random_dataset(rng, 2000, 2, 0.01, 0.05)
    tracemalloc.start()
    try:
        expected_diameter_two_approx(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _two_approx_bit_cases(rng):
    """n = 2000 with probabilities in [0.2, 0.9], where the stop fires after
    6 of 250 blocks; the same n in [0.01, 0.05], where it fires after 163;
    n = 200 with a probability-1 point, after which every term is 0 (1 of
    3); an integer grid with exact distance ties (1 of 6)."""
    certain = random_dataset(rng, 200, 2)
    probs = certain.probs.copy()
    probs[3] = 1.0
    return [random_dataset(rng, 2000, 2, 0.2, 0.9), random_dataset(rng, 2000, 2, 0.01, 0.05),
            StochasticDataset(certain.points, probs), grid_dataset(rng, 300, 2, side=20)]


def test_two_approx_values_pinned(rng):
    # Bit patterns captured before the early stop: it may only cut terms
    # that round away, so no bit moves.
    got = [float.hex(expected_diameter_two_approx(ds)) for ds in _two_approx_bit_cases(rng)]
    assert got == ["0x1.0eb003869dc15p+1", "0x1.f3b1b87ebe33cp+0",
                   "0x1.11d97fadd54c0p+1", "0x1.652e85dc92ac3p+4"]


def test_two_approx_stop_matches_per_row_reference(rng, monkeypatch):
    # The stop fires mid-loop here; the uncut per-row sum must agree exactly.
    ds = random_dataset(rng, 300, 2, 0.2, 0.9)
    monkeypatch.setattr(schull.diameter, "_CHUNK", 32 * 300)  # 32 anchors a block
    blocks = []
    table = schull.diameter.distance_matrix
    monkeypatch.setattr(schull.diameter, "distance_matrix",
                        lambda *a: blocks.append(1) or table(*a))
    assert expected_diameter_two_approx(ds) == _two_approx_per_row(ds)
    assert 1 < len(blocks) < math.ceil(299 / 32)


def _witness_bit_cases(rng):
    """Seeded sets for the witness bit-identity tests: random and integer-grid
    sets, a set with probability-1 points (omp = 0 inside the exclusion and
    suffix products) and a hardness instance (exact two-distance ties)."""
    cases = [random_dataset(rng, 20, 2), random_dataset(rng, 19, 3),
             grid_dataset(rng, 20, 3), grid_dataset(rng, 18, 2, side=5)]
    certain = random_dataset(rng, 20, 2)
    probs = certain.probs.copy()
    probs[[2, 9, 17]] = 1.0
    cases.append(StochasticDataset(certain.points, probs))
    cycle = [(k, (k + 1) % 8) for k in range(8)] + [(0, 4), (2, 6)]
    cases.append(hardness_instance(8, cycle).dataset)
    return cases


def test_steps_match_brute_force(rng):
    # The construction steps straight from their definition, one (prefix,
    # point) at a time; the sum tests see them only through the total.
    cases = [ds.points for ds in _witness_bit_cases(rng)]
    cases += [random_points(rng, 1, 2), random_points(rng, 2, 3), random_points(rng, 9, 1)]
    for pts in cases:
        n = len(pts)
        dmat = distance_matrix(pts)
        ranks = lex_ranks(pts)
        # (a) prefixes of one to three points, some repeated, against rows
        # from a point and from probes placed as the witness places them
        refs = [dmat[rng.integers(0, n, size=12)]]
        if n > 1:
            i, j, k = rng.integers(0, n, size=(3, 12))
            j = np.where(i == j, (j + 1) % n, j)
            probe = pts[j] + (pts[i] - pts[j]) * (0.5 * dmat[j, k] / dmat[i, j])[:, None]
            refs.append(distance_matrix(probe, pts))
        for ref in refs:
            for k in (1, 2, 3):
                prefix = rng.integers(0, n, size=(12, k))
                cand = rng.random((12, n)) < 0.7
                want = [(b, v) for b in range(12) for v in range(n) if cand[b, v]
                        and not any(after_in_order(ref[b, p], ref[b, v], ranks[p], ranks[v])
                                    for p in prefix[b])]
                got = schull.geometry._steps(prefix, _order_keys(ref, ranks), cand)
                assert list(zip(*(x.tolist() for x in got))) == want
        # (b) p2 and then p3, chained through the prefix walk as the
        # diameter witness chains them, with nothing cut, give the valid
        # (p1, p2, p3) prefixes in lexicographic order
        after = np.array([[after_in_order(dmat[b], dmat[b, a], ranks, ranks[a])
                           for a in range(n)] for b in range(n)])
        want = []
        for p1, p2, p3 in product(range(n), repeat=3):
            e3 = (ranks > ranks[p1]) | after[p1, p2] | after[p2, p3]
            if p2 != p1 and not e3[[p1, p2, p3]].any():
                want.append((p1, p2, p3))

        def from_last(prefix):
            return np.ones(len(prefix), dtype=bool), _order_keys(dmat[prefix[:, -1]], ranks)

        walk = schull.geometry._walk(pts, np.full(n, 0.5), ranks, np.arange(n)[:, None],
                                     [from_last] * 3, lambda: 0.0)
        assert [tuple(t) for prefix, *_ in walk for t in prefix.tolist()] == want


def test_witness_chunks_do_not_change_bits(rng, monkeypatch):
    # Each prefix's term is added on its own in prefix order, so groups of
    # one first point or of a few (at most 100 // n candidate pairs), and
    # batches and (prefix, p4) pair chunks of one or about five (100 // n),
    # must reproduce the default groups and batches exactly.
    cases = _witness_bit_cases(rng)
    full = [expected_diameter_witness(ds) for ds in cases]
    for chunk in (1, 100):
        monkeypatch.setattr(schull.diameter, "_CHUNK", chunk)
        monkeypatch.setattr(schull.geometry, "_CHUNK", chunk)
        assert [expected_diameter_witness(ds) for ds in cases] == full


def test_vecdot_rows_equal_row_dots(rng):
    # Both diameter sums take a batch's per-row terms from one np.vecdot
    # and add each on its own, so their pinned bits rest on every row of
    # it being the float64 dot of a 1-d np.dot over that row.  Rows hold
    # exact zeros, as the masked weights do, and one is all zeros.
    for n in [*range(1, 71), 100, 150, 300, 2000]:
        weights = rng.uniform(0.0, 1.0, (9, n))
        weights[rng.random((9, n)) < 0.6] = 0.0
        weights[4] = 0.0
        rows = rng.uniform(0.0, 3.0, (9, n))
        assert ([float.hex(t) for t in np.vecdot(weights, rows).tolist()]
                == [float.hex(float(np.dot(w, r))) for w, r in zip(weights, rows)]), n


def test_witness_values_pinned(rng):
    # Bit patterns of the grouped sum on the seeded cases.  A reordered sum
    # or product moves the last bits, which the 1e-12 naive comparison
    # above would not see.
    got = [float.hex(expected_diameter_witness(ds)) for ds in _witness_bit_cases(rng)]
    assert got == [
        "0x1.10855408fa9b7p+1", "0x1.411fdce2d3bb1p+1", "0x1.7b6d0c4188301p+1",
        "0x1.2d8e28a1b8620p+2", "0x1.2e70de1a1cab5p+1", "0x1.9c98f48c6911dp+1",
    ]


def test_witness_skip_values_pinned(rng, monkeypatch):
    # Bit pattern captured before prefixes with a negligible p1 bound were
    # dropped; the drop must fire on this set.
    ds = random_dataset(rng, 70, 2)
    dropped = []
    test = schull.geometry._negligible
    monkeypatch.setattr(schull.geometry, "_negligible",
                        lambda b, t: dropped.append(np.sum(test(b, t))) or test(b, t))
    assert float.hex(expected_diameter_witness(ds)) == "0x1.2bc66e18cc851p+1"
    assert sum(dropped) > 0


def test_witness_prefix_mass_cut_values_pinned(rng, monkeypatch):
    # Bit pattern captured while only prefixes with a negligible p1 bound
    # (pi[p1] * P[no lex-larger point] * box diagonal) were dropped; on this
    # set the prefixes' own mass drops more than three times as many.
    ds = random_dataset(rng, 90, 2)
    dropped = []
    test = schull.geometry._negligible
    monkeypatch.setattr(schull.geometry, "_negligible",
                        lambda b, t: dropped.append(np.sum(test(b, t))) or test(b, t))
    assert float.hex(expected_diameter_witness(ds)) == "0x1.43dc3e3d79ddfp+1"
    assert sum(dropped) > 0


def test_witness_builds_no_cubic_float_batches(rng):
    # (batch, n, n) float arrays over every (prefix, p4) pair would trace
    # about 3.8 MB at n = 50; rows for the valid pairs alone stay near 2 MB.
    ds = random_dataset(rng, 50, 2)
    tracemalloc.start()
    try:
        expected_diameter_witness(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_witness_memory_does_not_grow_with_valid_fourth_points(rng):
    # On a regular 80-gon, points in convex position, many p4 choices are
    # valid and distances tie within EPS_GEO.  Rows for all valid (prefix,
    # p4) pairs of a batch at once traced 5.3 MB; chunks of them sized from
    # the one working-memory budget trace 2.7 MB.  The bit pattern was
    # captured before the chunking.
    t = 2.0 * np.pi * np.arange(80) / 80
    ds = StochasticDataset(np.column_stack([np.cos(t), np.sin(t)]), rng.uniform(0.1, 0.95, size=80))
    tracemalloc.start()
    try:
        value = expected_diameter_witness(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert float.hex(value) == "0x1.fffc5106a3954p+0"


@pytest.mark.parametrize("n, mib", [(100, 8), (150, 4)])
def test_witness_memory_is_quadratic(rng, n, mib):
    # Besides (n, n) tables, the prefix walk's first level among them, no
    # work array holds more than about _CHUNK values: 1.8 MiB traced at
    # n = 100 and 2.4 MiB at n = 150.
    ds = random_dataset(rng, n, 2)
    tracemalloc.start()
    try:
        expected_diameter_witness(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_two_approx_brackets_oracle(rng):
    for _ in range(6):
        ds = random_dataset(rng, 7, 2)
        v = expected_diameter_two_approx(ds)
        o = oracle_expectation(ds, "diameter")
        assert o / 2.0 - 1e-9 <= v <= o + 1e-9


# --- hardness instances ---


def test_regular_simplex_edges():
    for k in (1, 2, 3, 5):
        verts = regular_simplex(k)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                assert np.linalg.norm(verts[i] - verts[j]) == pytest.approx(1.0)


def test_double_simplex_distances():
    for k in (1, 2, 3, 4):
        facet, apex, mirror = double_simplex(k)
        for f in facet:
            assert np.linalg.norm(apex - f) == pytest.approx(1.0)
            assert np.linalg.norm(mirror - f) == pytest.approx(1.0)
        assert np.linalg.norm(apex - mirror) == pytest.approx(
            math.sqrt(2.0 * (k + 1) / k)
        )


def test_hardness_instance_distances():
    inst = hardness_instance(4, [(0, 1), (2, 3), (0, 2)])
    pts = inst.dataset.points
    assert pts.shape == (4, 3)
    adj = {(0, 1), (2, 3), (0, 2)}
    for i in range(4):
        for j in range(i + 1, 4):
            d = np.linalg.norm(pts[i] - pts[j])
            expect = inst.edge_distance if (i, j) in adj else inst.nonedge_distance
            assert d == pytest.approx(expect, abs=1e-9)
    assert inst.nonedge_distance**2 == pytest.approx(3.0)  # m = 3 edges
    assert (inst.dataset.probs == 0.5).all()


def test_hardness_p3_constants():
    inst = hardness_instance(3, [(0, 1), (1, 2)])
    assert inst.nonedge_distance**2 == pytest.approx(2.0)
    assert inst.edge_distance**2 == pytest.approx(5.0)


def test_hardness_validation():
    with pytest.raises(DatasetError):
        hardness_instance(2, [(0, 1)])
    with pytest.raises(DatasetError):
        hardness_instance(4, [])
    with pytest.raises(DatasetError):
        hardness_instance(4, [(0, 0)])
    with pytest.raises(DatasetError):
        hardness_instance(4, [(0, 5)])
    with pytest.raises(DatasetError):
        hardness_instance(4, [(0, 1), (1, 0)])


def test_count_independent_sets_known():
    assert count_independent_sets(3, [(0, 1), (1, 2), (0, 2)]) == 4  # K3
    assert count_independent_sets(3, [(0, 1), (1, 2)]) == 5  # P3
    assert count_independent_sets(3, []) == 8  # no edges: all subsets
    assert count_independent_sets(2, [(0, 1)]) == 3
    with pytest.raises(CapabilityError):
        count_independent_sets(21, [(0, 1)])


def test_hardness_identity_k3_and_p3():
    k3 = hardness_instance(3, [(0, 1), (1, 2), (0, 2)])
    lhs, rhs = hardness_identity_check(k3)
    assert rhs == pytest.approx(k3.edge_distance / 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    p3 = hardness_instance(3, [(0, 1), (1, 2)])
    lhs, rhs = hardness_identity_check(p3)
    assert rhs == pytest.approx((p3.nonedge_distance + 3 * p3.edge_distance) / 8.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_parse_graph():
    n, edges = parse_graph("3 2\n1 2\n2 3\n")
    assert n == 3 and edges == ((0, 1), (1, 2))
    with pytest.raises(DatasetError):
        parse_graph("")
    with pytest.raises(DatasetError):
        parse_graph("3\n1 2\n")
    with pytest.raises(DatasetError):
        parse_graph("3 2\n1 2\n")
    with pytest.raises(DatasetError):
        parse_graph("3 1\n1 4\n")
    with pytest.raises(DatasetError):
        parse_graph("3 1\n1 x\n")
    with pytest.raises(DatasetError, match="UTF-8"):
        parse_graph(b"3 1\n1 \xff\n")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_witness_expectation_bracket_property(n, seed):
    r = np.random.default_rng(seed)
    ds = random_dataset(r, n, 2)
    v = expected_diameter_witness(ds)
    o = oracle_expectation(ds, "diameter")
    assert v <= o + 1e-9
    assert o <= v * DIAMETER_WITNESS_FACTOR + 1e-9
