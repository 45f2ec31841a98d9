import math
import tracemalloc
from itertools import product

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
from schull.diameter import double_simplex, regular_simplex

from conftest import grid_dataset, random_dataset, random_points
from reference import (
    expectation_by_realization,
    expected_diameter_witness_naive,
    witness_prob,
    witness_sequence,
    witness_spread_by_realization,
)


def test_factor_value():
    assert DIAMETER_WITNESS_FACTOR == pytest.approx(2.0 * math.sqrt(2.0 / 3.0))


def test_witness_examples():
    two = np.array([[0.0, 0.0], [3.0, 0.0]])
    ws = witness_sequence(two)
    assert ws.indices == (1, 0, 1, 1, 0)
    assert ws.spread == pytest.approx(3.0)

    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ws = witness_sequence(square)
    assert ws.indices == (3, 0, 3, 3, 0)
    assert ws.spread == pytest.approx(math.sqrt(2.0))
    assert np.allclose(ws.probe, [0.5, 0.5])  # halfway back toward the start

    collinear = np.array([[0.0], [1.0], [2.0]])
    ws = witness_sequence(collinear)
    assert ws.indices == (2, 0, 2, 2, 0)
    assert ws.spread == pytest.approx(2.0)

    lone = witness_sequence(np.array([[4.0, 7.0]]))
    assert lone.indices == (0, 0, 0, 0, 0)
    assert lone.spread == 0.0


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


def test_witness_prob_examples():
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    ds = StochasticDataset(pts, [0.6, 0.5])
    assert witness_prob(ds, (1, 0, 1, 1, 0)) == pytest.approx(0.3)
    # singleton events: exactly that point present
    assert witness_prob(ds, (0, 0, 0, 0, 0)) == pytest.approx(0.6 * 0.5)
    assert witness_prob(ds, (1, 1, 1, 1, 1)) == pytest.approx(0.5 * 0.4)
    # first element must be the lex-max present point
    assert witness_prob(ds, (0, 1, 0, 0, 1)) == 0.0
    # equal first pair without full degeneracy is impossible
    assert witness_prob(ds, (1, 1, 0, 1, 0)) == 0.0
    with pytest.raises(DatasetError):
        witness_prob(ds, (0, 1, 2, 0, 1))
    with pytest.raises(DatasetError):
        witness_prob(ds, (0, 1, 1, 0))


def test_witness_probs_partition_unity(rng):
    for n in (3, 4, 5):
        ds = random_dataset(rng, n, 2)
        total = sum(
            witness_prob(ds, idx) for idx in product(range(n), repeat=5)
        )
        assert total == pytest.approx(1.0 - np.prod(1.0 - ds.probs), abs=1e-11)


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


def test_two_approx_blocks_match_per_row_reference(rng):
    # Three full anchor blocks and a partial one; the blocked layout changes
    # no product and no summation order, so the value is bit-identical.
    n = 3 * schull.diameter._TWO_APPROX_BLOCK + 5
    certain = random_dataset(rng, n, 2)
    probs = certain.probs.copy()
    probs[[40, n - 3]] = 1.0  # omp = 0 inside the suffix products
    cases = [
        random_dataset(rng, n, 2),
        grid_dataset(rng, n, 2, side=11),  # exact distance ties
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


def test_witness_chunks_do_not_change_bits(rng, monkeypatch):
    # Each prefix's term is added on its own in prefix order, so batches of
    # one or five prefixes must reproduce the default batches exactly.
    cases = [random_dataset(rng, 20, 2), random_dataset(rng, 19, 3),
             grid_dataset(rng, 20, 3), grid_dataset(rng, 18, 2, side=5)]
    full = [expected_diameter_witness(ds) for ds in cases]
    for chunk in (1, 5):
        monkeypatch.setattr(schull.diameter, "_WITNESS_CHUNK", chunk)
        assert [expected_diameter_witness(ds) for ds in cases] == full


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
