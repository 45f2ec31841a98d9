import math
from itertools import combinations

import numpy as np
import pytest

from schull import (
    CapabilityError,
    DatasetError,
    GeometryError,
    StochasticDataset,
    expected_complexity,
    expected_face_counts,
    face_prob,
    hyperplane_statistics,
    membership_prob_1d,
    membership_prob_2d,
    oracle_expectation,
    oracle_face_expectations,
)

from conftest import (
    brute_hyperplane_stats,
    face_prob_enumeration,
    in_hull_1d,
    in_hull_2d,
    membership_enumeration,
    random_dataset,
    random_points,
)


# --- membership ---


def test_membership_1d_examples():
    ds = StochasticDataset([[-1.0], [1.0]], [0.5, 0.5])
    assert membership_prob_1d(ds, [0.0]) == pytest.approx(0.25)
    assert membership_prob_1d(ds, [2.0]) == 0.0  # nothing beyond on one side
    with pytest.raises(GeometryError):
        membership_prob_1d(ds, [1.0])
    with pytest.raises(CapabilityError):
        membership_prob_1d(random_dataset(np.random.default_rng(0), 4, 2), [0.0])


def test_membership_2d_examples():
    tri = StochasticDataset([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [0.5] * 3)
    # centroid needs all three corners present
    assert membership_prob_2d(tri, [0.5, 0.5]) == pytest.approx(0.125)
    assert membership_prob_2d(tri, [5.0, 5.0]) == 0.0
    with pytest.raises(GeometryError):
        membership_prob_2d(tri, [0.0, 0.0])
    with pytest.raises(CapabilityError):
        membership_prob_2d(StochasticDataset([[0.0], [1.0]], [0.5, 0.5]), [0.0, 0.0])


def test_membership_2d_collinear_query_rejected():
    pts = [[1.0, 1.0], [-2.0, -2.0], [3.0, 0.0]]
    with pytest.raises(GeometryError, match="points 0 and 1 are collinear"):
        membership_prob_2d(StochasticDataset(pts, [0.5] * 3), [0.0, 0.0])
    pts = [[3.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    with pytest.raises(GeometryError, match="points 1 and 2 are collinear"):
        membership_prob_2d(StochasticDataset(pts, [0.5] * 3), [0.0, 0.0])
    with pytest.raises(GeometryError, match="dataset point 0$"):
        membership_prob_2d(StochasticDataset(pts, [0.5] * 3), [3.0, 0.0])


def test_membership_1d_matches_enumeration(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        ds = random_dataset(rng, n, 1)
        q = np.array([rng.uniform(-1.2, 1.2)])
        if np.min(np.abs(ds.points[:, 0] - q[0])) < 1e-6:
            continue
        assert membership_prob_1d(ds, q) == pytest.approx(
            membership_enumeration(ds, q[0], lambda qq, xs: in_hull_1d(qq, xs[:, 0])),
            abs=1e-9,
        )


def test_membership_2d_matches_enumeration(rng):
    for _ in range(25):
        n = int(rng.integers(1, 13))
        ds = random_dataset(rng, n, 2)
        q = rng.uniform(-1.2, 1.2, 2)
        assert membership_prob_2d(ds, q) == pytest.approx(
            membership_enumeration(ds, q, in_hull_2d), abs=1e-9
        )


def test_membership_2d_with_certain_points(rng):
    # probability-1 points force the zero-count bookkeeping paths
    for _ in range(10):
        n = int(rng.integers(3, 10))
        pts = random_points(rng, n, 2)
        probs = rng.uniform(0.2, 0.9, n)
        probs[rng.integers(0, n)] = 1.0
        probs[rng.integers(0, n)] = 1.0
        ds = StochasticDataset(pts, probs)
        q = rng.uniform(-1.0, 1.0, 2)
        assert membership_prob_2d(ds, q) == pytest.approx(
            membership_enumeration(ds, q, in_hull_2d), abs=1e-9
        )


# --- face probabilities ---


def test_face_prob_validation(rng):
    ds = random_dataset(rng, 5, 2)
    with pytest.raises(DatasetError):
        face_prob(ds, (1, 1))
    with pytest.raises(DatasetError):
        face_prob(ds, (0, 9))
    with pytest.raises(CapabilityError):
        face_prob(ds, (0, 1, 2))  # k = d in the plane
    ds3 = random_dataset(rng, 6, 3)
    with pytest.raises(CapabilityError):
        face_prob(ds3, (0,))  # k = d - 3


def test_face_prob_rest_empty():
    ds = StochasticDataset([[0.0, 0.0], [1.0, 0.5]], [0.3, 0.7])
    assert face_prob(ds, (0, 1)) == pytest.approx(0.21)


def test_face_prob_matches_enumeration_2d(rng):
    for _ in range(6):
        n = int(rng.integers(4, 9))
        ds = random_dataset(rng, n, 2)
        for i in range(n):
            assert face_prob(ds, (i,)) == pytest.approx(
                face_prob_enumeration(ds, (i,)), abs=1e-9
            )
        for pair in combinations(range(n), 2):
            assert face_prob(ds, pair) == pytest.approx(
                face_prob_enumeration(ds, pair), abs=1e-9
            )


def test_face_prob_matches_enumeration_3d(rng):
    for _ in range(4):
        n = int(rng.integers(5, 9))
        ds = random_dataset(rng, n, 3)
        for pair in combinations(range(n), 2):
            assert face_prob(ds, pair) == pytest.approx(
                face_prob_enumeration(ds, pair), abs=1e-9
            )
        for tri in combinations(range(n), 3):
            assert face_prob(ds, tri) == pytest.approx(
                face_prob_enumeration(ds, tri), abs=1e-9
            )


# --- hyperplane sweep ---


def _collect_stats(ds):
    seen = {}

    def visit(stat):
        assert stat.on_plane not in seen, "hyperplane visited twice"
        seen[stat.on_plane] = (stat.p_pos, stat.p_neg)

    count = hyperplane_statistics(ds, visit)
    return count, seen


@pytest.mark.parametrize("n,d", [(6, 2), (9, 2), (5, 3), (7, 3)])
def test_sweep_matches_brute(rng, n, d):
    ds = random_dataset(rng, n, d)
    # moving point 1 along the first axis from point 0 gives hyperplanes
    # whose canonical normal has a zero first coordinate
    pts = ds.points.copy()
    pts[1] = pts[0] + 0.7 * np.eye(d)[0]
    for ds in (ds, StochasticDataset(pts, ds.probs)):
        count, seen = _collect_stats(ds)
        assert count == math.comb(n, d)
        assert len(seen) == count
        for sub, (bp, bn) in brute_hyperplane_stats(ds).items():
            gp, gn = seen[sub]
            assert gp == pytest.approx(bp, abs=1e-12)
            assert gn == pytest.approx(bn, abs=1e-12)


def test_sweep_with_certain_points(rng):
    # probability-1 points force the kernel's zero-count branch
    for d in (2, 3):
        pts = random_points(rng, 7, d)
        probs = np.full(7, 0.5)
        probs[2] = 1.0
        probs[5] = 1.0
        ds = StochasticDataset(pts, probs)
        _, seen = _collect_stats(ds)
        for sub, (bp, bn) in brute_hyperplane_stats(ds).items():
            assert seen[sub] == pytest.approx((bp, bn), abs=1e-12)


def test_sweep_degenerate_inputs():
    collinear = StochasticDataset(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [0.5] * 4
    )
    with pytest.raises(GeometryError, match=r"points \[0, 1, 2\] lie on a common"):
        hyperplane_statistics(collinear, lambda s: None)
    cube = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    with pytest.raises(GeometryError, match=r"points \[0, 1, 2, 3\] lie on a common"):
        hyperplane_statistics(StochasticDataset(cube, [0.5] * 8), lambda s: None)
    collinear3 = StochasticDataset(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.3, 1.0, 0.2]],
        [0.5] * 4,
    )
    with pytest.raises(GeometryError, match=r"point 2 lies on the affine span of .*\[0, 1\]"):
        hyperplane_statistics(collinear3, lambda s: None)
    # the same degeneracies reach face probabilities through the one kernel
    with pytest.raises(GeometryError, match=r"points \[0, 1, 2\] lie on a common"):
        face_prob(collinear, (0,))
    with pytest.raises(GeometryError, match=r"point 3 lies on the affine span of .*\[0, 1, 2\]"):
        face_prob(StochasticDataset(cube, [0.5] * 8), (0, 1, 2))
    # and the expected face counts, which need general position for Euler
    with pytest.raises(GeometryError, match=r"points \[0, 1, 2\] lie on a common"):
        expected_complexity(collinear)
    with pytest.raises(GeometryError, match=r"points \[0, 1, 2, 3\] lie on a common"):
        expected_face_counts(StochasticDataset(cube, [0.5] * 8))


def _subface_sum(ds):
    """Expected number of (d-2)-faces, summed from per-simplex face
    probabilities over the points (d = 2) or pairs (d = 3)."""
    return sum(face_prob(ds, f) for f in combinations(range(len(ds)), ds.dim - 1))


@pytest.mark.parametrize("d", [2, 3])
def test_terms_invariant_under_rigid_motion_and_order(d):
    # the sweep's 2-d frames and visit order depend on coordinates and
    # indices; the expected face counts must not
    rng = np.random.default_rng(20170424 + d)
    for _ in range(6):
        n = int(rng.integers(d + 2, 10))
        ds = random_dataset(rng, n, d)
        want = expected_face_counts(ds)
        want_subface = _subface_sum(ds)
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        perm = rng.permutation(n)
        moved = StochasticDataset(
            ds.points[perm] @ rot.T + rng.uniform(-5.0, 5.0, d), ds.probs[perm]
        )
        got = expected_face_counts(moved)
        assert got.shape == want.shape == (d,)
        assert got == pytest.approx(want, abs=1e-9)
        assert _subface_sum(moved) == pytest.approx(want_subface, abs=1e-9)


def test_sweep_dimension_guard(rng):
    ds = StochasticDataset(rng.uniform(-1, 1, (6, 4)), np.full(6, 0.5))
    with pytest.raises(CapabilityError):
        hyperplane_statistics(ds, lambda s: None)
    with pytest.raises(CapabilityError):
        expected_complexity(ds)


# --- complexity decomposition ---


def test_certain_triangle_terms():
    ds = StochasticDataset([[0.0, 0.0], [2.0, 0.0], [0.3, 1.7]], [1.0] * 3)
    assert expected_face_counts(ds) == pytest.approx([3.0, 3.0])
    assert expected_complexity(ds) == pytest.approx(6.0)


def test_certain_segment_terms():
    # a hull that is a single segment counts 2 vertices and 1 edge
    ds = StochasticDataset([[0.0, 0.0], [1.0, 0.3]], [1.0, 1.0])
    assert expected_face_counts(ds) == pytest.approx([2.0, 1.0])
    assert expected_complexity(ds) == pytest.approx(
        oracle_expectation(ds, "complexity")
    )


def test_certain_tetrahedron_terms():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]]
    ds = StochasticDataset(pts, [1.0] * 4)
    assert expected_face_counts(ds) == pytest.approx([4.0, 6.0, 4.0])
    assert expected_complexity(ds) == pytest.approx(14.0)


def test_expected_complexity_matches_oracle_2d(rng):
    for _ in range(8):
        n = int(rng.integers(2, 11))
        ds = random_dataset(rng, n, 2)
        assert expected_complexity(ds) == pytest.approx(
            oracle_expectation(ds, "complexity"), abs=1e-9
        )


def test_terms_match_face_expectations(rng):
    for _ in range(4):
        ds = random_dataset(rng, int(rng.integers(3, 9)), 2)
        ofe = oracle_face_expectations(ds)
        assert expected_face_counts(ds) == pytest.approx(ofe, abs=1e-9)
        assert _subface_sum(ds) == pytest.approx(ofe[0], abs=1e-9)
    for _ in range(3):
        ds = random_dataset(rng, int(rng.integers(4, 8)), 3)
        ofe = oracle_face_expectations(ds)
        assert expected_face_counts(ds) == pytest.approx(ofe, abs=1e-9)
        assert _subface_sum(ds) == pytest.approx(ofe[1], abs=1e-9)


def test_expected_face_counts_match_oracle_3d(rng):
    # every size from a lone point up, with probability-1 points on every
    # other dataset to reach the DP's and the kernel's zero branches
    for n in range(1, 11):
        ds = random_dataset(rng, n, 3)
        if n % 2 == 0:
            probs = ds.probs.copy()
            probs[rng.integers(0, n, size=2)] = 1.0
            ds = StochasticDataset(ds.points, probs)
        got = expected_face_counts(ds)
        want = oracle_face_expectations(ds)
        assert got.shape == (3,)
        assert got == pytest.approx(want, abs=1e-9), (n, got, want)
        assert expected_complexity(ds) == pytest.approx(
            oracle_expectation(ds, "complexity"), abs=1e-9
        )
