import numpy as np
import pytest

from schull import GeometryError
from schull.geometry import dists_to_flat, lex_ranks, project_orthocomplement

from conftest import random_points


def test_lex_ranks_match_pairwise_order(rng):
    pts = random_points(rng, 20, 3)
    # shared leading coordinates exercise the later keys
    pts[5:10, 0] = pts[0, 0]
    pts[7:9, 1] = pts[0, 1]
    ranks = lex_ranks(pts)
    for i in range(20):
        for j in range(20):
            if i != j:
                assert (ranks[i] < ranks[j]) == (tuple(pts[i]) < tuple(pts[j]))


def test_flat_distances():
    ok, dist = dists_to_flat([[0.5, 3.0]], [[[0.0, 0.0], [1.0, 0.0]]])
    assert ok.tolist() == [True] and dist[0] == pytest.approx([3.0])
    ok, dist = dists_to_flat([[9.0, -4.0, 2.5]], [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]])
    assert ok.tolist() == [True] and dist[0] == pytest.approx([2.5])
    # a single spanning point is a 0-dimensional flat; flats batch along axis 0
    ok, dist = dists_to_flat([[4.0, 5.0], [1.0, 1.0]], [[[1.0, 1.0]], [[4.0, 5.0]]])
    assert ok.tolist() == [True, True]
    assert dist[0] == pytest.approx([5.0, 0.0]) and dist[1] == pytest.approx([0.0, 5.0])


def test_flat_through_rejects_dependent_points():
    spans = [[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]
    ok, _ = dists_to_flat([[0.0, 0.0]], spans)
    assert ok.tolist() == [False, True]


def test_project_orthocomplement_preserves_transverse_distances(rng):
    pts = random_points(rng, 12, 3)
    span = pts[:2]
    images, q = project_orthocomplement(pts, span)
    assert images.shape == (12, 2)
    # both spanning points share the image q
    assert np.allclose(images[0], q) and np.allclose(images[1], q)
    # distances to the span line equal image distances to q
    ok, (expect,) = dists_to_flat(pts, span[None])
    assert ok[0]
    got = np.linalg.norm(images - q, axis=1)
    assert np.allclose(expect, got, atol=1e-9)


def test_project_orthocomplement_identity_for_single_point(rng):
    pts = random_points(rng, 5, 2)
    images, q = project_orthocomplement(pts, pts[:1])
    assert np.allclose(images, pts)
    assert np.allclose(q, pts[0])


def test_project_orthocomplement_degenerate():
    with pytest.raises(GeometryError):
        project_orthocomplement(
            np.zeros((1, 3)), [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
        )
