import numpy as np
import pytest

from schull import GeometryError
from schull.geometry import (
    _least_extent,
    _order_by_distance,
    distance_matrix,
    dists_to_flat,
    lex_ranks,
)

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
    empty = lex_ranks(np.zeros((0, 3)))
    assert empty.dtype == np.intp and empty.shape == (0,)
    for shape in ((2, 0), (0, 0)):
        with pytest.raises(GeometryError):
            lex_ranks(np.zeros(shape))


@pytest.mark.parametrize("d", [2, 3])
def test_order_by_distance_matches_lexsort(rng, d):
    # The stable distance sort over columns in ascending lex rank must give
    # the row-wise (distance, lex) lexsort, exact distance ties included:
    # the far-to-near products of the width decomposition keep their bits
    # only if it does.
    for pts in (rng.integers(0, 3, size=(30, d)).astype(float), random_points(rng, 30, d)):
        dist = distance_matrix(pts)
        ranks = lex_ranks(pts)
        by_rank = np.argsort(ranks)
        rowwise = np.array([np.lexsort((ranks, row)) for row in dist])
        assert np.array_equal(_order_by_distance(dist[:, by_rank], by_rank), rowwise)


def test_flat_distances():
    ok, dist = dists_to_flat([[0.5, 3.0]], [[[0.0, 0.0], [1.0, 0.0]]])
    assert ok.tolist() == [True] and dist[0] == pytest.approx([3.0])
    ok, dist = dists_to_flat([[9.0, -4.0, 2.5]], [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]])
    assert ok.tolist() == [True] and dist[0] == pytest.approx([2.5])
    # a single spanning point is a 0-dimensional flat; flats batch along axis 0
    ok, dist = dists_to_flat([[4.0, 5.0], [1.0, 1.0]], [[[1.0, 1.0]], [[4.0, 5.0]]])
    assert ok.tolist() == [True, True]
    assert dist[0] == pytest.approx([5.0, 0.0]) and dist[1] == pytest.approx([0.0, 5.0])


def test_dists_to_flat_flags_dependent_spans():
    spans = [[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]
    ok, _ = dists_to_flat([[0.0, 0.0]], spans)
    assert ok.tolist() == [False, True]


@pytest.mark.parametrize("d", [2, 3])
def test_least_extent_batch_bits(rng, d):
    # One kernel call over a stack of simplices gives each width the bits of
    # its own call, so the width witness may batch simplices freely.  The
    # stacks: random simplices, integer-grid simplices (exact ties, some
    # degenerate) and, at d = 3, simplices with a vertex on the line through
    # two others, whose parallel edge differences give NaN candidate rows.
    k = 60
    stacks = [random_points(rng, k * (d + 1), d).reshape(k, d + 1, d),
              rng.integers(0, 3, size=(k, d + 1, d)).astype(float)]
    if d == 3:
        tri = random_points(rng, k * 3, 3).reshape(k, 3, 3)
        stacks.append(np.concatenate([tri, 2.0 * tri[:, 1:2] - tri[:, :1]], axis=1))
    for simplices in stacks:
        single = np.concatenate([_least_extent(s[None]) for s in simplices])
        assert np.array_equal(_least_extent(simplices), single)
