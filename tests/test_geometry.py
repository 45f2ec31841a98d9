import numpy as np
import pytest

from schull import CapabilityError, GeometryError, hardness_instance
from schull.geometry import (
    _candidate_directions,
    _direction_count,
    _least_extent,
    _order_keys,
    distance_matrix,
    dists_to_flat,
    lex_ranks,
)

from conftest import chain_dataset, random_points
from reference import after_in_order


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


def test_direction_count_matches_candidate_rows(rng):
    for d in (2, 3):
        for k in range(2, 9):
            chunks = _candidate_directions(random_points(rng, k, d))
            assert _direction_count(k, d) == sum(u.shape[-2] for u in chunks)


def _pairwise_after(dist, ranks):
    # after[b, x, y]: x after y in row b by the pairwise EPS_GEO rule
    return after_in_order(dist[:, :, None], dist[:, None, :], ranks[:, None], ranks)


def test_order_keys_strict_on_chain_rows():
    # On a chain of near ties the pairwise rule is cyclic (each point after
    # the next, the last after the first), so no realization holding the
    # chain has a last point.  The keys put the chain in one class, ordered
    # by lex rank alone, and order every point of the row.
    k = 10
    planar = chain_dataset(k).points
    a = np.linspace(1.45, 0.3, k)
    r = 5.0 + np.arange(k) * 0.6e-9
    # in space: the same chain about the line through two lex-larger points
    spatial = np.vstack([[[21.0, 0.0, 0.0], [20.0, 0.0, 0.0]], np.column_stack(
        [10.0 - np.arange(k), r * np.cos(a), r * np.sin(a)])])
    flat_rows = dists_to_flat(spatial, spatial[None, :2])
    for pts, dist, chain in ((planar, distance_matrix(planar[:1], planar), np.arange(1, k + 1)),
                             (spatial, flat_rows, np.arange(2, k + 2))):
        ranks = lex_ranks(pts)
        assert (np.diff(ranks[chain]) < 0).all()
        after = _pairwise_after(dist, ranks)[0]
        assert after[chain[:-1], chain[1:]].all() and after[chain[-1], chain[0]]
        keys = _order_keys(dist, ranks)
        assert keys.dtype == np.int32 and len(set(keys[0].tolist())) == len(pts)
        assert np.array_equal(np.argsort(keys[0, chain]), np.argsort(ranks[chain]))
        assert (keys[0, chain] > np.delete(keys[0], chain)[:, None]).all()


@pytest.mark.parametrize("d", [2, 3])
def test_order_keys_match_pairwise_rule_without_chains(rng, d):
    # Where no run of near ties spans more than EPS_GEO the keys decide
    # "after" exactly as the pairwise rule does: random rows, integer-grid
    # rows with exact ties, two-distance rows and rows of flat distances.
    pts_sets = [random_points(rng, 30, d), rng.integers(0, 3, size=(30, d)).astype(float),
                hardness_instance(d + 5, [(k, (k + 1) % (d + 5)) for k in range(d + 5)])
                .dataset.points]
    for pts in pts_sets:
        ranks = lex_ranks(pts)
        spans = pts[rng.integers(0, len(pts), size=(12, min(d, pts.shape[1])))]
        for dist in (distance_matrix(pts), dists_to_flat(pts, spans)):
            keys = _order_keys(dist, ranks)
            assert np.array_equal(keys[:, :, None] > keys[:, None, :], _pairwise_after(dist, ranks))


def test_order_keys_refuse_rows_past_int32():
    # key = class * n + rank stays below n^2, which int32 holds up to n = 46,340;
    # here every point is a class of its own, the lex-largest nearest
    n = 46340
    keys = _order_keys(np.arange(n, dtype=float)[None], np.arange(n)[::-1])[0]
    assert keys[0] == n - 1 and (np.diff(keys) > 0).all()
    with pytest.raises(CapabilityError, match="46,340"):
        _order_keys(np.zeros((1, n + 1)), np.arange(n + 1))


def test_flat_distances():
    dist = dists_to_flat([[0.5, 3.0]], [[[0.0, 0.0], [1.0, 0.0]]])
    assert dist[0] == pytest.approx([3.0])
    dist = dists_to_flat([[9.0, -4.0, 2.5]], [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]])
    assert dist[0] == pytest.approx([2.5])
    # a single spanning point is a 0-dimensional flat; flats batch along axis 0
    dist = dists_to_flat([[4.0, 5.0], [1.0, 1.0]], [[[1.0, 1.0]], [[4.0, 5.0]]])
    assert dist[0] == pytest.approx([5.0, 0.0]) and dist[1] == pytest.approx([0.0, 5.0])


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
