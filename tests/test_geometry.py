import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schull import CapabilityError, GeometryError
from schull.geometry import (
    EPS_GEO,
    distance_matrix,
    dists_to_flat,
    flat_through,
    lex_ranks,
    project_orthocomplement,
)

from conftest import random_points
from reference import affine_rank, convex_hull, pointset_width


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
    line = flat_through([[0.0, 0.0], [1.0, 0.0]])
    assert dists_to_flat([[0.5, 3.0]], line) == pytest.approx([3.0])
    plane = flat_through([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert dists_to_flat([[9.0, -4.0, 2.5]], plane) == pytest.approx([2.5])
    point = flat_through([[1.0, 1.0]])
    assert point.dim == 0
    assert dists_to_flat([[4.0, 5.0], [1.0, 1.0]], point) == pytest.approx([5.0, 0.0])


def test_flat_through_rejects_dependent_points():
    with pytest.raises(GeometryError):
        flat_through([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_project_orthocomplement_preserves_transverse_distances(rng):
    pts = random_points(rng, 12, 3)
    span = pts[:2]
    images, q = project_orthocomplement(pts, span)
    assert images.shape == (12, 2)
    # both spanning points share the image q
    assert np.allclose(images[0], q) and np.allclose(images[1], q)
    # distances to the span line equal image distances to q
    line = flat_through(span)
    expect = dists_to_flat(pts, line)
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


def test_affine_rank_cases(rng):
    assert affine_rank(np.zeros((1, 3)))[0] == 0
    assert affine_rank([[0.0, 0.0], [1.0, 1.0]])[0] == 1
    assert affine_rank([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])[0] == 2
    assert affine_rank(random_points(rng, 9, 3))[0] == 3


# --- convex hull census ---


def test_hull_square():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h = convex_hull(sq)
    assert h.dim_of_hull == 2
    assert h.face_counts == (4, 4)
    assert sorted(map(tuple, h.vertices.tolist())) == sorted(map(tuple, sq.tolist()))


def test_hull_square_with_interior_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    h = convex_hull(pts)
    assert h.face_counts == (4, 4)
    assert (0.5, 0.5) not in set(map(tuple, h.vertices.tolist()))


def test_hull_collinear_and_point():
    seg = convex_hull(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
    assert seg.dim_of_hull == 1
    assert seg.face_counts == (2, 1)
    pt = convex_hull(np.array([[3.0, 4.0]]))
    assert pt.dim_of_hull == 0
    assert pt.face_counts == (1, 0)


def test_hull_boundary_collinear_point_not_vertex():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    h = convex_hull(pts)
    assert h.face_counts == (3, 3)
    assert 2 not in h.vertices.tolist()


def test_hull_cube_tetra_octa():
    cube = np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    h = convex_hull(cube)
    assert h.face_counts == (8, 12, 6)
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert convex_hull(tet).face_counts == (4, 6, 4)
    octa = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    assert convex_hull(octa).face_counts == (6, 12, 8)


def test_hull_degenerate_in_3d():
    planar = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    h = convex_hull(planar)
    assert h.dim_of_hull == 2
    assert h.face_counts == (4, 4, 1)
    tri = convex_hull(planar[:3])
    assert tri.face_counts == (3, 3, 1)
    seg = convex_hull(np.array([[0, 0, 0], [1, 2, 3]], dtype=float))
    assert seg.face_counts == (2, 1, 0)
    pt = convex_hull(np.array([[5, 5, 5]], dtype=float))
    assert pt.face_counts == (1, 0, 0)


def test_hull_euler_on_random_clouds(rng):
    for n in (5, 9, 15, 30):
        pts = random_points(rng, n, 3)
        v, e, f = convex_hull(pts).face_counts
        assert v - e + f == 2


def test_hull_interior_points_never_vertices(rng):
    pts = random_points(rng, 25, 2)
    h = convex_hull(pts)
    verts = set(map(tuple, h.vertices.tolist()))
    varr = np.array(sorted(verts))
    centroid = varr.mean(axis=0)
    # points strictly inside must be excluded; verify via support comparison
    for i in range(25):
        if tuple(pts[i].tolist()) not in verts:
            direction = pts[i] - centroid
            nd = np.linalg.norm(direction)
            if nd < 1e-12:
                continue
            direction /= nd
            assert pts[i] @ direction <= (varr @ direction).max() + 1e-9


def test_hull_dimension_guard():
    with pytest.raises(CapabilityError):
        convex_hull(np.zeros((3, 4)))


# --- width ---


def test_width_known_shapes():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert pointset_width(sq) == pytest.approx(1.0)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    assert pointset_width(tri) == pytest.approx(np.sqrt(3) / 2)
    cube = np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    assert pointset_width(cube) == pytest.approx(1.0)
    # unit regular tetrahedron: the opposite-edge slab wins over the heights
    tet = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(8)
    assert pointset_width(tet) == pytest.approx(1.0 / np.sqrt(2))


def test_width_degenerate_rank():
    assert pointset_width(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0
    assert pointset_width(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)) == 0.0
    assert pointset_width(np.array([[2.0, 2.0]])) == 0.0


def test_width_rigid_motion_invariant(rng):
    for d in (2, 3):
        pts = random_points(rng, 14, d)
        w0 = pointset_width(pts)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        moved = pts @ q.T + rng.normal(size=d)
        assert pointset_width(moved) == pytest.approx(w0, rel=1e-9)


def test_width_is_min_directional_extent(rng):
    for d in (2, 3):
        pts = random_points(rng, 12, d)
        w = pointset_width(pts)
        dirs = rng.normal(size=(400, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ext = (pts @ dirs.T).max(axis=0) - (pts @ dirs.T).min(axis=0)
        assert w <= ext.min() + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=16), st.integers(min_value=0, max_value=2**31))
def test_width_at_most_diameter(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 2))
    assert pointset_width(pts) <= distance_matrix(pts).max() + EPS_GEO
