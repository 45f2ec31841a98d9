import ast
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schull
from schull import CapabilityError, DatasetError, GeometryError, StochasticDataset
from schull.geometry import EPS_GEO, distance_matrix

from conftest import random_dataset, random_points
from reference import (
    affine_rank,
    convex_hull,
    enumerate_realizations,
    pointset_width,
    recover_vertex_list,
    simplex_width,
    witness_prob,
    witness_sequence,
    witness_simplex,
    witness_simplex_prob,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_enumeration_matches_realization_prob(rng):
    for n in (6, 1, 5):
        ds = random_dataset(rng, n, 2)
        total = 0.0
        walk = list(enumerate_realizations(ds))
        # realization k holds point i iff bit i of k is set
        assert [idx for idx, _ in walk] == [
            tuple(i for i in range(n) if k >> i & 1) for k in range(1 << n)
        ]
        for idx, pr in walk:
            mask = np.isin(np.arange(n), idx)
            want = np.prod(np.where(mask, ds.probs, 1.0 - ds.probs))
            assert pr == pytest.approx(want, abs=1e-15)
            total += pr
        assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_enumeration_probabilities_sum_to_one(n, seed):
    r = np.random.default_rng(seed)
    ds = random_dataset(r, n, 2)
    assert sum(p for _, p in enumerate_realizations(ds)) == pytest.approx(1.0)


def _defined_names(node):
    """Names a module-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_package_defines_only_what_it_runs():
    # Every top-level function, class and constant of the package, dunders
    # aside, is read somewhere in the package or exported from its root.  An
    # import alone does not count, so code that only tests run belongs in
    # reference.py.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(schull.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if not name.startswith("__") and name not in used and name not in schull.__all__
    ]
    assert unused == []


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


def test_witness_simplex_square():
    # lex-max corner, farthest point from it, then farthest from their line
    assert witness_simplex(SQUARE) == (3, 0, 1)


def test_witness_simplex_degenerate():
    with pytest.raises(GeometryError):
        witness_simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_recover_vertex_list():
    assert recover_vertex_list(SQUARE, (0, 1, 3)) == (3, 0, 1)
    assert recover_vertex_list(SQUARE, (0, 2, 3)) == (3, 0, 2)
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert recover_vertex_list(collinear, (0, 1, 2)) is None
    with pytest.raises(DatasetError):
        recover_vertex_list(SQUARE, (0, 1))


def test_simplex_width_triangles():
    tri = SQUARE[[3, 0, 1]]  # right isoceles, legs 1, hypotenuse sqrt(2)
    assert simplex_width(tri) == pytest.approx(1.0 / math.sqrt(2.0))
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert simplex_width(eq) == pytest.approx(math.sqrt(3) / 2)
    with pytest.raises(GeometryError):
        simplex_width(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_simplex_width_tetrahedron():
    # unit regular tetrahedron: opposite-edge slab beats all four heights
    tet = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / math.sqrt(8.0)
    assert simplex_width(tet) == pytest.approx(1.0 / math.sqrt(2.0))
    # matches the generic width routine on the same 4 points
    assert simplex_width(tet) == pytest.approx(pointset_width(tet))
    # no absolute tolerance on a small simplex
    assert simplex_width(tet * 1e-5) == pytest.approx(1e-5 / math.sqrt(2.0))


def test_witness_simplex_prob_square():
    ds = StochasticDataset(SQUARE, [1.0, 1.0, 1.0, 1.0])
    assert witness_simplex_prob(ds, (3, 0, 1)) == pytest.approx(1.0)
    assert witness_simplex_prob(ds, (3, 0, 2)) == 0.0  # loses the tie to 1
    assert witness_simplex_prob(ds, (0, 3, 1)) == 0.0  # wrong construction order
    with pytest.raises(DatasetError):
        witness_simplex_prob(ds, (0, 1))


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
