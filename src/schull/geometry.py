"""Deterministic geometric primitives.

Everything downstream (estimators, enumeration oracles, the sweep) is built
on the helpers in this module: the (distance, lex) order, in which the
lexicographic point order breaks distance ties, distance tables,
distance-to-flat computations, orthogonal-complement projections, small
exact convex hull routines for dimensions 2 and 3, and the width kernel.

Ties and degeneracy are decided with a single absolute tolerance
``EPS_GEO``; inputs are expected to be desk-scale (coordinates up to ~1e3).
The width kernel, ``_least_extent``, needs no tolerance at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapabilityError, GeometryError

# Absolute tolerance for distance ties and degeneracy predicates.
EPS_GEO = 1e-9

HULL_DIMS = (2, 3)


def as_points(points) -> np.ndarray:
    """Coerce to a (m, d) float64 array and reject non-finite coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise GeometryError(f"expected a 2-d point array, got shape {pts.shape}")
    if pts.size and not np.isfinite(pts).all():
        raise GeometryError("non-finite coordinate in point array")
    return pts


def as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=np.float64).reshape(-1)
    if q.size and not np.isfinite(q).all():
        raise GeometryError("non-finite coordinate in point")
    return q


def lex_ranks(points) -> np.ndarray:
    """Rank of each point in lexicographic order (0 = smallest)."""
    pts = as_points(points)
    m, d = pts.shape
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort(tuple(pts[:, c] for c in reversed(range(d))))
    ranks = np.empty(m, dtype=np.intp)
    ranks[order] = np.arange(m)
    return ranks


def after_in_order(dist, ref, ranks, ref_rank):
    """Mask of points strictly after the reference in the (distance, lex) order.

    A point is after the reference when it is farther by more than EPS_GEO,
    or tied within EPS_GEO and lex-larger.  The rule is elementwise, so a
    column of references against a row of points gives the whole matrix.
    """
    tie = np.abs(dist - ref) <= EPS_GEO
    return ((dist > ref) & ~tie) | (tie & (ranks > ref_rank))


def last_in_order(dist, ranks) -> int:
    """Index of the farthest point; distance ties go to the lex-largest."""
    ties = np.flatnonzero(dist >= dist.max() - EPS_GEO)
    return int(ties[np.argmax(ranks[ties])])


def distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of a (m, d) point array."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@dataclass(frozen=True)
class Flat:
    """Affine flat given by a base point and an orthonormal direction basis.

    ``basis`` has shape (k, d) with orthonormal rows; k = 0 encodes a single
    point.
    """

    base: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def flat_through(points) -> Flat:
    """The affine flat spanned by the given affinely independent points."""
    pts = as_points(points)
    m, d = pts.shape
    if m == 0:
        raise GeometryError("flat_through: need at least one point")
    base = pts[0]
    if m == 1:
        return Flat(base, np.zeros((0, d)))
    diffs = (pts[1:] - base).T  # (d, k)
    q, r = np.linalg.qr(diffs)
    if np.abs(np.diag(r)).min() <= EPS_GEO:
        raise GeometryError("flat_through: affinely dependent spanning points")
    return Flat(base, np.ascontiguousarray(q.T))


def dists_to_flat(points, flat: Flat) -> np.ndarray:
    """Euclidean distances from each point to the flat (vectorized)."""
    pts = as_points(points)
    w = pts - flat.base
    if flat.dim:
        w = w - (w @ flat.basis.T) @ flat.basis
    return np.linalg.norm(w, axis=1)


def project_orthocomplement(points, spanning):
    """Project points onto the orthogonal complement of a difference span.

    ``spanning`` lists k+1 points; their k difference vectors must be
    linearly independent.  Every point is mapped to its coordinates in an
    orthonormal frame of the (d-k)-dimensional complement, so pairwise
    distances orthogonal to the span are preserved and all spanning points
    share one image.

    Returns ``(images, span_image)`` where images has shape (m, d-k).
    """
    pts = as_points(points)
    sp = as_points(spanning)
    d = sp.shape[1]
    if pts.size and pts.shape[1] != d:
        raise GeometryError("project_orthocomplement: dimension mismatch")
    k = len(sp) - 1
    if k < 0:
        raise GeometryError("project_orthocomplement: empty spanning set")
    if k >= d:
        raise GeometryError("project_orthocomplement: span must have dimension < d")
    if k == 0:
        comp = np.eye(d)
    else:
        diffs = (sp[1:] - sp[0]).T  # (d, k)
        u, s, _ = np.linalg.svd(diffs, full_matrices=True)
        if s.min() <= EPS_GEO:
            raise GeometryError("project_orthocomplement: degenerate spanning set")
        comp = u[:, k:]
    images = pts @ comp if pts.size else np.zeros((len(pts), d - k))
    span_image = sp[0] @ comp
    return images, span_image


def affine_rank(points) -> tuple[int, np.ndarray]:
    """Affine dimension of a point set plus an orthonormal basis of its span.

    Returns ``(rank, basis)`` with basis rows spanning the direction space of
    the affine hull (shape (rank, d)).
    """
    pts = as_points(points)
    m, d = pts.shape
    if m <= 1:
        return 0, np.zeros((0, d))
    centered = pts - pts.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > EPS_GEO))
    return rank, vt[:rank]


@dataclass(frozen=True)
class HullSummary:
    """Face census of a convex hull in R^d (d in {2, 3}).

    ``face_counts[k]`` counts the k-dimensional faces.  A hull of affine
    dimension r < d contributes the faces of the r-dimensional hull plus the
    hull itself (its dimension r is at most d-1), so a segment in the plane
    reports [2, 1] and a planar polygon in space reports [h, h, 1].
    """

    dim_of_hull: int
    face_counts: tuple[int, ...]
    vertices: np.ndarray


def _hull2d_indices(pts: np.ndarray) -> list[int]:
    """Monotone-chain hull; returns vertex indices in CCW order.

    Collinear boundary points are popped, so only strict corners survive.
    Assumes affine rank 2.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - (
            pts[a][1] - pts[o][1]
        ) * (pts[b][0] - pts[o][0])

    def half(seq):
        chain: list[int] = []
        for i in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], i) <= EPS_GEO:
                chain.pop()
            chain.append(int(i))
        return chain

    lower = half(order)
    upper = half(order[::-1])
    return lower[:-1] + upper[:-1]


@dataclass
class _Hull3D:
    n_facets: int
    facet_normals: np.ndarray  # (F, 3)
    adjacency: list[tuple[int, int]]  # unordered merged-facet pairs sharing an edge
    vertex_ids: list[int]  # point indices that are true corners


def _build_hull3d(pts: np.ndarray) -> _Hull3D:
    """Incremental 3-d hull with coplanar-facet merging.

    Desk-scale, O(n^2)-ish; meant for oracle work on small inputs, not for
    large point clouds.  Assumes affine rank 3.
    """
    m = len(pts)

    # Seed tetrahedron: spread-out, deterministic choices.
    i0 = int(np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))[0])
    d0 = np.linalg.norm(pts - pts[i0], axis=1)
    i1 = int(np.argmax(d0))
    line = flat_through(pts[[i0, i1]])
    d1 = dists_to_flat(pts, line)
    i2 = int(np.argmax(d1))
    plane = flat_through(pts[[i0, i1, i2]])
    d2 = dists_to_flat(pts, plane)
    i3 = int(np.argmax(d2))
    if d2[i3] <= EPS_GEO:
        raise GeometryError("hull3d: input not full-dimensional")
    seed = [i0, i1, i2, i3]
    interior = pts[seed].mean(axis=0)

    def make_face(a: int, b: int, c: int):
        n = np.cross(pts[b] - pts[a], pts[c] - pts[a])
        norm = np.linalg.norm(n)
        if norm <= EPS_GEO:
            raise GeometryError("hull3d: degenerate face (near-collinear corners)")
        n = n / norm
        off = float(n @ pts[a])
        if n @ interior - off > 0:
            n, off = -n, -off
            a, b = b, a
        return (a, b, c), n, off

    faces: list[tuple[tuple[int, int, int], np.ndarray, float]] = []
    for tri in ((i0, i1, i2), (i0, i1, i3), (i0, i2, i3), (i1, i2, i3)):
        faces.append(make_face(*tri))

    rest = [i for i in range(m) if i not in seed]
    for p in rest:
        vis = [fi for fi, (_, n, off) in enumerate(faces) if n @ pts[p] - off > -EPS_GEO]
        if not vis:
            continue  # inside the current hull
        # Horizon: edges of the visible region that are not interior to it.
        edge_count: dict[tuple[int, int], int] = {}
        for fi in vis:
            tri = faces[fi][0]
            for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(e), max(e))
                edge_count[key] = edge_count.get(key, 0) + 1
        horizon = [e for e, c in edge_count.items() if c == 1]
        keep = [f for fi, f in enumerate(faces) if fi not in set(vis)]
        for a, b in horizon:
            keep.append(make_face(a, b, p))
        faces = keep

    triangles = [f[0] for f in faces]
    normals = np.array([f[1] for f in faces])
    offsets = np.array([f[2] for f in faces])

    # Merge coplanar adjacent triangles into facets (union-find).
    nf = len(faces)
    parent = list(range(nf))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fi, tri in enumerate(triangles):
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_faces.setdefault((min(e), max(e)), []).append(fi)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise GeometryError("hull3d: non-manifold edge (degenerate input)")
        fa, fb = fs
        # Coplanar iff every corner of one lies on the other's plane.
        if np.all(np.abs(normals[fa] @ pts[list(triangles[fb])].T - offsets[fa]) <= EPS_GEO):
            ra, rb = find(fa), find(fb)
            if ra != rb:
                parent[ra] = rb

    comp_ids: dict[int, int] = {}
    comp_of = []
    for fi in range(nf):
        r = find(fi)
        comp_ids.setdefault(r, len(comp_ids))
        comp_of.append(comp_ids[r])
    n_facets = len(comp_ids)
    facet_normals = np.zeros((n_facets, 3))
    for fi in range(nf):
        facet_normals[comp_of[fi]] = normals[fi]

    adjacency = set()
    for e, (fa, fb) in edge_faces.items():
        ca, cb = comp_of[fa], comp_of[fb]
        if ca != cb:
            adjacency.add((min(ca, cb), max(ca, cb)))

    comps_at_point: dict[int, set[int]] = {}
    for fi, tri in enumerate(triangles):
        for v in tri:
            comps_at_point.setdefault(v, set()).add(comp_of[fi])
    vertex_ids = sorted(v for v, comps in comps_at_point.items() if len(comps) >= 3)

    v, e, f = len(vertex_ids), len(adjacency), n_facets
    if v - e + f != 2:
        raise GeometryError(f"hull3d: Euler check failed (V={v}, E={e}, F={f})")

    return _Hull3D(n_facets=n_facets, facet_normals=facet_normals,
                   adjacency=sorted(adjacency), vertex_ids=vertex_ids)


def _full_rank_hull_census(coords: np.ndarray) -> tuple[list[int], list[int]]:
    """Face counts and vertex indices for a full-rank point set in R^k, k<=3."""
    k = coords.shape[1]
    if k == 1:
        imin = int(np.argmin(coords[:, 0]))
        imax = int(np.argmax(coords[:, 0]))
        return [2], [imin, imax]
    if k == 2:
        idx = _hull2d_indices(coords)
        return [len(idx), len(idx)], idx
    hull = _build_hull3d(coords)
    return (
        [len(hull.vertex_ids), len(hull.adjacency), hull.n_facets],
        hull.vertex_ids,
    )


def convex_hull(points) -> HullSummary:
    """Face census of the convex hull of a point set in R^2 or R^3."""
    pts = as_points(points)
    m, d = pts.shape
    if d not in HULL_DIMS:
        raise CapabilityError(f"convex_hull supports d in {HULL_DIMS}, got d={d}")
    if m == 0:
        return HullSummary(-1, tuple([0] * d), pts.copy())
    rank, basis = affine_rank(pts)
    if rank == 0:
        counts = [1] + [0] * (d - 1)
        return HullSummary(0, tuple(counts), pts[:1].copy())
    if rank == d:
        counts, vid = _full_rank_hull_census(pts)
        return HullSummary(d, tuple(counts), pts[vid].copy())
    # Degenerate hull: census the lower-dimensional hull in its own
    # coordinates, then count the hull itself as one rank-dimensional face.
    coords = (pts - pts.mean(axis=0)) @ basis.T
    counts, vid = _full_rank_hull_census(coords)
    counts = counts + [1]
    counts += [0] * (d - len(counts))
    return HullSummary(rank, tuple(counts), pts[vid].copy())


def _width_candidates_2d(pts: np.ndarray) -> np.ndarray:
    idx = _hull2d_indices(pts)
    h = len(idx)
    dirs = []
    for t in range(h):
        a, b = pts[idx[t]], pts[idx[(t + 1) % h]]
        e = b - a
        n = np.array([-e[1], e[0]])
        norm = np.linalg.norm(n)
        if norm > EPS_GEO:
            dirs.append(n / norm)
    return np.array(dirs)


def _width_candidates_3d(pts: np.ndarray) -> np.ndarray:
    hull = _build_hull3d(pts)
    dirs = [hull.facet_normals[c] for c in range(hull.n_facets)]
    edge_dirs = []
    for ca, cb in hull.adjacency:
        e = np.cross(hull.facet_normals[ca], hull.facet_normals[cb])
        norm = np.linalg.norm(e)
        if norm > EPS_GEO:
            edge_dirs.append(e / norm)
    for a in range(len(edge_dirs)):
        for b in range(a + 1, len(edge_dirs)):
            n = np.cross(edge_dirs[a], edge_dirs[b])
            norm = np.linalg.norm(n)
            if norm > EPS_GEO:
                dirs.append(n / norm)
    return np.array(dirs)


def pointset_width(points) -> float:
    """Minimum slab width of a point set in R^2 or R^3, from its hull.

    The optimal direction of a convex body is normal to a hull edge (d=2) or
    realized by a facet normal / a cross product of two hull edge directions
    (d=3), so minimizing the directional extent over those candidates is
    exact.  Point sets of affine rank < d have width 0.  The library uses
    ``_least_extent``; this routine is its independent hull-based reference.
    """
    pts = as_points(points)
    m, d = pts.shape
    if d not in HULL_DIMS:
        raise CapabilityError(f"pointset_width supports d in {HULL_DIMS}, got d={d}")
    if m == 0:
        raise GeometryError("pointset_width: empty point set")
    if affine_rank(pts)[0] < d:
        return 0.0
    dirs = _width_candidates_2d(pts) if d == 2 else _width_candidates_3d(pts)
    proj = pts @ dirs.T
    return float((proj.max(axis=0) - proj.min(axis=0)).min())


_EXTENT_CHUNK = 1 << 14  # most values per point set in a width-kernel array


def _candidate_directions(pts: np.ndarray) -> Iterator[np.ndarray]:
    """Candidate width directions of point sets, unit length, in chunks.

    ``pts`` has shape (..., k, d) and each chunk (..., c, d), with c * k at
    most ``_EXTENT_CHUNK``.  d = 2: the normals of the point pairs.  d = 3:
    the cross products of two pair differences, which include every
    triangle normal.  They hold the optimal direction of every subset: a
    facet normal, or the cross product of two edge directions (Houle and
    Toussaint, 1988).  The rows of parallel differences are NaN.
    """
    k, d = pts.shape[-2:]
    i, j = np.triu_indices(k, 1)
    diff = pts[..., j, :] - pts[..., i, :]
    a, b = np.triu_indices(len(i), 1) if d == 3 else (np.arange(len(i)), None)
    step = max(1, _EXTENT_CHUNK // k)
    for s in range(0, len(a), step):
        e = diff[..., a[s:s + step], :]
        u = (np.stack([-e[..., 1], e[..., 0]], axis=-1) if d == 2
             else np.cross(e, diff[..., b[s:s + step], :]))
        norm = np.linalg.norm(u, axis=-1, keepdims=True)
        yield np.divide(u, norm, out=np.full_like(u, np.nan), where=norm > 0.0)


def _least_extent(pts: np.ndarray, present: np.ndarray | None = None) -> np.ndarray:
    """Widths of point sets: the least extent over the candidate directions.

    Each extent is at least the width and the optimal direction is a
    candidate, so the minimum is exact, with no tolerance.  ``pts`` is a
    batch of point sets (..., k, d) and the result has shape (...); with
    ``present`` (rows, k), ``pts`` is one set (k, d) and row r gives the
    width of its present points.  A set on one line in R^3 has no candidate
    direction and width 0.
    """
    width = np.full(pts.shape[:-2] if present is None else len(present), np.nan)
    for u in _candidate_directions(pts):
        proj = u @ np.swapaxes(pts, -1, -2)  # (..., c, k)
        if present is None:
            np.fmin(width, np.fmin.reduce(np.ptp(proj, axis=-1), axis=-1), out=width)
            continue
        step = max(1, _EXTENT_CHUNK // proj.size)
        for r in range(0, len(present), step):
            sel = present[r:r + step, None, :]
            top = np.where(sel, proj, -np.inf).max(axis=-1)
            ext = top - np.where(sel, proj, np.inf).min(axis=-1)
            part = width[r:r + step]
            np.fmin(part, np.fmin.reduce(ext, axis=-1), out=part)
    width[np.isnan(width)] = 0.0
    return width
