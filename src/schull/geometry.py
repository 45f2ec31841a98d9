"""Deterministic geometric primitives.

Everything downstream (estimators, enumeration oracles, the sweep) is built
on the helpers in this module: the (distance, lex) order, in which the
lexicographic point order breaks distance ties, distance tables,
distance-to-flat computations, orthogonal-complement projections and the
width kernel.

Ties and degeneracy are decided with a single absolute tolerance
``EPS_GEO``; inputs are expected to be desk-scale (coordinates up to ~1e3).
The width kernel, ``_least_extent``, needs no tolerance at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GeometryError

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
