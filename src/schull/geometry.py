"""Deterministic geometric primitives.

Everything downstream (estimators, enumeration oracles, the sweep) is built
on the helpers in this module: the (distance, lex) order ``_order_keys``,
distance tables, distance-to-flat computations, the width kernel, the
width's ``_runs`` and, for both witness sums, ``_walk``, ``_steps`` and
``_negligible``.  The order cuts each row's sorted distances into tie
classes at every gap above one absolute tolerance ``EPS_GEO``, the lex-larger
point last within a class; degeneracy is decided with the same tolerance,
for desk-scale inputs (coordinates up to ~1e3).  The width kernel,
``_least_extent``, needs no tolerance at any scale.
"""

from __future__ import annotations

import math
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
    if d == 0:
        raise GeometryError("lex_ranks needs points with at least one coordinate")
    order = np.lexsort(tuple(pts[:, c] for c in reversed(range(d))))
    ranks = np.empty(m, dtype=np.intp)
    ranks[order] = np.arange(m)
    return ranks


def _order_keys(dist: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Each row's (distance, lex) order as int32 keys: in row b of ``dist``
    (B, n), "x after y" is key[x] > key[y].  A row's sorted distances start
    a tie class at every gap above EPS_GEO, and key = class * n + lex rank:
    a strict total order, and the pairwise rule (farther by more than
    EPS_GEO, or within it and lex-larger) where no class spans more."""
    if dist.shape[1] ** 2 > 2**31:
        raise CapabilityError("int32 order keys hold at most 46,340 points a row")
    rows = np.arange(len(dist))[:, None]
    order = np.argsort(dist, axis=1, kind="stable")
    keys = np.zeros(dist.shape, dtype=np.int32)  # the class of each sorted position
    np.cumsum(np.diff(dist[rows, order], axis=1) > EPS_GEO, axis=1, out=keys[:, 1:])
    keys[rows, order] = keys * dist.shape[1] + ranks.astype(np.int32)[order]
    return keys


def _order_by_distance(dist: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row's columns sorted by (exact distance, lex rank), a strict
    order with no tolerance.  ``cols`` lists the columns of ``dist`` in
    ascending lex rank, so a stable sort on distance alone breaks exact
    ties by rank, as ``np.lexsort((ranks, dist_row))`` does.
    """
    return cols[np.argsort(dist, axis=1, kind="stable")]


def distance_matrix(pts: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances from each row of ``pts`` to each row of ``other``
    (default ``pts``): a (len(pts), len(other)) table."""
    other = pts if other is None else other
    diff = pts[:, None, :] - other[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def dists_to_flat(points, spans) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distances from each point to each of a batch of affine flats.

    ``spans`` has shape (B, k, d): flat b passes through its k points.
    Returns ``(ok, dist)`` with dist of shape (B, m).  ok[b] is False when
    the k points are affinely dependent (a pivot of the QR factorization of
    their differences is at most EPS_GEO); such rows hold no meaningful
    distance.  One QR call covers the batch.
    """
    pts = as_points(points)
    spans = np.asarray(spans, dtype=np.float64)
    base = spans[:, :1]
    q, r = np.linalg.qr(np.swapaxes(spans[:, 1:] - base, 1, 2))  # (B, d, k-1)
    ok = (np.abs(np.diagonal(r, axis1=1, axis2=2)) > EPS_GEO).all(axis=1)
    w = pts - base
    w -= (w @ q) @ np.swapaxes(q, 1, 2)
    return ok, np.linalg.norm(w, axis=2)


# Working-memory budget of every batched loop: values per work array.
_CHUNK = 1 << 14


def _runs(costs):
    """Slices of consecutive items whose costs sum to at most ``_CHUNK``, the
    working-memory budget; an item that costs more is a slice of its own.
    They size the width witness's runs of prefixes."""
    start, held = 0, 0
    for i, cost in enumerate(costs.tolist()):
        if i > start and held + cost > _CHUNK:
            yield slice(start, i)
            start, held = i, 0
        held += cost
    yield slice(start, len(costs))


def _steps(prefix, keys, cand):
    """The construction steps (b, v) of ``cand`` (B, n), in row-major order,
    that exclude no vertex of prefix b (B, k): taking v excludes the points
    of larger key in row b of ``keys``, the rows' ``_order_keys``."""
    top = keys[np.arange(len(prefix))[:, None], prefix].max(axis=1)
    return np.nonzero(cand & (keys >= top[:, None]))


def _box_diagonal(pts: np.ndarray) -> float:
    """Bounding-box diagonal: no distance, spread or width of the points exceeds it."""
    return float(np.sqrt(np.square(np.ptp(pts, axis=0)).sum()))


def _negligible(bound, total: float):
    """Whether terms of at most ``bound`` each (elementwise) leave ``total`` as it is.

    In float64 with round-to-nearest, total + t == total for
    0 <= t < ulp(total) / 2 (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., §2.1), and a sum of non-negative terms only grows,
    its ulp with it.  So once no term left can reach half an ulp, the rest
    of the sum is a no-op and cutting it keeps every bit, since
    ``dataset._ordered_sum`` adds each term on its own.  The factor 4
    covers rounding in the bound and the terms; at total = 0 half an ulp
    rounds to 0, so nothing is negligible.  A witness prefix's mass times
    the box diagonal bounds each addition of its subtree (disjoint events
    inside the prefix's, times lengths of at most the diagonal), so
    dropping the subtree drops only additions that are no-ops on their own.
    """
    return 4.0 * bound < 0.5 * math.ulp(total)


def _walk(pts, pi, ranks, root, levels, total):
    """Construction prefixes grown from the one-point prefixes ``root`` (B, 1)
    one level at a time, depth first; yields the last level's ``(prefix,
    excls, lead, mass, keys)`` batches in lexicographic order.

    A first point excludes the lex-larger points; a prefix's mass is its
    lead (its distinct vertices present) times its excluded points absent.
    A level drops the prefixes whose mass times the box diagonal is
    ``_negligible`` against ``total()``, the running total, then those that
    ``levels[k](prefix) -> (ok, keys)`` finds not ok; ``keys`` are the
    ``_order_keys`` of the prefixes' reference rows.  A step excludes the
    points of larger key, and the steps are the points neither excluded
    nor the last vertex that ``_steps`` keeps: the diameter's p3 may return
    to p1, and in space the width may step back to v0, which the next flat
    drops on an exact zero pivot.  Roots and children go ``_CHUNK // n`` at
    a time, each grown to the last level in turn.
    """
    omp = 1.0 - pi
    reach = _box_diagonal(pts)
    step = max(1, _CHUNK // len(pi))

    def grow(prefix, excls, lead, level):
        mass = lead * np.where(excls, omp, 1.0).prod(axis=1)
        keep = ~_negligible(mass * reach, total())
        if not keep.any():
            return
        ok, keys = levels[level](prefix[keep])
        keep[keep] = ok
        prefix, excls, lead, mass, keys = prefix[keep], excls[keep], lead[keep], mass[keep], keys[ok]
        if level + 1 == len(levels):
            yield prefix, excls, lead, mass, keys
            return
        cand = ~excls
        cand[np.arange(len(prefix)), prefix[:, -1]] = False
        b, v = _steps(prefix, keys, cand)
        for s in range(0, len(b), step):
            b_s, v_s = b[s:s + step], v[s:s + step]
            again = (prefix[b_s] == v_s[:, None]).any(axis=1)
            yield from grow(np.column_stack([prefix[b_s], v_s]),
                            excls[b_s] | (keys[b_s] > keys[b_s, v_s][:, None]),
                            lead[b_s] * np.where(again, 1.0, pi[v_s]), level + 1)

    for first in (root[s:s + step] for s in range(0, len(root), step)):
        yield from grow(first, ranks > ranks[first], pi[first[:, 0]], 0)


def _candidate_directions(pts: np.ndarray) -> Iterator[np.ndarray]:
    """Candidate width directions of point sets, unit length, in chunks.

    ``pts`` has shape (..., k, d) and each chunk (..., c, d), with c * k at
    most ``_CHUNK``.  d = 2: the normals of the point pairs.  d = 3:
    the cross products of two pair differences, which include every
    triangle normal.  They hold the optimal direction of every subset: a
    facet normal, or the cross product of two edge directions (Houle and
    Toussaint, 1988).  The rows of parallel differences are NaN.
    """
    k, d = pts.shape[-2:]
    i, j = np.triu_indices(k, 1)
    diff = pts[..., j, :] - pts[..., i, :]
    a, b = np.triu_indices(len(i), 1) if d == 3 else (np.arange(len(i)), None)
    step = max(1, _CHUNK // k)
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
        step = max(1, _CHUNK // proj.size)
        for r in range(0, len(present), step):
            sel = present[r:r + step, None, :]
            top = np.where(sel, proj, -np.inf).max(axis=-1)
            ext = top - np.where(sel, proj, np.inf).min(axis=-1)
            part = width[r:r + step]
            np.fmin(part, np.fmin.reduce(ext, axis=-1), out=part)
    width[np.isnan(width)] = 0.0
    return width
