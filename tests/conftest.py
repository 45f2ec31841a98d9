"""Shared helpers: random inputs and slow independent re-computations.

The enumeration helpers deliberately avoid the library's probability
machinery; they recompute events from plain geometry so the closed-form
implementations have something independent to match.
"""

from itertools import combinations

import numpy as np
import pytest

from schull import (
    StochasticDataset,
    convex_hull,
    enumerate_realizations,
    pointset_width,
    project_orthocomplement,
)
from schull.geometry import distance_matrix


def random_points(rng, n, d, scale=1.0):
    return rng.uniform(-scale, scale, size=(n, d))


def random_dataset(rng, n, d, pmin=0.1, pmax=0.95) -> StochasticDataset:
    return StochasticDataset(
        random_points(rng, n, d), rng.uniform(pmin, pmax, size=n)
    )


def grid_dataset(rng, n, d, side=3, pmin=0.1, pmax=0.95) -> StochasticDataset:
    """Distinct points of the integer grid {0..side-1}^d: many exact distance ties."""
    cells = rng.choice(side**d, size=n, replace=False)
    pts = np.array(np.unravel_index(cells, (side,) * d), dtype=float).T
    return StochasticDataset(pts, rng.uniform(pmin, pmax, size=n))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def oracle_by_realization(ds, statistic):
    """Enumeration oracle walked one realization at a time.

    ``statistic`` is "diameter", "width", "complexity" or "faces" (the
    expected face count per dimension, as ``oracle_face_expectations``).
    Each realization's value comes from a distance table, ``pointset_width``
    or a ``convex_hull`` census, independently of the library's mask oracle.
    """
    pts = ds.points
    dmat = distance_matrix(pts)
    total = np.zeros(ds.dim) if statistic == "faces" else 0.0
    for idx, pr in enumerate_realizations(ds):
        if statistic == "diameter" and len(idx) >= 2:
            total += pr * dmat[np.ix_(idx, idx)].max()
        elif statistic == "width" and len(idx) >= ds.dim + 1:
            total += pr * pointset_width(pts[list(idx)])
        elif statistic == "complexity" and idx:
            total += pr * sum(convex_hull(pts[list(idx)]).face_counts)
        elif statistic == "faces" and idx:
            total += pr * np.array(convex_hull(pts[list(idx)]).face_counts)
    return total


def in_hull_1d(q, xs):
    if len(xs) == 0:
        return False
    return float(np.min(xs)) < q < float(np.max(xs))


def in_hull_2d(q, pts):
    # inside iff no open half-plane through q avoids every point: the
    # direction angles leave no circular gap of pi or more
    if len(pts) == 0:
        return False
    vecs = pts - q
    ang = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    return float(np.max(gaps)) < np.pi - 1e-12


def membership_enumeration(ds, q, inside):
    total = 0.0
    for idx, pr in enumerate_realizations(ds):
        if inside(q, ds.points[list(idx)]):
            total += pr
    return total


def face_prob_enumeration(ds, verts):
    """Face probability recomputed per realization from side/hull tests."""
    verts = tuple(verts)
    d = ds.dim
    k = len(verts) - 1
    pts = ds.points
    rest = [i for i in range(len(ds)) if i not in verts]
    if k == d - 1 and d == 2:
        a, b = pts[verts[0]], pts[verts[1]]
        e = b - a
        side = np.sign(np.round((pts[rest] - a) @ [-e[1], e[0]], 12))
    elif k == d - 1 and d == 3:
        a = pts[verts[0]]
        nrm = np.cross(pts[verts[1]] - a, pts[verts[2]] - a)
        side = np.sign(np.round((pts[rest] - a) @ nrm, 12))
    else:
        side = None
        if k == 0:
            images, q = pts[rest], pts[verts[0]]
        else:
            images, q = project_orthocomplement(pts[rest], pts[list(verts)])
    total = 0.0
    for idx, pr in enumerate_realizations(ds):
        if any(v not in idx for v in verts):
            continue
        my = [j for j, r in enumerate(rest) if r in idx]
        if side is not None:
            s = set(side[my])
            ok = not (1.0 in s and -1.0 in s)
        elif ds.dim - k == 1:
            ok = not in_hull_1d(q[0], images[my][:, 0])
        else:
            ok = not in_hull_2d(q, images[my])
        if ok:
            total += pr
    return total


def brute_hyperplane_stats(ds):
    """Side emptiness products per point hyperplane, straight from signs."""
    pts = ds.points
    omp = 1.0 - ds.probs
    n, d = pts.shape
    out = {}
    for sub in combinations(range(n), d):
        a = pts[sub[0]]
        if d == 2:
            e = pts[sub[1]] - a
            nv = np.array([-e[1], e[0]])
        else:
            nv = np.cross(pts[sub[1]] - a, pts[sub[2]] - a)
        nv = nv / np.linalg.norm(nv)
        lead = np.flatnonzero(np.abs(nv) > 1e-9)[0]
        if nv[lead] < 0:
            nv = -nv
        p_pos = p_neg = 1.0
        for c in range(n):
            if c in sub:
                continue
            s = float((pts[c] - a) @ nv)
            if s > 0:
                p_pos *= omp[c]
            else:
                p_neg *= omp[c]
        out[sub] = (p_pos, p_neg)
    return out
