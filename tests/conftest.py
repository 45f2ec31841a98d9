"""Shared helpers: random inputs and slow independent re-computations.

The enumeration helpers deliberately avoid the library's probability
machinery; they recompute events from plain geometry so the closed-form
implementations have something independent to match.
"""

from itertools import combinations

import numpy as np
import pytest

from schull import StochasticDataset
from schull.complexity import _sweep_groups
from schull.geometry import EPS_GEO

from reference import expectation_by_realization


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


def chain_dataset(k, gap=0.6e-9, prob=0.9) -> StochasticDataset:
    """The lex-largest point v0 = (10, 0) and k points at distance 5 + i * gap
    from it, at angles falling from 1.45 to 0.3 rad: lex rank falls as the
    distance rises, so consecutive points are ties within EPS_GEO but the
    ends of the chain are not."""
    v0 = np.array([10.0, 0.0])
    a = np.linspace(1.45, 0.3, k)
    r = 5.0 + np.arange(k) * gap
    pts = np.vstack([v0, v0 + r[:, None] * np.column_stack([-np.cos(a), np.sin(a)])])
    return StochasticDataset(pts, np.full(k + 1, prob))


# Chain sets at gaps of 0.3, 0.6 and 0.9 EPS_GEO and k = 3, 6 and 10 points,
# as (k, gap) parameters.  At 0.3 each point lies within EPS_GEO of three
# neighbours on each side, not one.  An id names the gap only where it is
# not chain_dataset's default.
CHAIN_CASES = [pytest.param(k, g * EPS_GEO, id=str(k) if g == 0.6 else f"{k}-gap{g}")
               for g in (0.3, 0.6, 0.9) for k in (3, 6, 10)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


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
    return expectation_by_realization(ds, lambda idx: float(inside(q, ds.points[idx])))


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
            # a d = 3 edge: coordinates in the plane orthogonal to it
            basis = np.linalg.svd((pts[verts[1]] - pts[verts[0]]).reshape(1, 3))[2][1:]
            images, q = pts[rest] @ basis.T, pts[verts[0]] @ basis.T

    def is_face(idx):
        if any(v not in idx for v in verts):
            return False
        my = [j for j, r in enumerate(rest) if r in idx]
        if side is not None:
            s = set(side[my])
            return not (1.0 in s and -1.0 in s)
        if ds.dim - k == 1:
            return not in_hull_1d(q[0], images[my][:, 0])
        return not in_hull_2d(q, images[my])

    return expectation_by_realization(ds, lambda idx: float(is_face(idx)))


def brute_hyperplane_stats(ds):
    """Side emptiness products per point hyperplane, straight from signs.

    The positive side of the hyperplane through sorted indices (a, b) or
    (a, b, c) is that of the normal rot90(p_b - p_a) or
    (p_b - p_a) x (p_c - p_a).
    """
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


def sweep_stats(ds):
    """The library sweep's visit count and, per hyperplane (sorted indices),
    the emptiness of the positive and negative sides of its normal, as
    ``brute_hyperplane_stats`` lays them out."""
    seen = {}
    count = 0
    for fixed, new, left, right in _sweep_groups(ds):
        for b, pl, pr in zip(new.tolist(), left.tolist(), right.tolist()):
            assert fixed + (b,) not in seen, "hyperplane visited twice"
            seen[fixed + (b,)] = (pl, pr)
        count += len(new)
    return count, seen
