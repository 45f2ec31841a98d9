"""Expected combinatorial complexity of a stochastic convex hull.

Three layers: membership probabilities (is a fixed query point inside the
hull of a random realization), face probabilities (is a fixed simplex
spanned by dataset points a face of the hull), and the expected face
counts, exact for d = 2 and 3.  The counts need only the facet term,
summed by one sweep over the hyperplanes through each (d-1)-subset of
points; Euler's formula fixes the other face counts from it.  The sweep
and both face kinds read one ``_group`` per (d-1)-subset: a call of the
zero-safe half-plane kernel ``_half_plane_empty`` in the subset's 2-d
orthogonal complement, ``_complement``.  2-d membership takes the same
kernel around the query point; 1-d membership is the line case.

Everything here assumes general position: distinct points, no d+1 of them
on a common hyperplane, no query point coincident or collinear with data
points in a membership instance.  Violations raise GeometryError rather
than returning silently wrong probabilities.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator

import numpy as np

from .dataset import StochasticDataset, _ordered_sum
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import EPS_GEO, HULL_DIMS, as_point

# Angular tolerance (radians) for direction coincidences in sweeps and
# membership queries.
ANG_EPS = 1e-9


def _zero_log_split(omp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(is_zero, log) of absence probabilities, with log 0 where is_zero.

    Products of absence probabilities become sums of logs plus a count of
    zero factors, so removing a factor from a product never divides by 0.
    """
    is_zero = omp <= 0.0
    return is_zero, np.where(is_zero, 0.0, np.log(np.where(is_zero, 1.0, omp)))


def _on_centre(fixed: tuple[int, ...], i: int) -> GeometryError:
    """Error for dataset point i meeting the centre of a membership instance."""
    if fixed:
        return GeometryError(
            f"dataset point {i} lies on the affine span of dataset points {list(fixed)}"
        )
    return GeometryError(f"query point coincides with dataset point {i}")


def _half_plane_empty(vec, omp, ids, fixed=()) -> tuple[np.ndarray, np.ndarray]:
    """Emptiness of the two open half-planes beside each line through the centre.

    ``vec`` holds the m >= 1 vectors from the centre to the points and
    ``omp`` their absence probabilities.  For each point a, returns the
    probabilities that no point is present strictly left, and strictly
    right, of the ray from the centre through a (a itself is on neither
    side), in input order.  One angular sort plus zero-safe prefix sums,
    O(m log m).

    ``ids`` are the rows' dataset indices and ``fixed`` the dataset points
    whose span the centre is (empty for a query point); they only name the
    offending points when a point coincides with the centre or two points
    are collinear with it, which raise GeometryError.
    """
    m = len(vec)
    rad = np.linalg.norm(vec, axis=1)
    near = int(np.argmin(rad))
    if rad[near] <= EPS_GEO:
        raise _on_centre(fixed, int(ids[near]))
    theta = np.arctan2(vec[:, 1], vec[:, 0])
    folded = np.mod(theta, math.pi)
    fo = np.argsort(folded, kind="stable")
    gaps = np.diff(folded[fo], append=folded[fo[0]] + math.pi)
    g = int(np.argmin(gaps))
    if gaps[g] <= ANG_EPS:
        a, b = sorted((int(ids[fo[g]]), int(ids[fo[(g + 1) % m]])))
        if fixed:
            raise GeometryError(
                f"dataset points {sorted(fixed + (a, b))} lie on a common hyperplane"
            )
        raise GeometryError(
            f"dataset points {a} and {b} are collinear with the query point"
        )
    order = np.argsort(theta, kind="stable")
    ts = theta[order]
    zero_s, log_s = _zero_log_split(omp[order])
    cz = np.concatenate([[0], np.cumsum(np.tile(zero_s, 2))])
    cl = np.concatenate([[0.0], np.cumsum(np.tile(log_s, 2))])
    # Left of each ray: sorted positions in (t, hi).
    hi = np.searchsorted(np.concatenate([ts, ts + 2.0 * math.pi]), ts + math.pi)
    lo = np.arange(m) + 1
    left_zero = cz[hi] - cz[lo]
    left_log = cl[hi] - cl[lo]
    right_zero = int(zero_s.sum()) - left_zero - zero_s
    right_log = float(log_s.sum()) - left_log - log_s
    left, right = np.empty(m), np.empty(m)
    left[order] = np.where(left_zero == 0, np.exp(left_log), 0.0)
    right[order] = np.where(right_zero == 0, np.exp(right_log), 0.0)
    return left, right


def _outside(pi, omp, right) -> float:
    """Probability that a realization leaves the centre outside its hull.

    It does exactly when it is empty or has a unique extreme witness: a
    present point a with no present point strictly to the right of the ray
    from the centre through a (``right``, from ``_half_plane_empty``).
    """
    return float(np.dot(pi, right)) + float(np.prod(omp))


def membership_prob_1d(ds: StochasticDataset, q) -> float:
    """Probability that q lies in the hull (interval) of a 1-d realization:
    that neither side of q is empty of present points."""
    if ds.dim != 1:
        raise CapabilityError("membership_prob_1d needs a 1-d dataset")
    qv = as_point(q)
    if qv.shape != (1,):
        raise DatasetError("query point must be 1-d")
    delta = ds.points[:, 0] - qv[0]
    near = int(np.argmin(np.abs(delta)))
    if abs(delta[near]) <= EPS_GEO:
        raise _on_centre((), near)
    omp = 1.0 - ds.probs
    p_hi = float(np.prod(omp[delta > 0.0]))
    p_lo = float(np.prod(omp[delta < 0.0]))
    return 1.0 - (p_hi + p_lo - p_hi * p_lo)


def membership_prob_2d(ds: StochasticDataset, q) -> float:
    """Probability that q lies in the hull of a planar realization.

    One half-plane kernel call gives each point's extreme-witness term of
    ``_outside``: one angular sort plus prefix products, O(n log n).

    Raises GeometryError, naming the dataset points, when q coincides with
    a point or is collinear with two points (equal or opposite directions),
    since then 'strictly right' is ambiguous.
    """
    if ds.dim != 2:
        raise CapabilityError("membership_prob_2d needs a 2-d dataset")
    qv = as_point(q)
    if qv.shape != (2,):
        raise DatasetError("query point must be 2-d")
    omp = 1.0 - ds.probs
    _, right = _half_plane_empty(ds.points - qv, omp, range(len(ds)))
    return min(1.0, max(0.0, 1.0 - _outside(ds.probs, omp, right)))


def _complement(pts: np.ndarray, fixed: tuple[int, ...], idx) -> np.ndarray:
    """2-d coordinates of the points ``idx``, relative to ``fixed[0]``, in the
    orthogonal complement of the span of the d-1 points ``fixed``.

    At d = 2 this is the translation.  At d = 3 a right-handed frame
    (f0, f1, axis = p_f1 - p_f0) puts the kernel's left side of b on the
    positive side of axis x (p_b - p_f0); a coincident pair raises
    GeometryError.
    """
    base = pts[fixed[0]]
    if pts.shape[1] == 2:
        return pts[idx] - base
    axis = pts[fixed[1]] - base
    nrm = np.linalg.norm(axis)
    if nrm <= EPS_GEO:
        raise GeometryError(f"dataset points {list(fixed)} coincide")
    f0 = np.linalg.svd((axis / nrm).reshape(1, 3))[2][1]
    return (pts[idx] - base) @ np.stack([f0, np.cross(axis / nrm, f0)]).T


def _group(pts, omp, fixed, ar) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hyperplanes through the d-1 points ``fixed`` and one other point b:
    the lines through the origin of the 2-d ``_complement`` of ``fixed``,
    both sides of each from one half-plane kernel call.  Returns (others,
    left, right): the other indices of ``ar`` (the dataset's ``np.arange``)
    and the probabilities that no point is present strictly on the
    positive/negative side of the normal rot90(p_b - p_f0) (d = 2) or
    (p_f1 - p_f0) x (p_b - p_f0) (d = 3)."""
    others = np.delete(ar, fixed)
    if not len(others):
        return others, np.empty(0), np.empty(0)
    left, right = _half_plane_empty(
        _complement(pts, fixed, others), omp[others], others, fixed)
    return others, left, right


def face_prob(ds: StochasticDataset, face) -> float:
    """Probability that a simplex on dataset points is a face of the hull.

    Supported face dimensions are d-1 (facets) and d-2, for d = 2 and 3: the
    simplex is a face iff its vertices are present and, in the sweep's
    ``_group`` of its first d-1 vertices, the other present points leave
    the origin outside their hull (a (d-2)-face), or leave one open side of
    the hyperplane through the last vertex empty (a facet).
    """
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in face):
        raise DatasetError("face vertices must be integer indices")
    verts = tuple(int(v) for v in face)
    n = len(ds)
    d = ds.dim
    if len(set(verts)) != len(verts):
        raise DatasetError("face vertices must be distinct")
    if any(v < 0 or v >= n for v in verts):
        raise DatasetError("face vertex out of range")
    if d not in HULL_DIMS:
        raise CapabilityError(f"face_prob supports dimensions {HULL_DIMS}")
    k = len(verts) - 1
    if k not in (d - 1, d - 2):
        raise CapabilityError(
            "face_prob supports faces of dimension d-1 and d-2 only"
        )
    pi = ds.probs
    omp = 1.0 - pi
    others, left, right = _group(ds.points, omp, verts[:d - 1], np.arange(n))
    present = float(np.prod(pi[list(verts)]))
    if k == d - 2:
        return present * min(1.0, _outside(pi[others], omp[others], right))
    b = int(np.searchsorted(others, verts[-1]))
    return present * float(left[b] + right[b] - left[b] * right[b])


def _sweep_groups(ds: StochasticDataset) -> Iterator[tuple]:
    """The hyperplanes through d dataset points, one ``_group`` per
    (d-1)-subset ``fixed``.  Yields (fixed, new, left, right) with the
    partners ``new`` = b > max(fixed), so each hyperplane fixed + (b,) comes
    once, in the group of its d-1 smallest indices.  C(n, d) hyperplanes
    in O(n^(d-1) * n log n) total.

    Degenerate inputs (d+1 points on a hyperplane, d collinear/coincident
    points) raise GeometryError naming the points.
    """
    n = len(ds)
    d = ds.dim
    if d not in HULL_DIMS:
        raise CapabilityError(f"hyperplane sweep supports dimensions {HULL_DIMS}")
    pts = ds.points
    omp = 1.0 - ds.probs
    ar = np.arange(n)
    for fixed in combinations(range(n), d - 1):
        others, left, right = _group(pts, omp, fixed, ar)
        new = others > fixed[-1]
        yield fixed, others[new], left[new], right[new]


def _size_probs(pi: np.ndarray, d: int) -> np.ndarray:
    """P(|R| = k) for k = 0..d, then P(|R| > d), by an O(n d) DP over the
    points whose last entry absorbs every larger realization size."""
    dist = np.zeros(d + 2)
    dist[0] = 1.0
    for p in pi.tolist():
        moved = dist[:-1] * p
        dist[:-1] -= moved
        dist[1:] += moved
    return dist


def expected_face_counts(ds: StochasticDataset) -> np.ndarray:
    """Expected number of k-dimensional hull faces for each k < d, exactly.

    Laid out as ``oracle_face_expectations``: [V, E] for d = 2 and
    [V, E, F] for d = 3.  The facet count F is summed by the hyperplane
    sweep: a hyperplane's d points are present and one open side is empty
    (a realization of exactly d points counts its hull as one facet).
    Under general position every realization of more than d points has a
    simplicial hull, so Euler's formula fixes the other counts from F: the
    polygon has V = E = F, the polytope E = 3F/2 and V = F/2 + 2.  The
    realizations of at most d points are added from P(|R| = k).
    """
    pi = ds.probs
    facets = _ordered_sum(0.0, [
        np.prod(pi[list(fixed)]) * np.dot(pi[new], left + right - left * right)
        for fixed, new, left, right in _sweep_groups(ds)])
    p = _size_probs(pi, ds.dim)
    if ds.dim == 2:
        return np.array([facets + p[1] + p[2], facets])
    edges = 1.5 * (facets + p[3]) + p[2]
    verts = 0.5 * (facets - p[3]) + 2.0 * p[4] + 3.0 * p[3] + 2.0 * p[2] + p[1]
    return np.array([verts, edges, facets])


def expected_complexity(ds: StochasticDataset) -> float:
    """Expected total face count of the stochastic hull, exactly, for d = 2
    and 3: the sum of ``expected_face_counts``."""
    return float(expected_face_counts(ds).sum())
