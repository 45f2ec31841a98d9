"""Expected combinatorial complexity of a stochastic convex hull.

Three layers: membership probabilities (is a fixed query point inside the
hull of a random realization), face probabilities (is a fixed simplex
spanned by dataset points a face of the hull), and the aggregate expected
face count.  The aggregate splits into a facet term, summed by a rotating
sweep around each (d-1)-subset of points, and a subface term summed from
per-simplex face probabilities; in the plane the two terms are the whole
story and give the expected complexity exactly.

Everything here assumes general position: distinct points, no d+1 of them
on a common hyperplane, no query point coincident or collinear with data
points in a membership instance.  Violations raise GeometryError rather
than returning silently wrong probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .dataset import StochasticDataset
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import EPS_GEO, HULL_DIMS, as_point, project_orthocomplement

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


def membership_prob_1d(ds: StochasticDataset, q) -> float:
    """Probability that q lies in the hull (interval) of a 1-d realization.

    q is covered iff some present point sits on each side, so the
    complement is 'left side empty or right side empty'.
    """
    if ds.dim != 1:
        raise CapabilityError("membership_prob_1d needs a 1-d dataset")
    qv = as_point(q)
    if qv.shape != (1,):
        raise DatasetError("query point must be 1-d")
    delta = ds.points[:, 0] - qv[0]
    if np.abs(delta).min() <= EPS_GEO:
        raise GeometryError("query point coincides with a dataset point")
    omp = 1.0 - ds.probs
    p_hi = float(np.prod(omp[delta > 0.0]))
    p_lo = float(np.prod(omp[delta < 0.0]))
    return 1.0 - (p_hi + p_lo - p_hi * p_lo)


def membership_prob_2d(ds: StochasticDataset, q) -> float:
    """Probability that q lies in the hull of a planar realization.

    A realization omits q exactly when it is empty or has a unique extreme
    witness: a present point a with no present point strictly to the left
    of the ray from q through a.  Summing the witness probabilities needs
    one angular sort plus prefix products, O(n log n).

    Raises GeometryError when q coincides with a point or is collinear
    with the origin directions of two points (equal or opposite angles),
    since then 'strictly left' is ambiguous.
    """
    if ds.dim != 2:
        raise CapabilityError("membership_prob_2d needs a 2-d dataset")
    qv = as_point(q)
    if qv.shape != (2,):
        raise DatasetError("query point must be 2-d")
    vec = ds.points - qv
    rad = np.linalg.norm(vec, axis=1)
    if rad.min() <= EPS_GEO:
        raise GeometryError("query point coincides with a dataset point")
    theta = np.arctan2(vec[:, 1], vec[:, 0])
    n = len(ds)
    if n >= 2:
        folded = np.sort(np.mod(theta, math.pi))
        gaps = np.diff(folded)
        wrap = folded[0] + math.pi - folded[-1]
        if min(gaps.min(initial=math.inf), wrap) <= ANG_EPS:
            raise GeometryError(
                "two dataset points are collinear with the query point"
            )
    order = np.argsort(theta, kind="stable")
    ts = theta[order]
    zero_s, log_s = _zero_log_split((1.0 - ds.probs)[order])
    zeros2 = np.concatenate([zero_s, zero_s]).astype(np.intp)
    logs2 = np.concatenate([log_s, log_s])
    cz = np.concatenate([[0], np.cumsum(zeros2)])
    cl = np.concatenate([[0.0], np.cumsum(logs2)])
    total_zero = int(zero_s.sum())
    total_log = float(log_s.sum())
    # Arc strictly left of each ray: sorted positions in (pa, hi).
    his = np.searchsorted(np.concatenate([ts, ts + 2.0 * math.pi]), ts + math.pi)
    lo = np.arange(n) + 1
    arc_zero = cz[his] - cz[lo]
    arc_log = cl[his] - cl[lo]
    self_zero = zero_s.astype(np.intp)
    rem_zero = total_zero - arc_zero - self_zero
    rem_log = total_log - arc_log - log_s
    witness = np.where(rem_zero == 0, np.exp(rem_log), 0.0)
    outside = float(np.dot(ds.probs[order], witness))
    outside += math.exp(total_log) if total_zero == 0 else 0.0
    return min(1.0, max(0.0, 1.0 - outside))


def face_prob(ds: StochasticDataset, face) -> float:
    """Probability that a simplex on dataset points is a face of the hull.

    Supported face dimensions are d-1 (facets) and d-2: the simplex is a
    face iff all its vertices are present and the realization projected
    onto the orthogonal complement of the simplex's span leaves the
    projected span point outside the projected hull.  The complement is
    1- or 2-dimensional, where membership has closed forms.
    """
    verts = tuple(int(v) for v in face)
    n = len(ds)
    d = ds.dim
    if len(set(verts)) != len(verts):
        raise DatasetError("face vertices must be distinct")
    if any(v < 0 or v >= n for v in verts):
        raise DatasetError("face vertex out of range")
    k = len(verts) - 1
    if k not in (d - 1, d - 2) or k < 0:
        raise CapabilityError(
            "face_prob supports faces of dimension d-1 and d-2 only"
        )
    rest = [i for i in range(n) if i not in verts]
    pts = ds.points
    if not rest:
        mem = 0.0
    else:
        if k == 0:
            images, q = pts[rest], pts[verts[0]]
        else:
            images, q = project_orthocomplement(pts[rest], pts[list(verts)])
        sub = StochasticDataset(images, ds.probs[rest], _allow_duplicates=True)
        mem = membership_prob_1d(sub, q) if d - k == 1 else membership_prob_2d(sub, q)
    return float(np.prod(ds.probs[list(verts)])) * (1.0 - mem)


@dataclass(frozen=True)
class HyperplaneStat:
    """Emptiness probabilities of the two open sides of a point hyperplane.

    ``on_plane`` holds the d defining indices, sorted.  The normal is
    canonical: unit length with its first nonzero coordinate positive.
    ``p_pos``/``p_neg`` are the probabilities that no present point lies
    strictly on the positive/negative side.
    """

    on_plane: tuple[int, ...]
    p_pos: float
    p_neg: float


class _SideProducts:
    """Running product of absence probabilities per side, zero-safe."""

    __slots__ = ("zeros", "logs")

    def __init__(self):
        self.zeros = [0, 0]
        self.logs = [0.0, 0.0]

    def add(self, cell: int, is_zero: bool, lg: float):
        if is_zero:
            self.zeros[cell] += 1
        else:
            self.logs[cell] += lg

    def remove(self, cell: int, is_zero: bool, lg: float):
        if is_zero:
            self.zeros[cell] -= 1
        else:
            self.logs[cell] -= lg

    def value(self, cell: int) -> float:
        return 0.0 if self.zeros[cell] else math.exp(self.logs[cell])


def hyperplane_statistics(
    ds: StochasticDataset, visitor: Callable[[HyperplaneStat], None]
) -> int:
    """Visit every hyperplane through d dataset points with its side stats.

    For each (d-1)-subset the remaining hyperplane direction is one angle
    in a 2-d orthogonal complement, so rotating that angle meets the other
    points one at a time; a point changes sides exactly at its own event.
    Each hyperplane is visited once, in the group of its d-1 smallest
    indices, giving C(n, d) visits in O(n^(d-1) * n log n) total.

    Degenerate inputs (d+1 points on a hyperplane, d collinear/coincident
    points) raise GeometryError.  Returns the number of visits.
    """
    n = len(ds)
    d = ds.dim
    if d not in HULL_DIMS:
        raise CapabilityError(f"hyperplane sweep supports dimensions {HULL_DIMS}")
    pts = ds.points
    is_zero, logs = _zero_log_split(1.0 - ds.probs)
    count = 0
    for fixed in combinations(range(n), d - 1):
        base = pts[fixed[0]]
        if d == 2:
            frame = np.eye(2)
        else:
            axis = pts[fixed[1]] - base
            nrm = np.linalg.norm(axis)
            if nrm <= EPS_GEO:
                raise GeometryError("coincident fixed points in sweep")
            _, _, vt = np.linalg.svd((axis / nrm).reshape(1, 3))
            frame = vt[1:]
        # Rotate the frame so a fixed ambient reference direction maps to
        # angle zero; keys below are then true rotation angles.
        ref = None
        for c in reversed(range(d)):
            cand = frame[:, c]
            if np.linalg.norm(cand) > EPS_GEO:
                ref = cand
                break
        zeta = math.atan2(ref[1], ref[0])
        rot = np.array(
            [[math.cos(zeta), math.sin(zeta)], [-math.sin(zeta), math.cos(zeta)]]
        )
        frame = rot @ frame
        others = [i for i in range(n) if i not in fixed]
        if not others:
            continue
        w = (pts[others] - base) @ frame.T
        rad = np.linalg.norm(w, axis=1)
        if rad.min() <= EPS_GEO:
            raise GeometryError(
                "a dataset point lies on the sweep's rotation flat"
            )
        keys = np.mod(np.arctan2(w[:, 1], w[:, 0]), math.pi)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        if len(ks) >= 2:
            wrap = ks[0] + math.pi - ks[-1]
            if min(np.diff(ks).min(initial=math.inf), wrap) <= ANG_EPS:
                raise GeometryError("d+1 dataset points on a common hyperplane")
        th0 = ks[0]
        n0 = np.array([-math.sin(th0), math.cos(th0)])
        u0 = np.array([math.cos(th0), math.sin(th0)])
        dots = w @ n0
        side = np.where(dots > 0.0, 1, -1)
        first = order[0]
        side[first] = 1 if float(w[first] @ u0) > 0.0 else -1
        cells = _SideProducts()
        for b_loc, s in enumerate(side):
            orig = others[b_loc]
            cells.add((s + 1) // 2, bool(is_zero[orig]), float(logs[orig]))
        fixed_max = max(fixed) if fixed else -1
        for t in range(len(order)):
            b_loc = int(order[t])
            orig = others[b_loc]
            s = int(side[b_loc])
            cells.remove((s + 1) // 2, bool(is_zero[orig]), float(logs[orig]))
            if orig > fixed_max:
                th = float(ks[t])
                normal = -math.sin(th) * frame[0] + math.cos(th) * frame[1]
                flip = False
                for c in range(d):
                    if abs(normal[c]) > EPS_GEO:
                        flip = normal[c] < 0.0
                        break
                p_hi = cells.value(0 if flip else 1)
                p_lo = cells.value(1 if flip else 0)
                visitor(
                    HyperplaneStat(
                        tuple(sorted(fixed + (orig,))), float(p_hi), float(p_lo)
                    )
                )
                count += 1
            side[b_loc] = -s
            cells.add((-s + 1) // 2, bool(is_zero[orig]), float(logs[orig]))
    return count


@dataclass(frozen=True)
class HullComplexityTerms:
    """Expected face counts of the hull, split by how they are computed.

    ``facet_term`` is the expected number of (d-1)-faces (the hull itself
    counts as its own facet in degenerate low-rank realizations), summed by
    the hyperplane sweep.  ``subface_term`` is the expected number of
    (d-2)-faces, summed from per-simplex face probabilities.  For d = 2
    the two cover every face, so ``lower_terms`` is 0 and ``total`` is the
    expected total face count; for d = 3 the vertex term has no closed
    form here and both are None.
    """

    facet_term: float
    subface_term: float
    lower_terms: float | None
    total: float | None


def hull_complexity_terms(ds: StochasticDataset) -> HullComplexityTerms:
    """Facet and subface terms of the expected hull complexity."""
    d = ds.dim
    if d not in HULL_DIMS:
        raise CapabilityError(f"complexity terms support dimensions {HULL_DIMS}")
    pi = ds.probs
    acc = 0.0

    def visit(stat: HyperplaneStat):
        nonlocal acc
        both = stat.p_pos + stat.p_neg - stat.p_pos * stat.p_neg
        acc += float(np.prod(pi[list(stat.on_plane)])) * both

    hyperplane_statistics(ds, visit)
    facet_term = acc
    n = len(ds)
    if d == 2:
        subface = sum(face_prob(ds, (i,)) for i in range(n))
        return HullComplexityTerms(facet_term, subface, 0.0, facet_term + subface)
    subface = sum(face_prob(ds, pair) for pair in combinations(range(n), 2))
    return HullComplexityTerms(facet_term, subface, None, None)


def expected_complexity(ds: StochasticDataset) -> float:
    """Expected total face count of a planar stochastic hull, exactly.

    Only d = 2 has the closed-form split into facet and vertex terms; for
    d = 3 use the enumeration oracle on small datasets instead.
    """
    if ds.dim != 2:
        raise CapabilityError(
            "exact expected complexity is planar-only; use the enumeration "
            "oracle for d = 3"
        )
    return hull_complexity_terms(ds).total
