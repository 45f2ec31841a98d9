"""Slow references that the estimators and the mask oracle are tested against:
the realization walk, the hull census and width of one point set from an
explicit hull, and the witness constructions with their probabilities.
Ties are decided with the package's ``EPS_GEO``, for desk-scale inputs.
"""

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from schull import CapabilityError, DatasetError, GeometryError
from schull.geometry import (
    EPS_GEO,
    HULL_DIMS,
    _least_extent,
    after_in_order,
    as_points,
    distance_matrix,
    dists_to_flat,
    lex_ranks,
)
from schull.width import _witness_runs


def enumerate_realizations(ds) -> list[tuple[tuple[int, ...], float]]:
    """Every realization as (indices of its points, probability).

    Realization k holds point i iff bit i of k is set, in ascending k, the
    empty one first.  Its probability is the product of p_i over the points
    present and 1 - p_i over the rest, multiplied in point order.
    """
    walk = [((), 1.0)]
    for i, p in enumerate(ds.probs.tolist()):
        walk = ([(idx, pr * (1.0 - p)) for idx, pr in walk]
                + [(idx + (i,), pr * p) for idx, pr in walk])
    return walk


def expectation_by_realization(ds, value):
    """Sum of probability * value(list of the indices present) over every
    realization."""
    total = 0.0
    for idx, pr in enumerate_realizations(ds):
        total += pr * value(list(idx))
    return total


def oracle_by_realization(ds, statistic):
    """Enumeration oracle walked one realization at a time.

    ``statistic`` is "diameter", "width" or "faces" (the expected face count
    per dimension, as ``oracle_face_expectations``).  Each realization's
    value comes from the distance table, ``pointset_width`` or a
    ``convex_hull`` census, independently of the package's mask oracle.
    """
    pts, dmat = ds.points, distance_matrix(ds.points)
    value = {
        "diameter": lambda idx: dmat[np.ix_(idx, idx)].max(initial=0.0),
        "width": lambda idx: pointset_width(pts[idx]),
        "faces": lambda idx: np.array(convex_hull(pts[idx]).face_counts),
    }[statistic]
    return expectation_by_realization(ds, value)


def witness_spread_by_realization(ds) -> float:
    """Expected witness spread, one ``witness_sequence`` per realization."""
    return expectation_by_realization(
        ds, lambda idx: witness_sequence(ds.points[idx]).spread if idx else 0.0)


def witness_width_by_realization(ds) -> float:
    """Expected witness-simplex width, one ``witness_simplex`` per
    realization; realizations of affine rank below d add 0."""
    def value(idx):
        p = ds.points[idx]
        if affine_rank(p)[0] < ds.dim:
            return 0.0
        return simplex_width(p[list(witness_simplex(p))])

    return expectation_by_realization(ds, value)


def last_in_order(dist, ranks) -> int:
    """Index of the farthest point; distance ties go to the lex-largest."""
    ties = np.flatnonzero(dist >= dist.max() - EPS_GEO)
    return int(ties[np.argmax(ranks[ties])])


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

    def dists_to(span):
        ok, dist = dists_to_flat(pts, pts[span][None])
        if not ok[0]:
            raise GeometryError("hull3d: affinely dependent seed points")
        return dist[0]

    d1 = dists_to([i0, i1])
    i2 = int(np.argmax(d1))
    d2 = dists_to([i0, i1, i2])
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
    exact.  Point sets of affine rank < d, the empty set included, have
    width 0.  This is the hull-based reference for the package's
    ``_least_extent``.
    """
    pts = as_points(points)
    d = pts.shape[1]
    if d not in HULL_DIMS:
        raise CapabilityError(f"pointset_width supports d in {HULL_DIMS}, got d={d}")
    if affine_rank(pts)[0] < d:
        return 0.0
    dirs = _width_candidates_2d(pts) if d == 2 else _width_candidates_3d(pts)
    proj = pts @ dirs.T
    return float((proj.max(axis=0) - proj.min(axis=0)).min())


@dataclass(frozen=True)
class WitnessSequence:
    """Five anchor points (as indices) plus the derived probe point.

    ``start`` is the lex-largest point, ``far1``/``far2`` the first two
    greedy farthest picks, ``far3``/``far4`` the picks made from the probe
    point.  ``spread`` is the larger of the two measured distances
    dist(far1, far2) and dist(far3, far4).
    """

    start: int
    far1: int
    far2: int
    far3: int
    far4: int
    probe: np.ndarray
    spread: float

    @property
    def indices(self) -> tuple[int, int, int, int, int]:
        return (self.start, self.far1, self.far2, self.far3, self.far4)


def witness_sequence(points) -> WitnessSequence:
    """Build the witness sequence of a point set.

    The start is the lex-largest point; far1 is the farthest point from it
    and far2 the farthest from far1.  The probe sits on the ray from far1
    through the start, at half of dist(far1, far2); far3 is the farthest
    point from the probe and far4 the farthest from far3.  All farthest
    choices break distance ties by taking the lex-largest point.  A
    singleton degenerates to five copies of its only point with spread 0.
    """
    pts = as_points(points)
    m = len(pts)
    if m == 0:
        raise GeometryError("witness_sequence: empty point set")
    ranks = lex_ranks(pts)
    start = int(np.argmax(ranks))
    if m == 1:
        return WitnessSequence(start, start, start, start, start, pts[start].copy(), 0.0)

    def far(q):
        return last_in_order(np.linalg.norm(pts - q, axis=1), ranks)

    far1 = far(pts[start])
    far2 = far(pts[far1])
    span_a = float(np.linalg.norm(pts[far2] - pts[far1]))
    back = float(np.linalg.norm(pts[start] - pts[far1]))
    probe = pts[far1] + (pts[start] - pts[far1]) * (0.5 * span_a / back)
    far3 = far(probe)
    far4 = far(pts[far3])
    span_b = float(np.linalg.norm(pts[far4] - pts[far3]))
    return WitnessSequence(start, far1, far2, far3, far4, probe, max(span_a, span_b))


def witness_prob(ds, witness) -> float:
    """Probability that a realization's witness sequence is exactly this one.

    A realization produces the sequence (p1..p5) iff it contains all five points
    and omits every point that would beat one of them in its defining
    farthest-point contest.  If one of the five would itself be beaten the
    event is impossible.  Five equal indices encode the singleton case.
    """
    idx = tuple(int(i) for i in witness)
    if len(idx) != 5:
        raise DatasetError("witness sequence needs exactly five indices")
    n = len(ds)
    if any(i < 0 or i >= n for i in idx):
        raise DatasetError("witness index out of range")
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    p1, p2, p3, p4, p5 = idx
    if len(set(idx)) == 1:
        others = np.arange(n) != p1
        return float(pi[p1] * np.prod(omp[others]))
    if p1 == p2:
        return 0.0
    ranks = lex_ranks(pts)
    d_to = lambda i: np.linalg.norm(pts - pts[i], axis=1)  # noqa: E731
    d1 = d_to(p1)
    d2 = d_to(p2)
    excl = ranks > ranks[p1]
    excl |= after_in_order(d1, d1[p2], ranks, ranks[p2])
    excl |= after_in_order(d2, d2[p3], ranks, ranks[p3])
    probe = pts[p2] + (pts[p1] - pts[p2]) * (0.5 * d2[p3] / d1[p2])
    dpr = np.linalg.norm(pts - probe, axis=1)
    excl |= after_in_order(dpr, dpr[p4], ranks, ranks[p4])
    d4 = d_to(p4)
    excl |= after_in_order(d4, d4[p5], ranks, ranks[p5])
    if excl[list(idx)].any():
        return 0.0
    prob = float(np.prod(omp[excl]))
    for i in set(idx):
        prob *= float(pi[i])
    return prob


def expected_diameter_witness_naive(ds) -> float:
    """Sum witness_prob * spread over every five-index tuple.  O(n^6)."""
    n = len(ds)
    d = distance_matrix(ds.points)
    total = 0.0
    for idx in product(range(n), repeat=5):
        if idx[0] == idx[1]:
            continue  # zero probability or zero spread either way
        span = max(d[idx[1], idx[2]], d[idx[3], idx[4]])
        if span <= 0.0:
            continue
        total += witness_prob(ds, idx) * span
    return total


def _greedy_vertex_list(pts, cand, ranks) -> list[int] | None:
    """Construction order over the candidate indices, or None if degenerate.

    First the lex-largest candidate, then d times the candidate farthest
    from the flat of the points chosen so far, distance ties (within
    EPS_GEO) resolved lex-largest.
    """
    d = pts.shape[1]
    if len(cand) < d + 1:
        return None
    first = cand[int(np.argmax(ranks[cand]))]
    chosen = [int(first)]
    for _ in range(d):
        ok, (dist,) = dists_to_flat(pts[cand], pts[chosen][None])
        if not ok[0] or dist.max() <= EPS_GEO:
            return None
        chosen.append(int(cand[last_in_order(dist, ranks[cand])]))
    return chosen


def witness_simplex(points) -> tuple[int, ...]:
    """Witness simplex of a full-dimensional point set, as indices into it
    in construction order."""
    pts = as_points(points)
    cand = np.arange(len(pts))
    ranks = lex_ranks(pts)
    chosen = _greedy_vertex_list(pts, cand, ranks)
    if chosen is None:
        raise GeometryError("witness_simplex: point set is not full-dimensional")
    return tuple(chosen)


def recover_vertex_list(points, vertices) -> tuple[int, ...] | None:
    """Reconstruct the construction order of a vertex set, if it has one.

    Runs the greedy construction restricted to the given d+1 indices.  A
    vertex set is a possible witness simplex only when the greedy picks
    exactly these vertices; degenerate sets return None.
    """
    pts = as_points(points)
    vs = np.asarray(sorted(int(v) for v in vertices), dtype=np.intp)
    d = pts.shape[1]
    if len(vs) != d + 1 or len(set(vs.tolist())) != d + 1:
        raise DatasetError(f"vertex set must contain {d + 1} distinct indices")
    ranks = lex_ranks(pts)
    chosen = _greedy_vertex_list(pts, vs, ranks)
    return None if chosen is None else tuple(chosen)


def simplex_width(points) -> float:
    """Width of a nondegenerate d-simplex, d in {2, 3}.

    One call of the width kernel: the least extent over the simplex's
    candidate directions.  A simplex of width at most EPS_GEO is degenerate.
    """
    pts = as_points(points)
    m, d = pts.shape
    if d not in HULL_DIMS:
        raise CapabilityError(f"simplex_width supports dimensions {HULL_DIMS}")
    if m != d + 1:
        raise GeometryError(f"a {d}-simplex needs {d + 1} vertices, got {m}")
    width = float(_least_extent(pts))
    if width <= EPS_GEO:
        raise GeometryError("simplex_width: degenerate simplex")
    return width


def witness_simplex_prob(ds, simplex) -> float:
    """Probability that a realization's witness simplex is exactly this one."""
    verts = tuple(simplex)
    d = ds.dim
    if len(verts) != d + 1:
        raise DatasetError(f"witness simplex needs {d + 1} vertices")
    n = len(ds)
    if any(v < 0 or v >= n for v in verts):
        raise DatasetError("witness simplex index out of range")
    rec = recover_vertex_list(ds.points, verts)
    if rec is None or rec != tuple(int(v) for v in verts):
        return 0.0
    # The simplex is the witness iff all d+1 vertices are present and no
    # present point beats any construction step: nothing lex-larger than the
    # first vertex, and nothing farther (ties lex-larger) from each prefix
    # flat than the vertex chosen there.
    pts, pi = ds.points, ds.probs
    ranks = lex_ranks(pts)
    excl = ranks > ranks[rec[0]]
    for i in range(1, d + 1):
        _, (dist,) = dists_to_flat(pts, pts[list(rec[:i])][None])  # rec's flats are ok
        excl |= after_in_order(dist, dist[rec[i]], ranks, ranks[rec[i]])
    if excl[list(rec)].any():
        return 0.0
    return float(np.prod(pi[list(rec)]) * np.prod((1.0 - pi)[excl]))


def expected_width_witness_naive(ds) -> float:
    """Sum prob * simplex width over ordered vertex tuples."""
    n = len(ds)
    d = ds.dim
    total = 0.0
    for order in permutations(range(n), d + 1):
        p = witness_simplex_prob(ds, order)
        if p > 0.0:
            total += p * simplex_width(ds.points[list(order)])
    return total


def witness_cells(ds):
    """The width decomposition's cells of positive probability, one tuple
    each, flattened from ``schull.width._witness_runs``.

    Yields ``(verts, prob, excluded, free)``: the construction order, the
    probability that it is the realized witness simplex, the indices forced
    absent and the rest of the indices off the simplex.
    """
    ranks = lex_ranks(ds.points)
    for v0 in range(len(ds)):
        for _, cells, probs, excluded in _witness_runs(ds, ranks, v0):
            for order, prob, ex in zip(cells.tolist(), probs.tolist(), excluded):
                if prob > 0.0:
                    verts = tuple(order)
                    free = [i for i in np.flatnonzero(~ex).tolist() if i not in verts]
                    yield verts, prob, tuple(np.flatnonzero(ex).tolist()), tuple(free)
