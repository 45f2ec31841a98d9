"""Expected diameter of a stochastic convex hull.

The exact-in-expectation estimator sums, over all five-point witness
sequences, the probability that a realization produces that witness times
the witness spread; the spread brackets the true diameter within a factor of
2*sqrt(2)/sqrt(3) ~ 1.633.  A cheaper 2-approximation conditions on the
smallest-index present point and its farthest partner.  The module also
builds two-distance point sets from graphs whose expected hull diameter
encodes the graph's independent-set count, which is what makes the exact
expectation #P-hard and the approximations worthwhile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dataset import StochasticDataset, decode_text, oracle_expectation
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import (
    after_in_order,
    as_points,
    distance_matrix,
    flat_through,
    last_in_order,
    lex_ranks,
)

# Upper/lower bracket factor of the witness spread versus the true diameter.
DIAMETER_WITNESS_FACTOR = 2.0 * math.sqrt(2.0) / math.sqrt(3.0)

TWO_APPROX_FACTOR = 2.0


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


def farthest_from(points, origin) -> int:
    """Index of the farthest point from origin; distance ties pick the lex-largest."""
    pts = as_points(points)
    if len(pts) == 0:
        raise GeometryError("farthest_from: empty point set")
    d = np.linalg.norm(pts - as_points(origin).reshape(-1), axis=1)
    return last_in_order(d, lex_ranks(pts))


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


def diameter_approx_pointset(points) -> float:
    """Witness spread of a deterministic point set: diam/1.633 <= spread <= diam."""
    return witness_sequence(points).spread


def _exclusive_suffix_product(w: np.ndarray) -> np.ndarray:
    """Product of the entries strictly after each position, along the last axis.

    Over absence probabilities in a sorted order, with 1 for points that do
    not count, entry k is the probability that no counted point after
    position k is present.
    """
    run = np.cumprod(w[..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate([run[..., 1:], np.ones(w.shape[:-1] + (1,))], axis=-1)


def witness_prob(ds: StochasticDataset, witness) -> float:
    """Probability that a realization's witness sequence is exactly this one.

    A realization produces the sequence (p1..p5) iff it contains all five points
    and omits every point that would beat one of them in its defining
    farthest-point contest.  If one of the five would itself be beaten the
    event is impossible.  Five equal indices encode the singleton case.
    """
    if isinstance(witness, WitnessSequence):
        idx = witness.indices
    else:
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


def _expected_diameter_witness_naive(ds: StochasticDataset) -> float:
    """Sum witness_prob * spread over every five-index tuple.  O(n^6) test oracle."""
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


def expected_diameter_witness(ds: StochasticDataset) -> float:
    """Expected witness spread, grouped by the first four witness indices.

    For each prefix (p1, p2, p3, p4) the candidates for the fifth index
    share one exclusion set A; sorting the rest by distance from p4 turns
    the per-candidate exclusion products into one reversed cumulative
    product.  Runs in O(n^5) plus the n^3 sorts, vectorized over (p4,
    candidate) pairs.

    The sum over all witness sequences of prob * spread equals the expected
    spread of a random realization, which brackets the expected diameter
    within [1/1.633..., 1].
    """
    n = len(ds)
    if n == 1:
        return 0.0
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    dmat = distance_matrix(pts)
    ranks = lex_ranks(pts)
    perm = np.empty((n, n), dtype=np.intp)
    pos = np.empty((n, n), dtype=np.intp)
    ar = np.arange(n)
    for b in range(n):
        perm[b] = np.lexsort((ranks, dmat[b]))
        pos[b, perm[b]] = ar
    d_sorted = np.take_along_axis(dmat, perm, axis=1)
    omp_sorted = omp[perm]
    pi_sorted = pi[perm]
    self_pos = pos[ar, ar]
    total = 0.0
    for p1 in range(n):
        c1 = ranks > ranks[p1]
        for p2 in range(n):
            if p2 == p1:
                continue
            e12 = c1 | after_in_order(dmat[p1], dmat[p1, p2], ranks, ranks[p2])
            if e12[p1] or e12[p2]:
                continue
            # row p3: e12 plus the points after p3 in the order from p2
            e3s = e12 | after_in_order(dmat[p2], dmat[p2, :, None], ranks, ranks[:, None])
            ok3 = ~(e3s[:, p1] | e3s[:, p2] | e3s[ar, ar])
            for p3 in np.flatnonzero(ok3):
                e3 = e3s[p3]
                span_a = dmat[p2, p3]
                probe = pts[p2] + (pts[p1] - pts[p2]) * (0.5 * span_a / dmat[p1, p2])
                dpr = np.linalg.norm(pts - probe, axis=1)
                # row = p4 choice, column = the point it may exclude
                excl = e3[None, :] | after_in_order(dpr, dpr[:, None], ranks, ranks[:, None])
                valid = ~(excl[:, p1] | excl[:, p2] | excl[:, p3] | e3)
                if not valid.any():
                    continue
                left = np.where(excl, omp[None, :], 1.0).prod(axis=1)
                left *= pi[p1] * pi[p2] * (1.0 if p3 in (p1, p2) else pi[p3])
                left *= np.where((ar == p1) | (ar == p2) | (ar == p3), 1.0, pi)
                excl_sorted = np.take_along_axis(excl, perm, axis=1)
                cand = ~excl_sorted
                cand[ar, self_pos] = False  # p4 itself is never the fifth point
                suffix = _exclusive_suffix_product(np.where(cand, omp_sorted, 1.0))
                cutoff = np.maximum(np.maximum(pos[:, p1], pos[:, p2]), pos[:, p3])
                ok = cand & (ar[None, :] >= cutoff[:, None])
                pic = np.where(ok, pi_sorted, 0.0)
                for pk in (p1, p2, p3):
                    cols = pos[:, pk]
                    pic[ar, cols] = np.where(ok[ar, cols], 1.0, 0.0)
                span = np.maximum(span_a, d_sorted)
                rows = (pic * suffix * span).sum(axis=1)
                total += float(np.dot(left * valid, rows))
    return total


def expected_diameter_two_approx(ds: StochasticDataset) -> float:
    """Expected distance of the critical pair; a 2-approximation.

    The critical pair of a realization is its smallest-index point together
    with the farthest point from it (distance ties go to the lex-larger
    partner).  Per realization that distance is within [diam/2, diam], so
    the expectation inherits the bracket.  O(n^2 log n).
    """
    n = len(ds)
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    if n == 1:
        return 0.0
    dmat = distance_matrix(pts)
    ranks = lex_ranks(pts)
    ar = np.arange(n)
    pre = np.concatenate([[1.0], np.cumprod(omp)])  # pre[i] = P[no point below index i]
    total = 0.0
    for i in range(n):
        order = np.lexsort((ranks, dmat[i]))
        pos = np.empty(n, dtype=np.intp)
        pos[order] = ar
        suffix = _exclusive_suffix_product(np.where(order > i, omp[order], 1.0))
        pr = pi[i] * pre[i] * pi * suffix[pos]
        pr[: i + 1] = 0.0  # the anchor is the smallest present index
        total += float(np.dot(pr, dmat[i]))
    return total


# ---------------------------------------------------------------------------
# Two-distance graph embeddings (hardness instances)


@dataclass(frozen=True)
class HardnessInstance:
    """Point set whose expected hull diameter counts independent sets.

    Every vertex of a graph becomes a point in R^(n-1) with existence
    probability 1/2; every adjacent pair sits at one common (larger)
    distance, every non-adjacent pair at one common smaller distance.
    """

    dataset: StochasticDataset
    nonedge_distance: float
    edge_distance: float
    n_vertices: int
    edges: tuple[tuple[int, int], ...]


def regular_simplex(k: int) -> np.ndarray:
    """Vertices of a regular k-simplex with unit edges, first vertex at 0."""
    if k < 1:
        raise DatasetError("regular_simplex: k must be >= 1")
    gram = (np.eye(k) + np.ones((k, k))) / 2.0
    chol = np.linalg.cholesky(gram)
    return np.vstack([np.zeros(k), chol])


def double_simplex(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two unit regular k-simplices glued along a common facet.

    Returns ``(facet, apex, apex_mirror)``: the k shared facet vertices and
    the two apexes.  All pairwise distances are 1 except the apex pair,
    which is twice the apex height: sqrt(2 (k + 1) / k).
    """
    verts = regular_simplex(k)
    facet, apex = verts[:k], verts[k]
    if k == 1:
        mirror = 2.0 * facet[0] - apex
    else:
        flat = flat_through(facet)
        w = apex - flat.base
        w_par = (flat.basis.T @ (flat.basis @ w)) if flat.dim else np.zeros_like(w)
        mirror = flat.base + 2.0 * w_par - w
    return facet, apex, mirror


def _validated_edges(n_vertices: int, edges) -> tuple[tuple[int, int], ...]:
    if n_vertices < 3:
        raise DatasetError("hardness instance needs at least 3 vertices")
    norm = []
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise DatasetError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise DatasetError(f"edge ({u}, {v}) out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DatasetError(f"duplicate edge {key}")
        seen.add(key)
        norm.append(key)
    if not norm:
        raise DatasetError("hardness instance needs at least one edge")
    return tuple(sorted(norm))


def hardness_instance(n_vertices: int, edges) -> HardnessInstance:
    """Embed a graph as a two-distance point set with probabilities 1/2.

    Each edge contributes one block of coordinates: a glued double simplex
    in R^(n-2) whose two apexes are the edge's endpoints and whose shared
    facet hosts the other n-2 vertices.  Concatenating blocks makes squared
    distances add up: m for non-adjacent pairs, (m - 1) + 2 (n - 1) / (n - 2)
    for adjacent ones.  The final coordinates are an isometric reduction
    to R^(n-1).
    """
    edges = _validated_edges(n_vertices, edges)
    n, m = n_vertices, len(edges)
    k = n - 2
    facet, apex, mirror = double_simplex(k)
    blocks = []
    for u, v in edges:
        block = np.zeros((n, k))
        block[u] = apex
        block[v] = mirror
        rest = [w for w in range(n) if w not in (u, v)]
        for slot, w in enumerate(rest):
            block[w] = facet[slot]
        blocks.append(block)
    raw = np.hstack(blocks)
    centered = raw - raw.mean(axis=0)
    u_svd, s, _ = np.linalg.svd(centered, full_matrices=False)
    coords = np.zeros((n, n - 1))
    r = min(n - 1, len(s))
    coords[:, :r] = u_svd[:, :r] * s[:r]

    apex_pair_sq = 2.0 * (k + 1) / k
    nonedge = math.sqrt(m)
    edge_dist = math.sqrt((m - 1) + apex_pair_sq)

    dmat = distance_matrix(coords)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    expect = np.where(adj, edge_dist, nonedge)
    np.fill_diagonal(expect, 0.0)
    if np.abs(dmat - expect).max() > 1e-9:
        raise GeometryError("hardness embedding failed its two-distance check")

    ds = StochasticDataset(coords, np.full(n, 0.5))
    return HardnessInstance(ds, nonedge, edge_dist, n, edges)


def parse_graph(text: str | bytes) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Parse 'n m' followed by m 1-based 'u v' edge lines; returns 0-based edges."""
    lines = [ln for ln in (s.strip() for s in decode_text(text).splitlines()) if ln]
    if not lines:
        raise DatasetError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise DatasetError(f"graph header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DatasetError(f"graph header must be integers: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise DatasetError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise DatasetError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DatasetError(f"bad edge line {ln!r}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise DatasetError(f"edge ({u}, {v}) out of 1..{n}")
        edges.append((u - 1, v - 1))
    return n, tuple(edges)


MAX_HARDNESS_CHECK_N = 20


def count_independent_sets(n_vertices: int, edges) -> int:
    """Number of independent vertex sets, the empty set and singletons included."""
    if n_vertices > MAX_HARDNESS_CHECK_N:
        raise CapabilityError(
            f"independent-set count limited to n <= {MAX_HARDNESS_CHECK_N}"
        )
    adj = [0] * n_vertices
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    ind = bytearray(1 << n_vertices)
    ind[0] = 1
    count = 1
    for mask in range(1, 1 << n_vertices):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        if ind[rest] and not (adj[low] & rest):
            ind[mask] = 1
            count += 1
    return count


def hardness_identity_rhs(instance: HardnessInstance, ind_count: int) -> float:
    """Closed form for the expected diameter in terms of the independent-set count.

    Realizations are uniform over all 2^n subsets.  Independent subsets of
    size >= 2 have the nonedge diameter, the empty set and singletons have
    0, and everything else has the edge diameter.
    """
    n = instance.n_vertices
    near, far = instance.nonedge_distance, instance.edge_distance
    return ((ind_count - n - 1) * near + ((1 << n) - ind_count) * far) / (1 << n)


def hardness_identity_check(instance: HardnessInstance) -> tuple[float, float]:
    """(enumerated expected diameter, closed-form value) for a hardness instance."""
    if instance.n_vertices > MAX_HARDNESS_CHECK_N:
        raise CapabilityError(
            f"identity check limited to n <= {MAX_HARDNESS_CHECK_N}"
        )
    lhs = oracle_expectation(instance.dataset, "diameter")
    ind = count_independent_sets(instance.n_vertices, instance.edges)
    rhs = hardness_identity_rhs(instance, ind)
    return lhs, rhs
