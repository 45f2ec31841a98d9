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

import numpy as np

from .dataset import StochasticDataset, _exclusive_suffix_product, _ordered_sum
from .dataset import decode_text, oracle_expectation
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import _CHUNK, _box_diagonal, _negligible, _order_by_distance, _order_keys
from .geometry import _steps, _walk, distance_matrix, lex_ranks

# Upper/lower bracket factor of the witness spread versus the true diameter.
DIAMETER_WITNESS_FACTOR = 2.0 * math.sqrt(2.0) / math.sqrt(3.0)

TWO_APPROX_FACTOR = 2.0


def expected_diameter_witness(ds: StochasticDataset) -> float:
    """Expected witness spread, grouped by the first four witness indices.

    For each prefix (p1, p2, p3, p4) the candidates for the fifth index
    share one exclusion set A; sorting the rest by (exact distance, lex)
    from p4 turns the per-candidate exclusion products into one reversed
    cumulative product.  Runs in O(n^5) time.

    The (p1, p2, p3) prefixes come from ``geometry._walk``, with its mass
    cut: p2 a step in the order from p1, p3 in the order from p2, both the
    tie-class order of ``_order_keys``.  Each of its batches of ``_CHUNK //
    n`` triples takes p4 by ``_steps`` in the key order from the probe; a
    valid (prefix, p4) pair excludes the points of larger key.  Only those
    pairs get rows, ``_CHUNK // n`` at a time: exclusion mask, sorted-frame
    candidates, suffix product, spreads and row sum.  So besides (n, n)
    tables no work array holds more than about ``_CHUNK`` values (a
    tracemalloc peak of 2.0 MiB at n = 100 and 2.8 MiB at n = 150 on
    random planar sets).  The prefixes' terms, the rows of a ``np.vecdot``
    over full-length rows, go to ``_ordered_sum`` in prefix order, so
    batch sizes do not change the result.

    The sum over all witness sequences of prob * spread equals the expected
    spread of a random realization, which brackets the expected diameter
    within [1/1.633..., 1].
    """
    n = len(ds)
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    dmat = distance_matrix(pts)
    ranks = lex_ranks(pts)
    dkeys = _order_keys(dmat, ranks)
    by_rank = np.argsort(ranks, kind="stable")
    ar = np.arange(n)
    perm = _order_by_distance(dmat[:, by_rank], by_rank)
    pos = np.empty((n, n), dtype=np.intp)
    pos[ar[:, None], perm] = ar
    d_sorted = np.take_along_axis(dmat, perm, axis=1)
    omp_sorted = omp[perm]
    pi_sorted = pi[perm]
    self_pos = pos[ar, ar]
    step = max(1, _CHUNK // n)

    def from_last(prefix):
        return np.ones(len(prefix), dtype=bool), dkeys[prefix[:, -1]]

    def from_probe(prefix):
        p1, p2, p3 = prefix.T
        probe = pts[p2] + (pts[p1] - pts[p2]) * (0.5 * dmat[p2, p3] / dmat[p1, p2])[:, None]
        return np.ones(len(prefix), dtype=bool), _order_keys(distance_matrix(probe, pts), ranks)

    total = 0.0
    levels = (from_last, from_last, from_probe)
    for prefix, e3, lead, _, keys in _walk(pts, pi, ranks, ar[:, None], levels, lambda: total):
        # a prefix with no valid p4 adds an exact 0.0 below
        pair_ci, pair_a = _steps(prefix, keys, ~e3)
        weights = np.zeros((len(prefix), n))
        rows = np.zeros((len(prefix), n))
        for u in range(0, len(pair_a), step):
            ci, a = pair_ci[u : u + step], pair_a[u : u + step]
            v = np.arange(len(a))
            # one row per valid (prefix, p4) pair, over the point it may exclude
            excl = e3[ci] | (keys[ci] > keys[ci, a][:, None])
            in_prefix = (prefix[ci] == a[:, None]).any(axis=1)
            left = np.where(excl, omp, 1.0).prod(axis=1)
            left *= lead[ci]
            left *= np.where(in_prefix, 1.0, pi[a])
            cand = ~excl[v[:, None], perm[a]]
            cand[v, self_pos[a]] = False  # p4 itself is never the fifth point
            suffix = _exclusive_suffix_product(np.where(cand, omp_sorted[a], 1.0))
            cols = pos[a, prefix[ci].T]  # p1, p2 and p3 in the sorted frame of p4
            ok = cand & (ar >= cols.max(axis=0)[:, None])
            pic = np.where(ok, pi_sorted[a], 0.0)
            for col in cols:
                pic[v, col] = np.where(ok[v, col], 1.0, 0.0)
            span = np.maximum(dmat[prefix[ci, 1], prefix[ci, 2]][:, None], d_sorted[a])
            weights[ci, a] = left
            rows[ci, a] = (pic * suffix * span).sum(axis=1)
        total = _ordered_sum(total, np.vecdot(weights, rows))
    return total


def expected_diameter_two_approx(ds: StochasticDataset) -> float:
    """Expected distance of the critical pair; a 2-approximation.

    The critical pair of a realization is its smallest-index point together
    with the farthest point from it (distance ties go to the lex-larger
    partner).  Per realization that distance is within [diam/2, diam], so
    the expectation inherits the bracket.  O(n^2 log n) at worst.

    Anchors are taken ``_CHUNK // n`` rows at a time (one block up to
    n = 128) against the partners after the block's first row, so no n x n
    table is built.  The anchors' terms, rows of a ``np.vecdot`` over
    full-length rows, go to ``_ordered_sum`` in index order.  Anchor a's
    term is at most pre[a] times the box diagonal and pre never grows, so
    the loop stops at the first block whose bound is ``_negligible``: after
    48 of 2,000 anchors (6 blocks of 8) on a random planar set with
    probabilities in [0.2, 0.9], and one block after a probability-1 point.
    """
    n = len(ds)
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    ranks = lex_ranks(pts)
    by_rank = np.argsort(ranks, kind="stable")
    pre = np.concatenate([[1.0], np.cumprod(omp)])  # pre[i] = P[no point below index i]
    reach = _box_diagonal(pts)
    block = max(1, _CHUNK // n)
    total = 0.0
    for a in range(0, n - 1, block):
        if _negligible(pre[a] * reach, total):
            break  # anchor a and every later one add at most pre[a] * reach
        anchors = np.arange(a, min(a + block, n - 1))
        cols = by_rank[by_rank > a]  # partners j > a, ascending lex rank
        dist = distance_matrix(pts[anchors], pts[cols])
        order = _order_by_distance(dist, cols)
        # only partners after the anchor count, as points or as exclusions
        later = order > anchors[:, None]
        suffix = _exclusive_suffix_product(np.where(later, omp[order], 1.0))
        pr = np.zeros((len(anchors), n))
        dist_rows = np.zeros((len(anchors), n))
        rows = np.arange(len(anchors))[:, None]
        pr[rows, order] = np.where(
            later, (pi[anchors] * pre[anchors])[:, None] * pi[order] * suffix, 0.0)
        dist_rows[:, cols] = dist
        total = _ordered_sum(total, np.vecdot(pr, dist_rows))
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
    # reflect the apex through the facet's flat (a point when k = 1)
    q, _ = np.linalg.qr((facet[1:] - facet[0]).T)
    w = apex - facet[0]
    mirror = facet[0] + 2.0 * (q @ (q.T @ w)) - w
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
