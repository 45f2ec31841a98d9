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

from .dataset import StochasticDataset, decode_text, oracle_expectation
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import after_in_order, distance_matrix, flat_through, lex_ranks

# Upper/lower bracket factor of the witness spread versus the true diameter.
DIAMETER_WITNESS_FACTOR = 2.0 * math.sqrt(2.0) / math.sqrt(3.0)

TWO_APPROX_FACTOR = 2.0


def _exclusive_suffix_product(w: np.ndarray) -> np.ndarray:
    """Product of the entries strictly after each position, along the last axis.

    Over absence probabilities in a sorted order, with 1 for points that do
    not count, entry k is the probability that no counted point after
    position k is present.
    """
    out = np.empty(w.shape)
    out[..., -1] = 1.0
    # out[k - 1] = w[-1] * ... * w[k], multiplied from the far end
    np.cumprod(w[..., :0:-1], axis=-1, out=out[..., -2::-1])
    return out


def _order_by_distance(dist: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row's columns sorted by (distance, lex rank).

    ``cols`` lists the columns of ``dist`` in ascending lex rank, so a stable
    sort on distance alone breaks exact ties by rank, as
    ``np.lexsort((ranks, dist_row))`` does.
    """
    return cols[np.argsort(dist, axis=1, kind="stable")]


def _rechunk(blocks, size: int):
    """Regroup a stream of row-aligned array tuples into ``size``-row tuples.

    Rows keep their order across blocks; only the last tuple may be shorter.
    """
    held, count = [], 0
    for block in blocks:
        held.append(block)
        count += len(block[0])
        if count < size:
            continue
        merged = [np.concatenate(parts) for parts in zip(*held)]
        stop = count - count % size
        for s in range(0, stop, size):
            yield tuple(m[s : s + size] for m in merged)
        held = [tuple(m[stop:] for m in merged)]
        count -= stop
    if count:
        yield tuple(np.concatenate(parts) for parts in zip(*held))


# Prefix triples (p1, p2, p3) per batch of the witness sum, and anchor rows
# per block of the 2-approximation; both bound working memory, not results.
_WITNESS_CHUNK = 32
_TWO_APPROX_BLOCK = 32


def _witness_triples(after: np.ndarray, ranks: np.ndarray):
    """Valid witness prefixes (p1, p2, p3) and their exclusion rows, per p1.

    ``after[b, a, j]`` says that j comes after a in the (distance, lex) order
    from b.  A prefix survives when none of its points is excluded by the
    lex-larger rule or by the contests that picked p2 and p3.  Yields
    ``(p1, p2, p3, e3)`` arrays in lexicographic triple order; row k of
    ``e3`` is the set already excluded by triple k.
    """
    n = len(ranks)
    ar = np.arange(n)
    for p1 in range(n):
        e12 = (ranks > ranks[p1]) | after[p1]  # row p2
        p2 = np.flatnonzero(~(e12[:, p1] | e12[ar, ar]) & (ar != p1))
        if not len(p2):
            continue
        # e3s[k, p3]: e12 of p2[k] plus the points after p3 in the order from p2[k]
        e3s = e12[p2][:, None, :] | after[p2]
        ok3 = ~(e3s[:, :, p1] | e3s[np.arange(len(p2)), :, p2] | e3s[:, ar, ar])
        k, p3 = np.nonzero(ok3)
        yield np.full(len(k), p1), p2[k], p3, e3s[k, p3]


def expected_diameter_witness(ds: StochasticDataset) -> float:
    """Expected witness spread, grouped by the first four witness indices.

    For each prefix (p1, p2, p3, p4) the candidates for the fifth index
    share one exclusion set A; sorting the rest by distance from p4 turns
    the per-candidate exclusion products into one reversed cumulative
    product.  Runs in O(n^5) time.

    The layout is blocked.  One n^3 bool table says which point comes after
    which in the order from each point; the valid (p1, p2, p3) prefixes come
    from it in lexicographic order, and the per-prefix body (probe distances,
    exclusion masks, the sorted-frame suffix products and spreads over
    every (p4, candidate) pair) runs on batches of ``_WITNESS_CHUNK``
    prefixes as (batch, n, n) arrays.  Working memory is the n^3 bools plus
    a few batch * n^2 floats.  Each prefix's term is added on its own, in
    prefix order, so the batch size does not change the result.

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
    by_rank = np.argsort(ranks)
    ar = np.arange(n)
    perm = _order_by_distance(dmat[:, by_rank], by_rank)
    pos = np.empty((n, n), dtype=np.intp)
    pos[ar[:, None], perm] = ar
    d_sorted = np.take_along_axis(dmat, perm, axis=1)
    omp_sorted = omp[perm]
    pi_sorted = pi[perm]
    self_pos = pos[ar, ar]
    flat_perm = (ar[:, None] * n + perm).ravel()  # row-major flat index of perm
    after = after_in_order(dmat[:, None, :], dmat[:, :, None], ranks, ranks[:, None])
    total = 0.0
    for p1, p2, p3, e3 in _rechunk(_witness_triples(after, ranks), _WITNESS_CHUNK):
        c = np.arange(len(p1))
        span_a = dmat[p2, p3]
        probe = pts[p2] + (pts[p1] - pts[p2]) * (0.5 * span_a / dmat[p1, p2])[:, None]
        dpr = np.linalg.norm(pts[None, :, :] - probe[:, None, :], axis=2)
        # [prefix, p4 choice, the point it may exclude]
        excl = e3[:, None, :] | after_in_order(
            dpr[:, None, :], dpr[:, :, None], ranks, ranks[:, None])
        # a prefix with no valid p4 adds an exact 0.0 below
        valid = ~(excl[c, :, p1] | excl[c, :, p2] | excl[c, :, p3] | e3)
        in_prefix = (ar == p1[:, None]) | (ar == p2[:, None]) | (ar == p3[:, None])
        left = np.where(excl, omp, 1.0).prod(axis=2)
        left *= (pi[p1] * pi[p2] * np.where((p3 == p1) | (p3 == p2), 1.0, pi[p3]))[:, None]
        left *= np.where(in_prefix, 1.0, pi)
        cand = ~excl.reshape(len(c), -1)[:, flat_perm].reshape(excl.shape)
        cand[:, ar, self_pos] = False  # p4 itself is never the fifth point
        suffix = _exclusive_suffix_product(np.where(cand, omp_sorted, 1.0))
        cols = [pos[:, pk].T for pk in (p1, p2, p3)]
        cutoff = np.maximum(np.maximum(cols[0], cols[1]), cols[2])
        ok = cand & (ar >= cutoff[:, :, None])
        pic = np.where(ok, pi_sorted, 0.0)
        rc, r4 = c[:, None], ar[None, :]
        for col in cols:
            pic[rc, r4, col] = np.where(ok[rc, r4, col], 1.0, 0.0)
        span = np.maximum(span_a[:, None, None], d_sorted)
        rows = (pic * suffix * span).sum(axis=2)
        weights = left * valid
        for k in c:
            total += float(np.dot(weights[k], rows[k]))
    return total


def expected_diameter_two_approx(ds: StochasticDataset) -> float:
    """Expected distance of the critical pair; a 2-approximation.

    The critical pair of a realization is its smallest-index point together
    with the farthest point from it (distance ties go to the lex-larger
    partner).  Per realization that distance is within [diam/2, diam], so
    the expectation inherits the bracket.  O(n^2 log n).

    Anchors are taken ``_TWO_APPROX_BLOCK`` rows at a time against the
    partners after the block's first row, so working memory is O(block * n)
    and no n x n table is built.  Each anchor's term is added on its own in
    index order, as a dot product over a full-length row.
    """
    n = len(ds)
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    if n == 1:
        return 0.0
    ranks = lex_ranks(pts)
    by_rank = np.argsort(ranks)
    pre = np.concatenate([[1.0], np.cumprod(omp)])  # pre[i] = P[no point below index i]
    total = 0.0
    for a in range(0, n - 1, _TWO_APPROX_BLOCK):
        anchors = np.arange(a, min(a + _TWO_APPROX_BLOCK, n - 1))
        cols = by_rank[by_rank > a]  # partners j > a, ascending lex rank
        diff = pts[anchors, None, :] - pts[None, cols, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
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
        for k in range(len(anchors)):
            total += float(np.dot(pr[k], dist_rows[k]))
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
