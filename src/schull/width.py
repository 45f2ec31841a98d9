"""Expected width of a stochastic convex hull.

Width here is directional extent minimized over directions.  Every
full-dimensional realization is charged to its witness simplex: start from
the lex-largest point and repeatedly take the point farthest from the flat
spanned so far (ties lex-largest), d+1 vertices in total.  The simplex's own
width lower-bounds the realization's width and is within a factor of
2 * 5^(d-1) of it, so summing prob * simplex width over all witness
simplices brackets the expectation.  For an (eps)-accurate estimate the
sampling estimator replaces each simplex's width by a Monte Carlo average of
realization widths conditioned on that simplex being the witness.

Every width here comes from one kernel, ``geometry._least_extent``: the
witness estimator evaluates all simplices of a construction prefix in one
call, and the sampling estimator all distinct sampled subsets of a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

import numpy as np

from .dataset import StochasticDataset, _ordered_sum, rng_stream
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import (
    EPS_GEO,
    HULL_DIMS,
    _least_extent,
    after_in_order,
    as_points,
    dists_to_flat,
    flat_through,
    last_in_order,
    lex_ranks,
)


def width_simplex_factor(d: int) -> float:
    """Lower bound on simplex width / hull width for a witness simplex."""
    if d < 1:
        raise CapabilityError("dimension must be positive")
    return 0.5 * 5.0 ** (-(d - 1))


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
        flat = flat_through(pts[chosen])
        dist = dists_to_flat(pts[cand], flat)
        if dist.max() <= EPS_GEO:
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


def _prefix_flats(pts, order) -> list:
    """Flats through order[:1], order[:2], ..., order[:len(order)]."""
    return [flat_through(pts[list(order[: i + 1])]) for i in range(len(order))]


def _beaten(pts, ranks, order, flats) -> np.ndarray:
    """Mask of points that beat a step of the construction order.

    A point beats the first vertex when it is lex-larger, and beats
    order[i + 1] when it comes after it in the (distance to flats[i], lex)
    order; only the steps that have a flat are checked.
    """
    excl = ranks > ranks[order[0]]
    for flat, v in zip(flats, order[1:]):
        dist = dists_to_flat(pts, flat)
        excl |= after_in_order(dist, dist[v], ranks, ranks[v])
    return excl


def witness_simplex_prob(ds: StochasticDataset, simplex) -> float:
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
    excl = _beaten(pts, lex_ranks(pts), rec, _prefix_flats(pts, rec[:-1]))
    if excl[list(rec)].any():
        return 0.0
    return float(np.prod(pi[list(rec)]) * np.prod((1.0 - pi)[excl]))


def _witness_groups(ds: StochasticDataset):
    """The decomposition's cells one construction prefix at a time.

    Yields ``(prefix, last, probs, excluded)``: the first d vertices, the
    array of last vertices, their cells' probabilities and the
    (len(last), n) mask of the points each cell forces absent.

    Fixing the first d vertices fixes the exclusion conditions of every
    step but the last, so one product of absence probabilities serves
    every last vertex; each adds the points after it in the (distance to
    the prefix flat, lex) order.  The last vertices are the points off the
    prefix flat that beat no step: each is at most a tie with every earlier
    vertex and then lex-smaller, so it recovers to the prefix plus itself.
    """
    pts, pi = ds.points, ds.probs
    n, d = pts.shape
    omp = 1.0 - pi
    ranks = lex_ranks(pts)
    for prefix in permutations(range(n), d):
        v0 = prefix[0]
        if any(ranks[v] > ranks[v0] for v in prefix[1:]):
            continue  # the first vertex is the lex-largest of the simplex
        try:
            flats = _prefix_flats(pts, prefix)
        except GeometryError:
            continue
        excl = _beaten(pts, ranks, prefix, flats)
        plist = list(prefix)
        if excl[plist].any():
            continue
        dlast = dists_to_flat(pts, flats[-1])
        last = ~excl & (dlast > EPS_GEO)
        last[plist] = False
        c = np.flatnonzero(last)
        if not c.size:
            continue
        after = after_in_order(dlast, dlast[c, None], ranks, ranks[c, None])
        # Multiply far to near, one factor at a time, so the rounding is that
        # of a suffix product over the sorted order.
        far = np.lexsort((ranks, dlast))[::-1]
        w = np.where(after[:, far] & ~excl[far], omp[far], 1.0)
        none_after = np.cumprod(w, axis=1)[:, -1]
        left = float(np.prod(pi[plist]) * np.prod(omp[excl]))
        yield prefix, c, left * pi[c] * none_after, after | excl


def witness_simplex_decomposition(
    ds: StochasticDataset,
) -> Iterator[tuple[tuple[int, ...], float, tuple[int, ...], tuple[int, ...]]]:
    """All witness simplices with positive probability, grouped by prefix.

    Yields ``(vertex_list, prob, excluded, free)``: the construction order,
    the probability that it is the realized witness simplex, the indices
    forced absent, and the unconstrained indices.  The cells partition the
    full-dimensional realizations, so the probabilities sum to the
    probability that a realization is full-dimensional.  The witness
    estimator sums over ``_witness_groups``, which this flattens, and the
    sampling estimator samples each cell's free points.
    """
    for prefix, last, probs, excluded in _witness_groups(ds):
        free = ~excluded
        free[:, list(prefix)] = False
        free[np.arange(last.size), last] = False
        for v, prob, ex, fr in zip(last.tolist(), probs.tolist(), excluded, free):
            if prob > 0.0:
                yield (
                    prefix + (v,),
                    prob,
                    tuple(np.flatnonzero(ex).tolist()),
                    tuple(np.flatnonzero(fr).tolist()),
                )


def _expected_width_witness_naive(ds: StochasticDataset) -> float:
    """Sum prob * simplex width over ordered vertex tuples.  Test oracle."""
    n = len(ds)
    d = ds.dim
    total = 0.0
    for order in permutations(range(n), d + 1):
        p = witness_simplex_prob(ds, order)
        if p > 0.0:
            total += p * simplex_width(ds.points[list(order)])
    return total


def expected_width_witness(ds: StochasticDataset) -> float:
    """Expected witness-simplex width, summed over the decomposition's cells.

    Each construction prefix adds its cells' probabilities times their
    simplices' widths, from one width-kernel call.  The result is within
    [expected width / (2 * 5^(d-1)), expected width], restricted to
    full-dimensional realizations.
    """
    if ds.dim not in HULL_DIMS:
        raise CapabilityError(f"width estimators support dimensions {HULL_DIMS}")
    pts, d = ds.points, ds.dim
    total = 0.0
    for prefix, last, probs, _excluded in _witness_groups(ds):
        verts = np.column_stack([np.broadcast_to(prefix, (last.size, d)), last])
        total += float(probs @ _least_extent(pts[verts]))
    return total


_THEORETICAL_HULL_RATIO = {d: 2.0 * 5.0 ** (d - 1) for d in HULL_DIMS}


def fpras_gamma(d: int) -> float:
    """Sample-count coefficient from the worst-case width ratio of a cell."""
    ratio = _THEORETICAL_HULL_RATIO.get(d)
    if ratio is None:
        raise CapabilityError(f"sampling estimator supports dimensions {HULL_DIMS}")
    return d * ratio * ratio


def fpras_sample_count(n: int, epsilon: float, gamma: float) -> int:
    count = gamma * math.log(n) / (epsilon * epsilon)
    if not math.isfinite(count):
        raise DatasetError(f"sample count {count!r} is not finite; lower gamma")
    return max(1, math.ceil(count))


@dataclass(frozen=True)
class FprasConfig:
    """Accuracy/seed knobs for the sampling width estimator.

    ``gamma_override`` replaces the (large) theoretical sample coefficient;
    the estimator stays unbiased for any positive value, only the variance
    guarantee changes.
    """

    epsilon: float
    seed: int = 0
    gamma_override: float | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise DatasetError("epsilon must be in (0, 1)")
        if self.gamma_override is not None and not (
            0.0 < self.gamma_override < math.inf
        ):
            raise DatasetError("gamma_override must be positive and finite")
        if self.seed < 0:
            raise DatasetError("seed must be non-negative")


# Columns folded into one int64 row key; the sign bit stays clear.
_KEY_BITS = 62


def _count_rows(present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a boolean matrix in lexicographic order, with counts.

    Gives the rows, order and counts of a row-wise ``np.unique`` without
    sorting whole rows.  Each row is folded into an int64 key, first column
    most significant, so ascending keys are lexicographic rows.  Past
    ``_KEY_BITS`` columns the row is folded one chunk at a time, and after
    each further chunk the pair (rank so far, chunk key) is re-ranked
    densely, which keeps the order.
    """
    m, k = present.shape
    ids = np.zeros(m, dtype=np.int64)
    for start in range(0, k, _KEY_BITS):
        key = ids if start == 0 else np.zeros(m, dtype=np.int64)
        for j in range(start, min(start + _KEY_BITS, k)):
            key <<= 1
            key |= present[:, j]
        if start:
            order = np.lexsort((key, ids))
            a, b = ids[order], key[order]
            step = np.zeros(m, dtype=np.int64)
            step[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
            ids[order] = np.cumsum(step)
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    return present[first], counts


def expected_width_fpras(ds: StochasticDataset, config: FprasConfig) -> float:
    """Estimate the expected hull width by stratified sampling.

    The cells of ``witness_simplex_decomposition``, the same ones the
    witness estimator sums over, partition the full-dimensional
    realizations; within each cell the width is sampled by drawing the
    unconstrained points independently, so every cell estimate lands in
    [simplex width, simplex width * 2 * 5^(d-1)] and concentrates.  With the
    theoretical sample count the relative error is at most epsilon with
    probability 1 - 1/n; deterministic given the seed.
    """
    n = len(ds)
    d = ds.dim
    gamma = fpras_gamma(d)  # also the dimension check
    if config.gamma_override is not None:
        gamma = config.gamma_override
    if n < d + 1:
        return 0.0
    m = fpras_sample_count(n, config.epsilon, gamma)
    pts, pi = ds.points, ds.probs
    total = 0.0
    for verts, prob, _excluded, free in witness_simplex_decomposition(ds):
        base = tuple(sorted(verts))
        rows = np.zeros((1, 0), dtype=bool)
        if free:
            rng = rng_stream(config.seed, *base)
            rows, counts = _count_rows(rng.random((m, len(free))) < pi[list(free)])
        # one row per distinct sample: the simplex present, the free points drawn
        present = np.hstack([np.ones((len(rows), d + 1), dtype=bool), rows])
        widths = _least_extent(pts[list(base + free)], present)
        total += prob * (_ordered_sum(0.0, counts, widths) / m if free else widths[0])
    return float(total)
