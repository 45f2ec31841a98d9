"""Expected width of a stochastic convex hull.

Width here is directional extent minimized over directions.  Every
full-dimensional realization is charged to its witness simplex: start from
the lex-largest point and repeatedly take the point farthest from the flat
spanned so far (ties lex-largest), d+1 vertices in total.  The simplex's own
width lower-bounds the realization's width and is within a factor of
2 * 5^(d-1) of it, so summing prob * simplex width over all witness
simplices brackets the expectation.  For an (eps)-accurate estimate the
sampling estimator replaces each simplex's width by the expected realization
width conditioned on that simplex being the witness: summed exactly when the
cell has at most as many sub-realizations as samples, a Monte Carlo average
otherwise.

Every width here is the least extent over the candidate directions of
``geometry._least_extent``: the witness estimator evaluates all simplices
of a construction prefix in one call of it, and the sampling estimator all
distinct sampled subsets of a cell.  A cell summed exactly takes the widths
of all its sub-realizations from the enumeration oracle's doubling table,
``dataset._subset_widths``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

import numpy as np

from .dataset import (
    StochasticDataset,
    _ordered_sum,
    _subset_probs,
    _subset_widths,
    rng_stream,
)
from .errors import CapabilityError, DatasetError, GeometryError
from .geometry import (
    EPS_GEO,
    HULL_DIMS,
    _least_extent,
    after_in_order,
    dists_to_flat,
    flat_through,
    lex_ranks,
)


def width_simplex_factor(d: int) -> float:
    """Lower bound on simplex width / hull width for a witness simplex."""
    if d < 1:
        raise CapabilityError("dimension must be positive")
    return 0.5 * 5.0 ** (-(d - 1))


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


def expected_width_fpras(
    ds: StochasticDataset, config: FprasConfig, *, stats: dict | None = None
) -> float:
    """Estimate the expected hull width, cell by cell.

    The cells of ``witness_simplex_decomposition``, the same ones the
    witness estimator sums over, partition the full-dimensional
    realizations.  A cell whose free points F have 2^|F| <= m
    sub-realizations, m the per-cell sample count, is summed exactly over
    them, which costs fewer width evaluations than m draws and adds no
    variance.  Any other cell samples the width by drawing its free points
    independently, so its estimate lands in [simplex width, simplex width *
    2 * 5^(d-1)] and concentrates.  With the theoretical sample count the
    relative error is at most epsilon with probability 1 - 1/n;
    deterministic given the seed.  If ``stats`` is given, its
    ``"sampled_cells"`` entry is set to the number of sampled cells; 0 means
    the result is the exact expectation.
    """
    n = len(ds)
    d = ds.dim
    gamma = fpras_gamma(d)  # also the dimension check
    if config.gamma_override is not None:
        gamma = config.gamma_override
    sampled = 0
    total = 0.0
    if n >= d + 1:
        m = fpras_sample_count(n, config.epsilon, gamma)
        pts, pi = ds.points, ds.probs
        for verts, prob, _excluded, free in witness_simplex_decomposition(ds):
            base = tuple(sorted(verts))
            k = len(free)
            if 1 << k <= m:
                # every sub-realization once: the simplex present, free[j] at bit j
                simplex = np.arange(k, k + d + 1)
                widths = _subset_widths(pts[list(free + base)], k, simplex)
                total += prob * _ordered_sum(0.0, _subset_probs(pi[list(free)]), widths)
                continue
            sampled += 1
            rng = rng_stream(config.seed, *base)
            rows, hits = _count_rows(rng.random((m, k)) < pi[list(free)])
            # one row per distinct sample: the simplex present, the free points drawn
            present = np.hstack([np.ones((len(rows), d + 1), dtype=bool), rows])
            widths = _least_extent(pts[list(base + free)], present)
            total += prob * (_ordered_sum(0.0, hits, widths) / m)
    if stats is not None:
        stats["sampled_cells"] = sampled
    return float(total)
