"""Expected width of a stochastic convex hull.

Width here is directional extent minimized over directions.  Every
full-dimensional realization is charged to its witness simplex: start from
the lex-largest point and repeatedly take the point farthest from the flat
spanned so far (ties lex-largest), d+1 vertices in total.  The simplex's own
width lower-bounds the realization's width and is within a factor of
2 * 5^(d-1) of it, so summing prob * simplex width over all witness
simplices brackets the expectation.  The simplices are found the way the
construction builds them: each prefix grows one vertex at a time and stops
at its first degenerate flat or at the first step that beats a prefix
vertex.  For an (eps)-accurate estimate the sampling estimator replaces
each simplex's width by the expected realization width conditioned on that
simplex being the witness: summed exactly when the cell has at most as many
sub-realizations as samples, a Monte Carlo average otherwise.

Both estimators read the cells from one stream, ``_witness_runs``, a run of
``geometry._walk``'s prefixes at a time, walked once from every first
vertex; only the witness estimator cuts against its running total.  Every
width here is the least extent over the candidate directions of
``geometry._least_extent``: the witness estimator evaluates the simplices
of a run in one call of it, and the sampling estimator all distinct
sampled subsets of a cell.  Cells summed exactly take the widths of all
their sub-realizations from the enumeration oracle's doubling table,
``dataset._subset_widths``, in batches of cells with free sets of one size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import StochasticDataset, _ordered_sum, _subset_probs, _subset_widths
from .dataset import rng_stream
from .errors import CapabilityError, DatasetError
from .geometry import (
    EPS_GEO,
    HULL_DIMS,
    _CHUNK,
    _least_extent,
    _order_by_distance,
    _runs,
    _walk,
    after_in_order,
    dists_to_flat,
    lex_ranks,
)


def width_simplex_factor(d: int) -> float:
    """Lower bound on simplex width / hull width for a witness simplex."""
    if d < 1:
        raise CapabilityError("dimension must be positive")
    return 0.5 * 5.0 ** (-(d - 1))


def _witness_runs(ds: StochasticDataset, ranks: np.ndarray, first, total=lambda: 0.0):
    """The decomposition's cells led by the first vertex ``first``, an index
    or an array of them, a run of construction prefixes at a time;
    ``ranks`` are the points' ``lex_ranks``.

    Yields ``(bounds, verts, probs, excluded)``: the B + 1 offsets of the
    cells of the run's B construction prefixes, prefix i owning cells
    bounds[i]:bounds[i + 1], and per cell its (d + 1)-vertex construction
    order (prefix plus last vertex), its probability and the (cells, n)
    mask of the points it forces absent.  Prefixes come in ascending
    lexicographic order, and so do the cells, so the cells of an array of
    first vertices are those of each one in turn, concatenated; only the
    run boundaries differ.  Runs without a cell are skipped.

    The prefixes of d vertices come from ``geometry._walk``, with one
    ``dists_to_flat`` call per level batch, which drops degenerate flats,
    and the mass cut against ``total()``, read at every level.  The prefix
    mass serves every last vertex; each adds the points after it in the
    (distance to the prefix flat, lex) order.  The last vertices are the
    points off the prefix flat that beat no step: each is at most a tie
    with every earlier vertex and then lex-smaller, so it recovers to the
    prefix plus itself.  Runs are cut at ``_CHUNK`` (cell, point) values;
    a prefix whose cells hold more than that forms a run of its own.
    """
    pts, pi = ds.points, ds.probs
    omp = 1.0 - pi
    levels = [lambda prefix: dists_to_flat(pts, pts[prefix])] * ds.dim
    root = np.reshape(first, (-1, 1))
    for prefix, excls, _, mass, dists in _walk(pts, pi, ranks, root, levels, total):
        last = ~excls & (dists > EPS_GEO)
        last[np.arange(len(prefix))[:, None], prefix] = False
        sizes = last.sum(axis=1)
        for rows in _runs(sizes * len(pi)):
            b, c = np.nonzero(last[rows])
            if not c.size:
                continue
            none_after, excluded = _last_vertices(dists[rows], excls[rows], b, c, ranks, omp)
            bounds = [0, *np.cumsum(sizes[rows]).tolist()]
            probs = mass[rows][b] * pi[c] * none_after
            yield bounds, np.column_stack([prefix[rows][b], c]), probs, excluded


def _last_vertices(dists, excls, b, c, ranks, omp):
    """For the (prefix, last vertex) cells (b, c) of B prefixes with (B, n)
    distances to their flats and exclusion masks: the probability that no
    point after c in the (distance to the prefix flat, lex) order is
    present, over the points the prefix does not already exclude, and the
    (cells, n) mask of the points the cell forces absent.
    """
    after = after_in_order(dists[b], dists[b, c, None], ranks, ranks[c, None])
    # Multiply far to near, one factor at a time, so the rounding is that of
    # a suffix product over each prefix's sorted order.  by_rank comes from a
    # stable sort: the default one for an int array pages in about 0.25 MB of
    # numpy sort code (process RSS) that the FPRAS uses nowhere else.
    by_rank = np.argsort(ranks, kind="stable")
    far = _order_by_distance(dists[:, by_rank], by_rank)[:, ::-1]
    absent = np.where(np.take_along_axis(excls, far, axis=1), 1.0, omp[far])
    w = np.where(np.take_along_axis(after, far[b], axis=1), absent[b], 1.0)
    return np.cumprod(w, axis=1, out=w)[:, -1].copy(), after | excls[b]


def expected_width_witness(ds: StochasticDataset) -> float:
    """Expected witness-simplex width, summed over the decomposition's cells.

    Each construction prefix adds its cells' probabilities times their
    simplices' widths, prefix by prefix; the widths come from one
    width-kernel call per run of ``_witness_runs`` from every first vertex.
    The result is within [expected width / (2 * 5^(d-1)), expected width],
    restricted to full-dimensional realizations.

    A prefix's cells weigh at most its mass, so the walk drops, at every
    tree level, the prefixes whose mass cannot change the running total;
    first vertices cut against 0 fall with their children.  The sum has
    the bits of one walk per first vertex, whose cells come in order.
    """
    if ds.dim not in HULL_DIMS:
        raise CapabilityError(f"width estimators support dimensions {HULL_DIMS}")
    pts, ranks, total = ds.points, lex_ranks(ds.points), 0.0
    for bounds, verts, probs, _ in _witness_runs(ds, ranks, np.arange(len(ds)), lambda: total):
        widths = _least_extent(pts[verts])
        # a product per prefix: padded rows would change ddot's blocks and bits
        for lo, hi in zip(bounds, bounds[1:]):
            total += float(probs[lo:hi] @ widths[lo:hi])
    return total


def fpras_gamma(d: int) -> float:
    """Sample-count coefficient from the worst-case width ratio of a cell."""
    if d not in HULL_DIMS:
        raise CapabilityError(f"sampling estimator supports dimensions {HULL_DIMS}")
    ratio = 1.0 / width_simplex_factor(d)
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


def _count_rows(present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a boolean matrix in lexicographic order, with counts.

    Gives the rows, order and counts of a row-wise ``np.unique`` from a 1-d
    ``np.unique`` over each row's packed bytes: ``packbits`` puts the first
    column in the most significant bit and pads every row with the same
    zeros, so byte order is lexicographic row order.
    """
    packed = np.packbits(present, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return present[first], counts


def _exact_cell_widths(pts, pi, verts, free_rows, sizes, exact):
    """Each ``exact`` cell's expected width given the cell: the widths of
    all 2^k sub-realizations of its k free points (free point j at bit j,
    the simplex present) summed in ascending mask order; NaN elsewhere.
    Cells of one free-set size go in batches of B, with B * directions *
    max(2^k, d + 1 + k) at most ``_CHUNK``; every value has the bits of a
    batch of one."""
    d = pts.shape[1]
    values = np.full(len(verts), np.nan)
    for k in set(sizes[exact].tolist()):
        size = k + d + 1
        pairs = size * (size - 1) // 2
        directions = pairs if d == 2 else pairs * (pairs - 1) // 2
        step = max(1, _CHUNK // (directions * max(1 << k, size)))
        cells = np.flatnonzero(exact & (sizes == k))
        for s in range(0, len(cells), step):
            c = cells[s:s + step]
            free = np.nonzero(free_rows[c])[1].reshape(len(c), k)
            # the free points in index order at bits 0..k-1, then the simplex
            # sorted; the default int sort would page in numpy sort code
            base = np.sort(verts[c], axis=1, kind="stable")
            widths = _subset_widths(pts[np.hstack([free, base])], k, np.arange(k, size))
            values[c] = np.cumsum(_subset_probs(pi[free]) * widths, axis=1)[:, -1]
    return values


def expected_width_fpras(
    ds: StochasticDataset, config: FprasConfig, *, stats: dict | None = None
) -> float:
    """Estimate the expected hull width, cell by cell.

    The cells of ``_witness_runs`` with positive probability, the same
    ones the witness estimator sums over, partition the full-dimensional
    realizations; a cell's free points are those neither forced absent nor
    on its simplex.  A cell whose free points F have 2^|F| <= m
    sub-realizations, m the per-cell sample count, is summed exactly over
    them, which costs fewer width evaluations than m draws and adds no
    variance.  Any other cell samples the width by drawing its free points
    independently, so its estimate lands in [simplex width, simplex width *
    2 * 5^(d-1)] and concentrates.  With the theoretical sample count the
    relative error is at most epsilon with probability 1 - 1/n;
    deterministic given the seed.  If ``stats`` is given, its
    ``"sampled_cells"`` entry is set to the number of sampled cells; 0 means
    the result is the exact expectation.

    One walk from every first vertex yields the cells.  In each run the
    exact cells are evaluated in batches of equal free-set size
    (``_exact_cell_widths``), and every cell's prob * value is then added
    in stream order, so the sum has the bits of a cell-by-cell loop.
    """
    n = len(ds)
    d = ds.dim
    gamma = fpras_gamma(d)  # also the dimension check
    if config.gamma_override is not None:
        gamma = config.gamma_override
    sampled = 0
    total = 0.0
    m = fpras_sample_count(n, config.epsilon, gamma)
    pts, pi, ranks = ds.points, ds.probs, lex_ranks(ds.points)
    for _, verts, probs, excluded in _witness_runs(ds, ranks, np.arange(n)):
        # a cell's free points: neither forced absent nor simplex vertices
        free_rows = ~excluded
        free_rows[np.arange(len(verts))[:, None], verts] = False
        sizes = free_rows.sum(axis=1)
        exact = (probs > 0.0) & (sizes < m.bit_length())  # 2^|free| <= m
        values = _exact_cell_widths(pts, pi, verts, free_rows, sizes, exact)
        cells = zip(verts.tolist(), probs.tolist(), exact.tolist(), values.tolist(), free_rows)
        for cell, prob, summed, value, row in cells:
            if summed:
                total += prob * value
                continue
            if not prob > 0.0:
                continue
            sampled += 1
            free = np.flatnonzero(row)
            base = sorted(cell)
            k = free.size
            rng = rng_stream(config.seed, *base)
            rows, hits = _count_rows(rng.random((m, k)) < pi[free])
            # one row per distinct sample: the simplex present, the free points drawn
            present = np.hstack([np.ones((len(rows), d + 1), dtype=bool), rows])
            widths = _least_extent(pts[[*base, *free]], present)
            total += prob * (_ordered_sum(0.0, hits, widths) / m)
    if stats is not None:
        stats["sampled_cells"] = sampled
    return float(total)
