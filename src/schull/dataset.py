"""Stochastic datasets: points with independent existence probabilities.

A dataset is a list of distinct points in R^d, each present in a random
realization independently with its own probability in (0, 1].  This module
owns the JSON interchange format, realization sampling, and the exponential
enumeration oracle that every estimator is tested against.

The oracle sums over all 2^n realizations (bit i of a mask = point i).
Diameter (any d), width (d = 2, 3) and the planar face counts are computed
for every mask as arrays, in blocks of 2^14 masks, from the coordinates
alone: a subset recursion for the diameter, the least extent over the
candidate directions of the one width kernel (``geometry._least_extent``)
for the width, and exact orientation signs for the planar hull.  The 3-d
face counts still walk the realizations and build each hull with
``convex_hull``.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

import numpy as np

from .errors import CapabilityError, DatasetError
from .geometry import HULL_DIMS, as_points, convex_hull, distance_matrix
from .geometry import _candidate_directions

# Enumeration walks all 2^n realizations; past this the oracle is hopeless.
MAX_ENUM_POINTS = 22


class StochasticDataset:
    """Immutable point set with per-point existence probabilities."""

    __slots__ = ("points", "probs")

    def __init__(self, points, probs):
        pts = np.array(as_points(points), dtype=np.float64)
        pr = np.asarray(probs, dtype=np.float64).reshape(-1)
        if len(pts) != len(pr):
            raise DatasetError(
                f"{len(pts)} points but {len(pr)} probabilities"
            )
        if len(pts) == 0:
            raise DatasetError("dataset must contain at least one point")
        if pts.shape[1] < 1:
            raise DatasetError("points must have at least one coordinate")
        if not np.isfinite(pr).all():
            raise DatasetError("non-finite probability")
        bad = np.nonzero((pr <= 0.0) | (pr > 1.0))[0]
        if bad.size:
            i = int(bad[0])
            raise DatasetError(
                f"probability of point {i} is {pr[i]!r}, must be in (0, 1]"
            )
        if len(set(map(tuple, pts.tolist()))) < len(pts):
            raise DatasetError("duplicate points in dataset")
        pts.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    def __setattr__(self, name, value):
        raise AttributeError("StochasticDataset is immutable")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def __repr__(self) -> str:
        return f"StochasticDataset(n={len(self)}, dim={self.dim})"


def decode_text(text: str | bytes) -> str:
    """Text of an input file; bytes must be UTF-8."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"input is not UTF-8: {exc}") from exc


def parse_dataset(text: str | bytes) -> StochasticDataset:
    """Parse the JSON interchange format.

    Expected shape: ``{"dim": d, "points": [{"coords": [...], "prob": p}, ...]}``.
    Errors carry enough context to locate the offending entry.
    """
    try:
        doc = json.loads(decode_text(text))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError("top-level JSON value must be an object")
    if "dim" not in doc or "points" not in doc:
        raise DatasetError('dataset object needs "dim" and "points" keys')
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DatasetError(f'"dim" must be a positive integer, got {dim!r}')
    raw = doc["points"]
    if not isinstance(raw, list) or not raw:
        raise DatasetError('"points" must be a non-empty list')
    coords, probs = [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "coords" not in entry or "prob" not in entry:
            raise DatasetError(f'point {i}: needs "coords" and "prob"')
        c = entry["coords"]
        if not isinstance(c, list) or len(c) != dim:
            raise DatasetError(f"point {i}: expected {dim} coordinates, got {c!r}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in c):
            raise DatasetError(f"point {i}: non-numeric coordinate")
        p = entry["prob"]
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise DatasetError(f"point {i}: non-numeric probability {p!r}")
        coords.append([float(v) for v in c])
        probs.append(float(p))
    try:
        return StochasticDataset(coords, probs)
    except DatasetError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise DatasetError(str(exc)) from exc


def dataset_to_json(ds: StochasticDataset) -> str:
    """Serialize to the interchange format (stable key order, one line per point)."""
    points = [
        {"coords": [float(c) for c in ds.points[i]], "prob": float(ds.probs[i])}
        for i in range(len(ds))
    ]
    doc = {"dim": ds.dim, "points": points}
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def load_dataset(path) -> StochasticDataset:
    with open(path, "rb") as fh:
        return parse_dataset(fh.read())


def save_dataset(ds: StochasticDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dataset_to_json(ds))


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) stream.

    Streams for different keys are statistically independent, so per-simplex
    sampling does not depend on enumeration order.
    """
    if seed < 0:
        raise DatasetError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def sample_realization(ds: StochasticDataset, rng: np.random.Generator) -> np.ndarray:
    """Draw one realization; returns the sorted indices of present points."""
    u = rng.random(len(ds))
    return np.flatnonzero(u < ds.probs)


def realization_prob(ds: StochasticDataset, indices) -> float:
    """Probability that the realization equals exactly this index set."""
    mask = np.zeros(len(ds), dtype=bool)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size:
        if idx.min() < 0 or idx.max() >= len(ds):
            raise DatasetError("realization index out of range")
        if len(np.unique(idx)) != len(idx):
            raise DatasetError("repeated index in realization")
        mask[idx] = True
    return float(np.prod(np.where(mask, ds.probs, 1.0 - ds.probs)))


def _guard_enum(ds: StochasticDataset) -> None:
    if len(ds) > MAX_ENUM_POINTS:
        raise CapabilityError(
            f"enumeration oracle limited to n <= {MAX_ENUM_POINTS}, got n={len(ds)}"
        )


def _mask_blocks(ds: StochasticDataset, lo: int) -> Iterator[np.ndarray]:
    """Realization probabilities, one block per setting of mask bits lo..n-1.

    Block h holds masks h * 2^lo ... (h+1) * 2^lo - 1 (bit i = point i) in
    ascending order.  Every probability is the product of the per-point
    factors taken in point order, so all block sizes give the same bits.
    """
    n = len(ds)
    pi = ds.probs
    low = np.array([1.0])
    for i in range(lo):
        low = np.concatenate([low * (1.0 - pi[i]), low * pi[i]])
    for h in range(1 << (n - lo)):
        p = low
        for i in range(lo, n):
            p = p * (pi[i] if h >> (i - lo) & 1 else 1.0 - pi[i])
        yield p


def enumerate_realizations(ds: StochasticDataset) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield every realization as (index tuple, probability), one at a time.

    Realization ``mask`` holds point i iff bit i of mask is set; 2^n of them,
    the empty one first.
    """
    _guard_enum(ds)
    n = len(ds)
    # Tabulate the members of the low half of the bits once; each
    # realization is then one exact-size tuple concatenation.
    lo = n // 2
    low = [tuple(i for i in range(lo) if m >> i & 1) for m in range(1 << lo)]
    for h, probs in enumerate(_mask_blocks(ds, lo)):
        high = tuple(lo + i for i in range(n - lo) if h >> i & 1)
        for members, prob in zip(low, probs.tolist()):
            yield members + high, prob


ORACLE_STATISTICS = ("diameter", "width", "complexity")

# The mask oracle evaluates a statistic on all 2^n realizations as arrays,
# one block of 2^_BLOCK_BITS masks (one setting of the high bits) at a time;
# no work array holds more than 2^_BLOCK_BITS values.
_BLOCK_BITS = 14


def _high_members(h: int, lo: int, n: int) -> np.ndarray:
    """Points of the high bits lo..n-1 that block h holds."""
    return lo + np.flatnonzero(h >> np.arange(n - lo) & 1)


def _bit_counts(k: int) -> np.ndarray:
    """Number of set bits of every k-bit mask."""
    counts = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        counts[1 << b:2 << b] = counts[:1 << b] + 1
    return counts


def _max_table(values: np.ndarray, init) -> np.ndarray:
    """t[..., m] = max(init, max of values[..., j] over the set bits j of m).

    Built by doubling over the bits of m.
    """
    k = values.shape[-1]
    t = np.empty(values.shape[:-1] + (1 << k,))
    t[..., 0] = init
    for j in range(k):
        np.maximum(t[..., :1 << j], values[..., j:j + 1], out=t[..., 1 << j:2 << j])
    return t


def _ordered_sum(total: float, prob: np.ndarray, value: np.ndarray) -> float:
    """total plus prob * value summed term by term in ascending mask order."""
    terms = prob * value
    terms[0] += total
    return float(np.cumsum(terms, out=terms)[-1])


def _diameter_blocks(pts: np.ndarray, lo: int) -> Iterator[np.ndarray]:
    """Diameter of every realization, by the subset recursion
    diam(S) = max(diam(S - {top}), max over j in S of |top - j|)."""
    n = len(pts)
    dmat = distance_matrix(pts)
    low = np.zeros(1 << lo)
    for b in range(lo):
        np.maximum(low[:1 << b], _max_table(dmat[b, :b], 0.0), out=low[1 << b:2 << b])
    for h in range(1 << (n - lo)):
        high = _high_members(h, lo, n)
        # pairs inside the high part, and each low point's farthest high one
        init = dmat[np.ix_(high, high)].max(initial=0.0)
        cross = dmat[high, :lo].max(axis=0, initial=0.0)
        yield np.maximum(low, _max_table(cross, init))


def _width_blocks(pts: np.ndarray, lo: int) -> Iterator[np.ndarray]:
    """Width of every realization: the least extent over the candidate
    directions of ``geometry._least_extent``, with the extents of all masks
    taken from ``_max_table``.  Realizations of at most d points have
    width 0."""
    n, d = pts.shape
    rows = (1 << _BLOCK_BITS) >> lo
    counts = _bit_counts(lo)
    for h in range(1 << (n - lo)):
        high = _high_members(h, lo, n)
        width = np.full(1 << lo, np.inf)
        for u in _candidate_directions(pts):
            proj = u @ pts.T
            top = proj[:, high].max(axis=1, initial=-np.inf)
            neg_bottom = (-proj[:, high]).max(axis=1, initial=-np.inf)
            for r in range(0, len(u), rows):
                # max - min over each realization, as max + max of the negation
                ext = _max_table(proj[r:r + rows, :lo], top[r:r + rows])
                ext += _max_table(-proj[r:r + rows, :lo], neg_bottom[r:r + rows])
                np.fmin(width, np.fmin.reduce(ext, axis=0), out=width)
        # no candidate direction at all means every point is on one line
        width[(counts + len(high) <= d) | np.isinf(width)] = 0.0
        yield width


def _exact_coords(pts: np.ndarray) -> np.ndarray:
    """The coordinates as Python integers on one power-of-two grid (exact)."""
    ratios = [x.as_integer_ratio() for x in pts.ravel().tolist()]
    den = max(d for _, d in ratios)
    return np.array([num * (den // d) for num, d in ratios], dtype=object).reshape(pts.shape)


def _supporting_pairs(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks (need, sel): directed pair k supports realization S iff
    S & sel[k] == need[k].

    A directed pair (i, j) supports S when both are in S and no member of S
    lies strictly right of the line i->j, or on it outside the segment.
    Sides are exact signs on the input coordinates, with no tolerance.
    """
    n = len(pts)
    q = _exact_coords(pts)
    i, j = np.triu_indices(n, 1)
    e = q[j] - q[i]
    rel = q[None, :, :] - q[i][:, None, :]
    side = e[:, None, 0] * rel[..., 1] - e[:, None, 1] * rel[..., 0]
    along = (rel * e[:, None, :]).sum(axis=2)
    outside = (side == 0) & ((along < 0) | (along > (e * e).sum(axis=1)[:, None]))
    bits = 1 << np.arange(n, dtype=np.int32)
    # i->j is blocked by points right of it, j->i by points left of it
    need = np.tile(bits[i] | bits[j], 2)
    sel = need | (np.concatenate([(side < 0) | outside, (side > 0) | outside]) @ bits)
    return need, sel


def _planar_face_blocks(pts: np.ndarray, lo: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Vertex and edge counts of the hull of every planar realization.

    With h supporting pairs, a polygon (h >= 3) has h vertices and h edges,
    a segment (h = 2) two vertices and one edge, a point one vertex.
    """
    n = len(pts)
    need, sel = _supporting_pairs(pts)
    rows = (1 << _BLOCK_BITS) >> lo
    counts = _bit_counts(lo)
    for h in range(1 << (n - lo)):
        masks = np.arange(h << lo, (h + 1) << lo, dtype=np.int32)
        hits = np.zeros(1 << lo, dtype=np.int16)
        for r in range(0, len(need), rows):
            hits += ((masks & sel[r:r + rows, None]) == need[r:r + rows, None]).sum(
                axis=0, dtype=np.int16)
        yield hits + (counts + bin(h).count("1") == 1), hits - (hits == 2)


def oracle_expectation(ds: StochasticDataset, statistic: str) -> float:
    """Expected value of a hull statistic by full enumeration.

    Empty and singleton realizations contribute 0 to diameter and width; the
    complexity of an empty realization is 0 and degenerate hulls are counted
    by the lower-dimensional face convention of ``convex_hull``.  Diameter,
    width and planar complexity are evaluated on all masks as arrays; the
    3-d complexity walks the realizations and builds each hull.  Terms are
    added one at a time in ascending mask order.
    """
    if statistic not in ORACLE_STATISTICS:
        raise CapabilityError(f"unknown statistic {statistic!r}")
    _guard_enum(ds)
    if statistic in ("width", "complexity") and ds.dim not in HULL_DIMS:
        raise CapabilityError(
            f"{statistic} oracle supports d in {HULL_DIMS}, got d={ds.dim}"
        )
    pts = ds.points
    if statistic == "complexity" and ds.dim == 3:
        total = 0.0
        for idx, pr in enumerate_realizations(ds):
            if idx:
                total += pr * sum(convex_hull(pts[list(idx)]).face_counts)
        return float(total)
    lo = min(len(ds), _BLOCK_BITS)
    if statistic == "diameter":
        values = _diameter_blocks(pts, lo)
    elif statistic == "width":
        values = _width_blocks(pts, lo)
    else:
        values = (v + e for v, e in _planar_face_blocks(pts, lo))
    total = 0.0
    for prob, value in zip(_mask_blocks(ds, lo), values):
        total = _ordered_sum(total, prob, value)
    return total


def oracle_face_expectations(ds: StochasticDataset) -> np.ndarray:
    """Expected count of k-dimensional hull faces, for each k < d."""
    _guard_enum(ds)
    if ds.dim not in HULL_DIMS:
        raise CapabilityError(f"face oracle supports d in {HULL_DIMS}, got d={ds.dim}")
    if ds.dim == 2:
        lo = min(len(ds), _BLOCK_BITS)
        verts = edges = 0.0
        for prob, (v, e) in zip(_mask_blocks(ds, lo), _planar_face_blocks(ds.points, lo)):
            verts = _ordered_sum(verts, prob, v)
            edges = _ordered_sum(edges, prob, e)
        return np.array([verts, edges])
    out = np.zeros(ds.dim)
    for idx, pr in enumerate_realizations(ds):
        if idx:
            out += pr * np.array(convex_hull(ds.points[list(idx)]).face_counts)
    return out


def oracle_distribution(
    ds: StochasticDataset, functional: Callable[[tuple[int, ...]], object]
) -> dict:
    """Pushforward distribution of an arbitrary realization functional."""
    dist: dict = {}
    for idx, prob in enumerate_realizations(ds):
        key = functional(idx)
        dist[key] = dist.get(key, 0.0) + prob
    return dist
