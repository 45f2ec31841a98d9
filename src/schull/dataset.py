"""Stochastic datasets: points with independent existence probabilities.

A dataset is a list of distinct points in R^d, each present in a random
realization independently with its own probability in (0, 1].  This module
owns the JSON interchange format, the seeded random streams, and the
exponential enumeration oracle that every estimator is tested against.

The oracle sums over all 2^n realizations (bit i of a mask = point i).
Every statistic is computed for every mask as arrays from the coordinates
alone, in blocks of ``geometry._CHUNK`` masks (one setting of the high
bits each) whose work arrays hold at most that many values: a subset
recursion for the diameter, the least extent over the candidate
directions of the one width kernel (``geometry._least_extent``) for the
width (d = 2, 3), and for the face census (d = 2, 3) bit-mask tests of
supporting pairs and triples whose sides are exact signs on the
coordinates, with no tolerance.  The 3-d census counts vertices, edges
and facets each on its own, with no Euler identity, so it stays an
independent check of the estimators.  The complexity is the sum of the
face census.
"""

from __future__ import annotations

import json
import math
from typing import Iterator

import numpy as np

from .errors import CapabilityError, DatasetError
from .geometry import HULL_DIMS, distance_matrix
from .geometry import _CHUNK, _candidate_directions

# Enumeration walks all 2^n realizations; past this the oracle is hopeless.
MAX_ENUM_POINTS = 22

# Largest coordinate magnitude.  Under it the squared pair differences and
# the squared cross products of the 3-d width kernel stay finite.
MAX_COORD = 2.0**250


class StochasticDataset:
    """Immutable point set with per-point existence probabilities."""

    __slots__ = ("points", "probs")

    def __init__(self, points, probs):
        pts = np.array(points, dtype=np.float64)
        pts = pts.reshape(1, -1) if pts.ndim == 1 else pts
        pr = np.asarray(probs, dtype=np.float64).reshape(-1)
        if pts.ndim != 2:
            raise DatasetError(f"expected a 2-d point array, got shape {pts.shape}")
        if len(pts) != len(pr):
            raise DatasetError(
                f"{len(pts)} points but {len(pr)} probabilities"
            )
        if len(pts) == 0:
            raise DatasetError("dataset must contain at least one point")
        if pts.shape[1] < 1:
            raise DatasetError("points must have at least one coordinate")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise DatasetError(f"point {int(bad[0])} has a non-finite coordinate")
        big = np.flatnonzero((np.abs(pts) > MAX_COORD).any(axis=1))
        if big.size:
            raise DatasetError(
                f"point {int(big[0])} has a coordinate above 2**250 (about 1.8e75) "
                "in magnitude; its squared lengths would overflow"
            )
        # NaN fails both comparisons, so it is caught here too
        bad = np.flatnonzero(~((pr > 0.0) & (pr <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise DatasetError(
                f"probability of point {i} is {float(pr[i])!r}, must be in (0, 1]"
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
    except (ValueError, RecursionError) as exc:
        # also integer literals past Python's digit limit and deep nesting
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
        try:
            coords.append([float(v) for v in c])
            probs.append(float(p))
        except OverflowError as exc:
            raise DatasetError(f"point {i}: number out of range: {exc}") from exc
        if not all(math.isfinite(v) for v in coords[-1]):
            raise DatasetError(f"point {i}: non-finite coordinate")
        if not math.isfinite(probs[-1]):
            raise DatasetError(f"point {i}: non-finite probability")
    return StochasticDataset(coords, probs)


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


def _check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer; a float or a bool
    would otherwise run silently as int(seed).  Numpy integers pass."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DatasetError(f"seed must be a non-negative integer, got {seed!r}")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) stream.

    Streams for different keys are statistically independent, so per-simplex
    sampling does not depend on enumeration order.
    """
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def _guard_enum(ds: StochasticDataset) -> None:
    if len(ds) > MAX_ENUM_POINTS:
        raise CapabilityError(
            f"enumeration oracle limited to n <= {MAX_ENUM_POINTS}, got n={len(ds)}"
        )


def _subset_probs(pi: np.ndarray) -> np.ndarray:
    """Probability of every subset of independent points present with
    probabilities pi (..., k), in ascending mask order (bit i = point i)
    along the last axis; the factors are multiplied in point order."""
    low = np.ones(pi.shape[:-1] + (1,))
    for i in range(pi.shape[-1]):
        p = pi[..., i:i + 1]
        low = np.concatenate([low * (1.0 - p), low * p], axis=-1)
    return low


def _mask_blocks(ds: StochasticDataset, lo: int) -> Iterator[np.ndarray]:
    """Realization probabilities, one block per setting of mask bits lo..n-1.

    Block h holds masks h * 2^lo ... (h+1) * 2^lo - 1 (bit i = point i) in
    ascending order.  Every probability is the product of the per-point
    factors taken in point order, so all block sizes give the same bits.
    """
    n = len(ds)
    pi = ds.probs
    low = _subset_probs(pi[:lo])
    for h in range(1 << (n - lo)):
        p = low
        for i in range(lo, n):
            p = p * (pi[i] if h >> (i - lo) & 1 else 1.0 - pi[i])
        yield p


ORACLE_STATISTICS = ("diameter", "width", "complexity")


def _high_members(h: int, lo: int, n: int) -> np.ndarray:
    """Points of the high bits lo..n-1 that block h holds."""
    return lo + np.flatnonzero(h >> np.arange(n - lo) & 1)


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


def _ordered_sum(total, terms):
    """``total`` plus ``terms`` added one by one along the last axis, the bits
    of a ``total += term`` loop, in place (a float array is overwritten):
    ``total`` if there are none, else a float or an array over leading axes."""
    terms = np.asarray(terms, dtype=np.float64)
    if not terms.shape[-1]:
        return total
    terms[..., 0] += total
    last = np.cumsum(terms, axis=-1, out=terms)[..., -1]
    return float(last) if last.ndim == 0 else last


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


def _subset_widths(pts: np.ndarray, lo: int, high: np.ndarray) -> np.ndarray:
    """Least extent of the points ``high`` plus each subset of the points
    0..lo-1, in ascending mask order: the minimum over the candidate
    directions of ``geometry._least_extent``, with the extents of all
    subsets taken from ``_max_table``.  ``pts`` is one point set (k, d) or
    a batch of them (..., k, d), all with the same ``high``; the result has
    shape (..., 2^lo).  inf where no candidate direction applies."""
    rows = max(1, _CHUNK >> lo)
    width = np.full(pts.shape[:-2] + (1 << lo,), np.inf)
    for u in _candidate_directions(pts):
        proj = u @ np.swapaxes(pts, -1, -2)  # (..., c, k)
        top = proj[..., high].max(axis=-1, initial=-np.inf)
        neg_bottom = (-proj[..., high]).max(axis=-1, initial=-np.inf)
        for r in range(0, u.shape[-2], rows):
            # max - min over each subset, as max + max of the negation
            ext = _max_table(proj[..., r:r + rows, :lo], top[..., r:r + rows])
            ext += _max_table(-proj[..., r:r + rows, :lo], neg_bottom[..., r:r + rows])
            np.fmin(width, np.fmin.reduce(ext, axis=-2), out=width)
    return width


def _width_blocks(pts: np.ndarray, lo: int) -> Iterator[np.ndarray]:
    """Width of every realization, by ``_subset_widths`` over the low bits.
    Realizations of at most d points have width 0."""
    n, d = pts.shape
    counts = np.bitwise_count(np.arange(1 << lo))
    for h in range(1 << (n - lo)):
        high = _high_members(h, lo, n)
        width = _subset_widths(pts, lo, high)
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


def _support_chunks(masks: np.ndarray, need: np.ndarray, sel: np.ndarray,
                    rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """(r, hits): hits[t, m] says whether row r + t of (need, sel) supports
    realization masks[m], i.e. masks[m] & sel == need, for rows r .. r + rows - 1."""
    for r in range(0, len(need), rows):
        yield r, (masks & sel[r:r + rows, None]) == need[r:r + rows, None]


def _count_supports(masks: np.ndarray, need: np.ndarray, sel: np.ndarray,
                    rows: int) -> np.ndarray:
    """Number of rows of (need, sel) that support each realization."""
    hits = np.zeros(len(masks), dtype=np.int16)
    for _, hit in _support_chunks(masks, need, sel, rows):
        hits += hit.sum(axis=0, dtype=np.int16)
    return hits


def _planar_face_blocks(pts: np.ndarray, lo: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Vertex and edge counts of the hull of every planar realization.

    With h supporting pairs, a polygon (h >= 3) has h vertices and h edges,
    a segment (h = 2) two vertices and one edge, a point one vertex.
    """
    n = len(pts)
    need, sel = _supporting_pairs(pts)
    rows = _CHUNK >> lo
    counts = np.bitwise_count(np.arange(1 << lo))
    for h in range(1 << (n - lo)):
        masks = np.arange(h << lo, (h + 1) << lo, dtype=np.int32)
        hits = _count_supports(masks, need, sel, rows)
        yield hits + (counts + bin(h).count("1") == 1), hits - (hits == 2)


def _spatial_supports(pts: np.ndarray) -> tuple:
    """Bit masks (need, sel) of the 3-d face census; a row supports
    realization S iff S & sel == need.  Sides are exact signs on the input
    coordinates, with no tolerance.

    Returns ``line``, ``edge`` and ``facet`` row sets and ``ends``:
    - line (pair i < j): i and j are the two smallest members of S and S
      lies on line ij, so S is collinear.
    - edge (pair i < j, third point k off line ij; ``ends`` = the pair's
      bits): i and j are the extremes of S on line ij, no member of S is
      strictly on the positive side of the plane ijk (normal
      (j - i) x (k - i)), and projected along j - i, every member on that
      plane lands in the segment from ij to k, the members landing on k
      having larger indices.  Then ij projects to a corner of the projected
      hull of S and k to the next corner, so ij is an edge with exactly one
      supporting row.
    - facet (triple i < j < k, not collinear; one ``need`` and a ``sel``
      for each side of the plane): no member of S is strictly on that side
      of plane ijk, i and j are the two smallest members on the plane and
      k is the smallest one on it off line ij.  Each facet plane of S has
      one such triple; a coplanar S passes with both sides.
    """
    n = len(pts)
    q = _exact_coords(pts)
    idx = np.arange(n)
    bits = 1 << np.arange(n, dtype=np.int32)
    first_of, second_of = np.triu_indices(n, 1)
    pairs = bits[first_of] | bits[second_of]
    line, rows = [], [[np.zeros(0, dtype=np.int32)] for _ in range(6)]
    for i, j, pair in zip(first_of, second_of, pairs):
        e = q[j] - q[i]
        rel = q - q[i]
        # normal[x] is the normal of plane ijx, zero for x on line ij
        normal = np.cross(e, rel)
        on_line = (normal == 0).all(axis=1)
        along = rel @ e
        outside = on_line & ((along < 0) | (along > e @ e))
        line.append(pair | ((~on_line | (idx < j)) @ bits))
        # one row per third point k; pos is the position along the plane's
        # direction normal[k] x e, (normal[k] x e) . rel = normal[k] . normal,
        # so pos[k] > 0 and pos = 0 on line ij
        k = np.flatnonzero(~on_line)
        side = normal[k] @ rel.T
        pos = normal[k] @ normal.T
        pos_k = pos[np.arange(len(k)), k][:, None]
        flat = side == 0
        before_k = idx < k[:, None]
        need = pair | bits[k]
        beyond = flat & ((pos < 0) | (pos > pos_k) | ((pos == pos_k) & before_k))
        f = k > j
        first = flat[f] & ((idx < j) | (~on_line & before_k[f]))
        for col, val in zip(rows, (
                need, need | ((outside | (side > 0) | beyond) @ bits),
                np.full(len(k), pair), need[f],
                need[f] | ((first | (side[f] > 0)) @ bits),
                need[f] | ((first | (side[f] < 0)) @ bits))):
            col.append(val)
    need, sel, ends, f_need, up, down = map(np.concatenate, rows)
    return (pairs, np.array(line, dtype=np.int32)), (need, sel), ends, (f_need, up, down)


def _spatial_face_blocks(pts: np.ndarray, lo: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Vertex, edge and facet counts of the hull of every realization in
    space, each counted on its own from ``_spatial_supports``.

    E is the number of supporting edge rows, V the number of distinct
    endpoints of those edges and F the number of facet triples that
    support S with either side.  A collinear realization adds two vertices
    and one edge, a singleton one vertex.
    """
    n = len(pts)
    line, (need, sel), ends, (f_need, f_up, f_down) = _spatial_supports(pts)
    rows = _CHUNK >> lo
    counts = np.bitwise_count(np.arange(1 << lo))
    for h in range(1 << (n - lo)):
        masks = np.arange(h << lo, (h + 1) << lo, dtype=np.int32)
        collinear = _count_supports(masks, *line, rows)
        edges = np.zeros(1 << lo, dtype=np.int16)
        verts = np.zeros(1 << lo, dtype=np.int32)
        for r, hit in _support_chunks(masks, need, sel, rows):
            edges += hit.sum(axis=0, dtype=np.int16)
            verts |= np.bitwise_or.reduce(np.where(hit, ends[r:r + rows, None], 0), axis=0)
        facets = np.zeros(1 << lo, dtype=np.int16)
        for r, hit in _support_chunks(masks, f_need, f_up, rows):
            hit |= (masks & f_down[r:r + rows, None]) == f_need[r:r + rows, None]
            facets += hit.sum(axis=0, dtype=np.int16)
        single = counts + bin(h).count("1") == 1
        yield np.bitwise_count(verts) + 2 * collinear + single, edges + collinear, facets


def oracle_expectation(ds: StochasticDataset, statistic: str) -> float:
    """Expected value of a hull statistic by full enumeration.

    Empty and singleton realizations contribute 0 to diameter and width.
    The complexity is the sum of ``oracle_face_expectations``.  Every
    statistic is evaluated on all masks as arrays, its terms added by
    ``_ordered_sum`` in ascending mask order.
    """
    if statistic not in ORACLE_STATISTICS:
        raise CapabilityError(f"unknown statistic {statistic!r}")
    _guard_enum(ds)
    if statistic in ("width", "complexity") and ds.dim not in HULL_DIMS:
        raise CapabilityError(
            f"{statistic} oracle supports d in {HULL_DIMS}, got d={ds.dim}"
        )
    if statistic == "complexity":
        return float(oracle_face_expectations(ds).sum())
    lo = min(len(ds), _CHUNK.bit_length() - 1)
    blocks = _diameter_blocks if statistic == "diameter" else _width_blocks
    total = 0.0
    for prob, value in zip(_mask_blocks(ds, lo), blocks(ds.points, lo)):
        total = _ordered_sum(total, prob * value)
    return total


def oracle_face_expectations(ds: StochasticDataset) -> np.ndarray:
    """Expected count of k-dimensional hull faces, for each k < d.

    The empty realization has no faces.  A hull of affine dimension r < d
    has the faces of its r-dimensional hull plus itself: a point [1, 0],
    a segment [2, 1] in the plane; in space a point [1, 0, 0], a segment
    [2, 1, 0] and a polygon with h corners [h, h, 1].
    """
    _guard_enum(ds)
    if ds.dim not in HULL_DIMS:
        raise CapabilityError(f"face oracle supports d in {HULL_DIMS}, got d={ds.dim}")
    lo = min(len(ds), _CHUNK.bit_length() - 1)
    blocks = _planar_face_blocks if ds.dim == 2 else _spatial_face_blocks
    out = np.zeros(ds.dim)
    for prob, faces in zip(_mask_blocks(ds, lo), blocks(ds.points, lo)):
        out = _ordered_sum(out, prob * np.array(faces))
    return out
