"""Stochastic datasets: points with independent existence probabilities.

A dataset is a list of distinct points in R^d, each present in a random
realization independently with its own probability in (0, 1].  This module
owns the JSON interchange format, realization sampling, and the exponential
enumeration oracle that every estimator is tested against.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

import numpy as np

from .errors import CapabilityError, DatasetError
from .geometry import HULL_DIMS, as_points, convex_hull, distance_matrix, pointset_width

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


def _mask_probs(ds: StochasticDataset) -> np.ndarray:
    """P[mask] = probability of the realization encoded by mask (bit i = point i)."""
    p = np.array([1.0])
    for i in range(len(ds)):
        p = np.concatenate([p * (1.0 - ds.probs[i]), p * ds.probs[i]])
    return p


def enumerate_realizations(ds: StochasticDataset) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield every realization as (index tuple, probability), one at a time.

    Realization ``mask`` holds point i iff bit i of mask is set; 2^n of them,
    the empty one first.
    """
    _guard_enum(ds)
    n = len(ds)
    pm = _mask_probs(ds)
    # Tabulate the members of the low half of the bits once; each
    # realization is then one exact-size tuple concatenation.
    lo = n // 2
    low = [tuple(i for i in range(lo) if m >> i & 1) for m in range(1 << lo)]
    for h in range(1 << (n - lo)):
        high = tuple(lo + i for i in range(n - lo) if h >> i & 1)
        for members, prob in zip(low, pm[h << lo:(h + 1) << lo].tolist()):
            yield members + high, prob


ORACLE_STATISTICS = ("diameter", "width", "complexity")


def oracle_expectation(ds: StochasticDataset, statistic: str) -> float:
    """Expected value of a hull statistic by full enumeration.

    Empty and singleton realizations contribute 0 to diameter and width; the
    complexity of an empty realization is 0 and degenerate hulls are counted
    by the lower-dimensional face convention of ``convex_hull``.
    """
    if statistic not in ORACLE_STATISTICS:
        raise CapabilityError(f"unknown statistic {statistic!r}")
    _guard_enum(ds)
    if statistic in ("width", "complexity") and ds.dim not in HULL_DIMS:
        raise CapabilityError(
            f"{statistic} oracle supports d in {HULL_DIMS}, got d={ds.dim}"
        )
    pts = ds.points
    total = 0.0
    if statistic == "diameter":
        dmat = distance_matrix(pts)
        for idx, pr in enumerate_realizations(ds):
            if len(idx) >= 2:
                total += pr * dmat[np.ix_(idx, idx)].max()
    elif statistic == "width":
        for idx, pr in enumerate_realizations(ds):
            if len(idx) >= ds.dim + 1:
                total += pr * pointset_width(pts[list(idx)])
    else:
        for idx, pr in enumerate_realizations(ds):
            if idx:
                total += pr * sum(convex_hull(pts[list(idx)]).face_counts)
    return float(total)


def oracle_face_expectations(ds: StochasticDataset) -> np.ndarray:
    """Expected count of k-dimensional hull faces, for each k < d."""
    _guard_enum(ds)
    if ds.dim not in HULL_DIMS:
        raise CapabilityError(f"face oracle supports d in {HULL_DIMS}, got d={ds.dim}")
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
