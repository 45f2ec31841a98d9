"""Workload definitions: the datasets each workload generates and its job list.

A job is one ``schull compute`` call.  Every dataset is generated from the
benchmark seed (points uniform in [-1, 1]^d, probabilities uniform in
[0.2, 0.9]) and written in the parser's ``{"coords", "prob"}`` format; the
program sees only those files.  The hardness dataset is produced by
``schull gen hardness`` from a seeded random graph.

Each workload exists at two sizes: ``full`` is what the benchmark measures,
``smoke`` is a tiny version of the same shape that runs in seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

PAIRS = (
    ("diameter", "witness"),
    ("diameter", "two-approx"),
    ("diameter", "oracle"),
    ("width", "witness"),
    ("width", "fpras"),
    ("width", "oracle"),
    ("complexity", "exact"),
    ("complexity", "oracle"),
)

PROB_RANGE = (0.2, 0.9)
# Smallest angle (radians) between the directions from any point to two
# others in a general-position dataset: ten times the tolerance below which
# the complexity sweep and membership code refuse an input as collinear.
GENERAL_POSITION_GAP = 1e-8


@dataclass(frozen=True)
class DatasetSpec:
    """A random dataset (``n`` points in R^``dim``) or, with ``edges`` set, a
    hardness instance on ``n`` graph vertices with that many random edges.

    ``general_position`` datasets (planar, used by ``complexity exact``) are
    redrawn from the same stream until no three points are collinear within
    ``GENERAL_POSITION_GAP``, the complexity code's documented precondition.
    """

    key: str
    n: int
    dim: int
    edges: int = 0
    general_position: bool = False


@dataclass(frozen=True)
class Job:
    dataset: str
    stat: str
    method: str
    extra: tuple[str, ...] = ()

    @property
    def pair(self) -> str:
        return f"{self.stat}.{self.method}"

    @property
    def job_id(self) -> str:
        tail = f"[{','.join(self.extra[1::2])}]" if self.extra else ""
        return f"{self.pair}@{self.dataset}{tail}"


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[DatasetSpec, ...]
    jobs: tuple[Job, ...]
    reported: tuple[str, ...]


FPRAS_THEORY = ("--eps", "0.25")
FPRAS_TUNED = ("--eps", "0.1", "--gamma", "4")


def _fpras_theory(sizes) -> Workload:
    datasets = tuple(DatasetSpec(f"d{d}n{n}{tag}", n, d) for tag, n, d in sizes)
    jobs = tuple(Job(ds.key, "width", "fpras", FPRAS_THEORY) for ds in datasets)
    return Workload("fpras-theory", datasets, jobs, ("width.fpras",))


def _grouped_mid_n(nd2, nd3, n_two, nw2, nw3, nc) -> Workload:
    d2, d3 = f"d2n{nd2}", f"d3n{nd3}"
    big, w2, w3, c = f"d2n{n_two}", f"d2n{nw2}w", f"d3n{nw3}w", f"d2n{nc}c"
    datasets = (
        DatasetSpec(d2, nd2, 2), DatasetSpec(d3, nd3, 3), DatasetSpec(big, n_two, 2),
        DatasetSpec(w2, nw2, 2), DatasetSpec(w3, nw3, 3),
        DatasetSpec(c, nc, 2, general_position=True),
    )
    jobs = (
        Job(d2, "diameter", "witness"), Job(d3, "diameter", "witness"),
        Job(d2, "diameter", "two-approx"), Job(d3, "diameter", "two-approx"),
        Job(big, "diameter", "two-approx"),
        Job(w2, "width", "witness"), Job(w3, "width", "witness"),
        Job(c, "complexity", "exact"),
    )
    reported = ("diameter.witness", "diameter.two-approx", "width.witness",
                "complexity.exact")
    return Workload("grouped-mid-n", datasets, jobs, reported)


def _oracle_verify(n2, n3, vertices, edges) -> Workload:
    p, q, h = f"d2n{n2}", f"d3n{n3}", f"hard{vertices}"
    datasets = (DatasetSpec(p, n2, 2, general_position=True), DatasetSpec(q, n3, 3),
                DatasetSpec(h, vertices, vertices - 1, edges))
    jobs = tuple(
        Job(p, stat, method, FPRAS_TUNED if method == "fpras" else ())
        for stat, method in PAIRS
    ) + (
        Job(q, "diameter", "witness"), Job(q, "diameter", "oracle"),
        Job(q, "width", "witness"), Job(q, "width", "oracle"),
        Job(q, "complexity", "oracle"),
        Job(h, "diameter", "witness"), Job(h, "diameter", "two-approx"),
        Job(h, "diameter", "oracle"),
    )
    reported = ("diameter.oracle", "width.oracle", "complexity.oracle", "width.fpras")
    return Workload("oracle-verify", datasets, jobs, reported)


WORKLOADS = {
    "full": {
        "fpras-theory": _fpras_theory(
            (("a", 12, 2), ("b", 12, 2), ("c", 12, 2), ("", 7, 3))),
        "grouped-mid-n": _grouped_mid_n(50, 50, 2000, 30, 16, 300),
        "oracle-verify": _oracle_verify(14, 10, 16, 32),
    },
    "smoke": {
        "fpras-theory": _fpras_theory((("a", 6, 2), ("b", 6, 2), ("", 5, 3))),
        "grouped-mid-n": _grouped_mid_n(8, 7, 40, 7, 6, 20),
        "oracle-verify": _oracle_verify(7, 6, 6, 6),
    },
}

# Tiny datasets for the one warm-up call per pair made during set-up.
WARMUP_SPECS = {2: DatasetSpec("warm2", 5, 2), 3: DatasetSpec("warm3", 5, 3)}


def _rng(seed: int, key: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed)] + [ord(ch) for ch in key]))


def in_general_position(pts: np.ndarray) -> bool:
    """No three planar points within GENERAL_POSITION_GAP of collinear."""
    n = len(pts)
    diff = pts[None, :, :] - pts[:, None, :]
    ang = np.mod(np.arctan2(diff[..., 1], diff[..., 0]), np.pi)
    ang = np.sort(ang[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    wrap = ang[:, 0] + np.pi - ang[:, -1]
    gap = min(np.diff(ang, axis=1).min(initial=np.inf), wrap.min())
    return gap > GENERAL_POSITION_GAP


def random_dataset_json(seed: int, spec: DatasetSpec) -> str:
    rng = _rng(seed, spec.key)
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(spec.n, spec.dim))
        probs = rng.uniform(*PROB_RANGE, size=spec.n)
        if not spec.general_position or in_general_position(pts):
            break
    doc = {
        "dim": spec.dim,
        "points": [{"coords": [float(c) for c in row], "prob": float(pr)}
                   for row, pr in zip(pts, probs)],
    }
    return json.dumps(doc) + "\n"


def random_graph_text(seed: int, spec: DatasetSpec) -> str:
    """'n m' header plus m distinct 1-based edges drawn uniformly."""
    rng = _rng(seed, spec.key)
    n = spec.n
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    pick = sorted(rng.choice(len(all_edges), size=spec.edges, replace=False))
    lines = [f"{n} {spec.edges}"] + [f"{all_edges[i][0]} {all_edges[i][1]}" for i in pick]
    return "\n".join(lines) + "\n"


def dataset_path(workdir: str, key: str) -> str:
    return os.path.join(workdir, f"{key}.json")
