"""Command-line interface.

Three subcommands: ``compute`` runs an estimator on a dataset file and
prints a JSON report, ``gen`` writes dataset files (random, or graph
encodings whose expected diameter counts independent sets), ``verify``
cross-checks an estimator against the enumeration oracle on small inputs.

Reports are byte-identical for identical inputs and seeds; wall-clock
timing goes to stderr (opt-in) so it never perturbs the report.  Exit
codes: 0 success, 1 failed verification, 2 usage error, 3 invalid data,
geometry or an unreadable file, 4 unsupported capability.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .complexity import expected_complexity
from .dataset import (
    MAX_ENUM_POINTS,
    StochasticDataset,
    dataset_to_json,
    load_dataset,
    oracle_expectation,
    parse_dataset,
    rng_stream,
    save_dataset,
)
from .diameter import (
    DIAMETER_WITNESS_FACTOR,
    MAX_HARDNESS_CHECK_N,
    TWO_APPROX_FACTOR,
    count_independent_sets,
    expected_diameter_two_approx,
    expected_diameter_witness,
    hardness_identity_rhs,
    hardness_instance,
    parse_graph,
)
from .errors import CapabilityError, DatasetError, SchullError
from .width import (
    FprasConfig,
    expected_width_fpras,
    expected_width_witness,
    fpras_gamma,
    width_simplex_factor,
)

_METHODS = {
    "diameter": ("witness", "two-approx", "oracle"),
    "width": ("witness", "fpras", "oracle"),
    "complexity": ("exact", "oracle"),
}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_CAPABILITY = 4

# Relative slack when judging oracle-vs-bracket containment.
VERIFY_REL_SLACK = 1e-9


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="schull",
        description="Expected diameter, width and complexity of stochastic convex hulls.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="run an estimator on a dataset file")
    _add_compute_args(comp)
    comp.add_argument("--format", choices=("json", "text"), default="json")
    comp.add_argument(
        "--timing",
        action="store_true",
        help="print elapsed milliseconds to stderr (kept out of the report)",
    )

    gen = sub.add_parser("gen", help="generate dataset files")
    gensub = gen.add_subparsers(dest="generator", required=True)
    rnd = gensub.add_parser("random", help="uniform points with random probabilities")
    rnd.add_argument("--n", type=int, required=True, help="number of points")
    rnd.add_argument("--dim", type=int, required=True, help="ambient dimension")
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--prob-min", type=float, default=0.2)
    rnd.add_argument("--prob-max", type=float, default=0.9)
    rnd.add_argument("--out", help="output path (default: stdout)")
    hard = gensub.add_parser(
        "hardness", help="two-distance encoding of a graph (probabilities 1/2)"
    )
    hard.add_argument("--graph", required=True, help="file with 'n m' plus edge lines")
    hard.add_argument("--out", required=True, help="dataset output path")

    ver = sub.add_parser(
        "verify", help="check an estimator's bracket against the enumeration oracle"
    )
    _add_compute_args(ver)
    return top


def _add_compute_args(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="dataset JSON file")
    p.add_argument("--stat", required=True, choices=sorted(_METHODS))
    p.add_argument("--method", default=None, help="estimator (per-statistic default)")
    p.add_argument("--eps", type=float, default=0.25, help="sampling accuracy target")
    p.add_argument("--gamma", type=float, default=None, help="override sample coefficient")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")


def _resolve_method(stat: str, method: str | None) -> str:
    allowed = _METHODS[stat]
    if method is None:
        return allowed[0]
    if method not in allowed:
        raise _UsageError(
            f"method {method!r} not valid for {stat}; choose from {', '.join(allowed)}"
        )
    return method


class _UsageError(Exception):
    pass


def _run_estimator(ds: StochasticDataset, stat: str, method: str, args):
    """Returns (value, bounds, seed_used, extra report keys)."""
    if method == "oracle":
        v = oracle_expectation(ds, stat)
        return v, (v, v), None, {}
    if stat == "diameter":
        if method == "witness":
            v = expected_diameter_witness(ds)
            return v, (v, v * DIAMETER_WITNESS_FACTOR), None, {}
        v = expected_diameter_two_approx(ds)
        return v, (v, v * TWO_APPROX_FACTOR), None, {}
    if stat == "width":
        if method == "witness":
            v = expected_width_witness(ds)
            return v, (v, v / width_simplex_factor(ds.dim)), None, {}
        cfg = FprasConfig(epsilon=args.eps, seed=args.seed, gamma_override=args.gamma)
        stats: dict = {}
        v = expected_width_fpras(ds, cfg, stats=stats)
        return v, None, args.seed, stats
    v = expected_complexity(ds)
    return v, (v, v), None, {}


def _report(
    args, ds: StochasticDataset, raw: bytes, stat, method, value, bounds, seed, extra
):
    rep = {
        "schema": 1,
        "statistic": stat,
        "method": method,
        "value": value,
        "bounds": list(bounds) if bounds is not None else None,
        "n": len(ds),
        "dim": ds.dim,
        "dataset_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "epsilon": args.eps if method == "fpras" else None,
        "gamma": (
            (args.gamma if args.gamma is not None else fpras_gamma(ds.dim))
            if method == "fpras"
            else None
        ),
        **extra,
    }
    if args.format == "text":
        lines = [f"{k} = {rep[k]}" for k in sorted(rep)]
        return "\n".join(lines) + "\n"
    return json.dumps(rep, sort_keys=True, separators=(", ", ": ")) + "\n"


def _cmd_compute(args) -> int:
    t0 = time.perf_counter()
    with open(args.input, "rb") as fh:
        raw = fh.read()
    ds = parse_dataset(raw)
    method = _resolve_method(args.stat, args.method)
    value, bounds, seed, extra = _run_estimator(ds, args.stat, method, args)
    out = _report(args, ds, raw, args.stat, method, value, bounds, seed, extra)
    sys.stdout.write(out)
    if args.timing:
        ms = (time.perf_counter() - t0) * 1000.0
        print(f"elapsed_ms={ms:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ds = load_dataset(args.input)
    method = _resolve_method(args.stat, args.method)
    if len(ds) > MAX_ENUM_POINTS:
        raise CapabilityError(
            f"verification enumerates realizations; needs n <= {MAX_ENUM_POINTS}"
        )
    value, bounds, _, _ = _run_estimator(ds, args.stat, method, args)
    truth = value if method == "oracle" else oracle_expectation(ds, args.stat)
    if bounds is None:
        # Sampling estimator: no deterministic bracket; report the gap only.
        rel = abs(value - truth) / truth if truth else abs(value)
        print(f"stat={args.stat} method={method} value={value!r} oracle={truth!r}")
        print(f"relative_error={rel!r} (no deterministic bracket for {method})")
        return EXIT_OK
    lo, hi = bounds
    slack = VERIFY_REL_SLACK * max(abs(lo), abs(hi), abs(truth))
    ok = (lo - slack) <= truth <= (hi + slack)
    print(f"stat={args.stat} method={method} value={value!r} oracle={truth!r}")
    print(f"bracket=[{lo!r}, {hi!r}] contains_oracle={'yes' if ok else 'NO'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_gen(args) -> int:
    if args.generator == "random":
        if args.n < 1:
            raise DatasetError("--n must be at least 1")
        if args.dim < 1:
            raise DatasetError("--dim must be at least 1")
        if not (0.0 < args.prob_min <= args.prob_max <= 1.0):
            raise DatasetError("need 0 < prob-min <= prob-max <= 1")
        rng = rng_stream(args.seed, args.n, args.dim)
        pts = rng.uniform(-1.0, 1.0, size=(args.n, args.dim))
        probs = rng.uniform(args.prob_min, args.prob_max, size=args.n)
        ds = StochasticDataset(pts, probs)
        if args.out:
            save_dataset(ds, args.out)
        else:
            sys.stdout.write(dataset_to_json(ds))
        return EXIT_OK
    with open(args.graph, "rb") as fh:
        n, edges = parse_graph(fh.read())
    inst = hardness_instance(n, edges)
    save_dataset(inst.dataset, args.out)
    meta = {
        "schema": 1,
        "nonedge_distance": inst.nonedge_distance,
        "edge_distance": inst.edge_distance,
        "n_vertices": inst.n_vertices,
        "edges": [list(e) for e in inst.edges],
        "independent_sets": None,
        "expected_diameter": None,
    }
    if inst.n_vertices <= MAX_HARDNESS_CHECK_N:
        ind = count_independent_sets(inst.n_vertices, inst.edges)
        meta["independent_sets"] = ind
        meta["expected_diameter"] = hardness_identity_rhs(inst, ind)
    sys.stdout.write(json.dumps(meta, sort_keys=True, separators=(", ", ": ")) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_gen(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (SchullError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
