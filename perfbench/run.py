"""Benchmark of ``schull compute``: per-(stat, method) call times on named workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grouped-mid-n --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Every job is a ``schull.cli.main(["compute", ...])`` call made in-process
with stdout captured, one call at a time (closed loop, one client).  A pass
runs the workload's job list once; passes repeat while the next one is
expected to end within ``--seconds``.  BLAS/OpenMP pools are capped at one
thread.  Each report is checked (``check_report``, ``check_workload``); a
call that raises, exits non-zero or fails a check counts as failed.

Host speed.  On a shared host the same call can take 25% more or less time
from one minute to the next, and the slow drift is common to all code
running on the core.  A fixed probe (``host_probe``, benchmark code only)
therefore runs before the first job and after every job, and each job's
wall time is scaled by ``PROBE_REF_S`` over the mean of the two probes
around it.  Every time metric is in these scaled seconds: the seconds the
call would take while the probe runs in ``PROBE_REF_S``.  Raw wall times
are kept in the detail line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` traced and untraced passes alternate and it carries the
per-layer metrics of ``tracing.py`` plus the tracing overhead.  The line
before it (``{"detail": ...}``) holds the per-pair times of the workload's
reported pairs, the failure fraction, raw pass times, the job values and
the host description.
"""

import os
import sys
import time

T_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 7
# Relative tolerance for exact-method agreement and for stored references.
REL_EXACT = 1e-9
# Typical host_probe time on the reference host (shared 2-vCPU Intel Xeon
# VM, Python 3.11, numpy 2.4, one BLAS thread).  It only sets the unit of
# the scaled times; comparisons between commits do not depend on it.
PROBE_REF_S = 0.06


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "schull", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import schull.cli

    if not os.path.abspath(schull.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported schull from {schull.cli.__file__}, not {SRC}")
    return schull.cli


_PROBE_PTS = np.random.default_rng(20170424).uniform(-1.0, 1.0, size=(64, 3))
_PROBE_BITS = np.random.default_rng(20170425).random((20000, 8)) < 0.5


def host_probe() -> float:
    """Seconds for a fixed mix like the program's: small QR and distance
    calls in a Python loop, a keyed sort and a row-wise ``np.unique``."""
    a = _PROBE_PTS
    t0 = time.perf_counter()
    for i in range(400):
        base = a[i % 60]
        np.linalg.qr((a[i % 60 + 1:i % 60 + 4] - base).T)
        np.linalg.norm(a - base, axis=1).max()
        sorted(range(40), key=lambda k: (k * 7919) % 40)
    np.unique(_PROBE_BITS, axis=0)
    return time.perf_counter() - t0


def _scale(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S / (0.5 * (before + after))


# --------------------------------------------------------------------------
# Set-up


def _call_cli(cli, argv):
    """Run one CLI call in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _compute_argv(job, path, seed):
    argv = ["compute", "--input", path, "--stat", job.stat, "--method", job.method]
    argv += list(job.extra)
    if job.method == "fpras":
        argv += ["--seed", str(seed)]
    return argv


def write_inputs(cli, wl, seed, workdir):
    """Write the workload's inputs; returns the hardness closed forms
    printed by ``gen hardness``."""
    closed = {}
    for spec in wl.datasets:
        path = W.dataset_path(workdir, spec.key)
        if spec.edges:
            gpath = os.path.join(workdir, f"{spec.key}.graph")
            with open(gpath, "w", encoding="utf-8") as fh:
                fh.write(W.random_graph_text(seed, spec))
            rc, out, err = _call_cli(cli, ["gen", "hardness", "--graph", gpath,
                                           "--out", path])
            if rc != 0:
                raise RuntimeError(f"gen hardness failed ({rc}): {err.strip()}")
            closed[spec.key] = json.loads(out)["expected_diameter"]
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(W.random_dataset_json(seed, spec))
    return closed


def warm_up(cli, wl, seed, workdir):
    """One call per (stat, method, options) of the workload on a tiny dataset."""
    warm = {}
    for job in wl.jobs:
        dim = next(s.dim for s in wl.datasets if s.key == job.dataset)
        warm.setdefault((job.stat, job.method, job.extra), 2 if dim == 2 else 3)
    for (stat, method, extra), dim in warm.items():
        spec = W.WARMUP_SPECS[dim]
        path = W.dataset_path(workdir, spec.key)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(W.random_dataset_json(seed, spec))
        job = W.Job(spec.key, stat, method, extra)
        rc, _, err = _call_cli(cli, _compute_argv(job, path, seed))
        if rc != 0:
            raise RuntimeError(f"warm-up {job.job_id} failed ({rc}): {err.strip()}")


def setup_in_new_process(size, name, seed, workdir):
    """Everything a new process does before its first timed call, in a fresh
    interpreter: import the program, write the inputs, run ``gen hardness``
    and warm every pair up once.  Returns the hardness closed forms."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         size, name, str(seed), workdir],
        capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed ({res.returncode}): "
                           f"{res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.splitlines()[-1])


# --------------------------------------------------------------------------
# Checks


def check_report(job, spec, text):
    """Problems with one report on its own: schema, finiteness, bracket."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"unparsable report: {exc}"]
    errs = []
    value, bounds = rep.get("value"), rep.get("bounds")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        errs.append(f"value {value!r} not finite")
    elif bounds is not None:
        lo, hi = bounds
        if not (lo <= value <= hi):
            errs.append(f"value {value!r} outside bounds {bounds!r}")
    if (rep.get("n"), rep.get("dim"), rep.get("method"), rep.get("statistic")) != (
            spec.n, spec.dim, job.method, job.stat):
        errs.append("n/dim/method/statistic do not match the job")
    return errs


def _within(lo, hi, truth):
    from schull.cli import VERIFY_REL_SLACK

    slack = VERIFY_REL_SLACK * max(abs(lo), abs(hi), 1.0)
    return lo - slack <= truth <= hi + slack


def _value(text):
    try:
        return json.loads(text)["value"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_workload(wl, reports, fpras_truth, closed, reference):
    """Checks across the jobs of one pass.  Returns {job_id: [problem, ...]}.

    FPRAS values must lie within eps of the width oracle; where an oracle
    job exists, every bracket on its dataset must contain the oracle (with
    the CLI's ``VERIFY_REL_SLACK``) and ``complexity exact`` must equal it; a
    hardness oracle must equal the closed form printed by ``gen hardness``;
    the witness and two-approx brackets of one dataset must meet; with a
    ``reference`` every value must match its stored one.
    """
    errs = {}
    by_key = {}
    for job in wl.jobs:
        try:
            by_key[(job.dataset, job.pair)] = (job, json.loads(reports[job.job_id]))
        except (KeyError, json.JSONDecodeError):
            continue

    def fail(job, msg):
        errs.setdefault(job.job_id, []).append(msg)

    for (key, pair), (job, rep) in by_key.items():
        if job.method == "fpras":
            eps = float(job.extra[job.extra.index("--eps") + 1])
            oracle = by_key.get((key, "width.oracle"))
            truth = oracle[1]["value"] if oracle is not None else fpras_truth.get(key)
            if truth is not None and abs(rep["value"] - truth) > eps * truth:
                fail(job, f"fpras {rep['value']!r} not within eps={eps} of {truth!r}")
        if job.method != "oracle":
            oracle = by_key.get((key, f"{job.stat}.oracle"))
            if oracle is not None and rep["bounds"] is not None:
                truth = oracle[1]["value"]
                if not _within(*rep["bounds"], truth):
                    fail(job, f"bracket {rep['bounds']!r} misses oracle {truth!r}")
                if job.method == "exact" and not _rel_close(rep["value"], truth, REL_EXACT):
                    fail(job, f"exact {rep['value']!r} != oracle {truth!r}")
        if pair == "diameter.oracle" and key in closed:
            if not _rel_close(rep["value"], closed[key], REL_EXACT):
                fail(job, f"hardness oracle {rep['value']!r} != closed form {closed[key]!r}")
        if reference is not None:
            ref = reference.get(job.job_id)
            if ref is None or not _rel_close(rep["value"], ref, REL_EXACT):
                fail(job, f"value {rep['value']!r} != stored reference {ref!r}")
    for key in {job.dataset for job in wl.jobs}:
        wit = by_key.get((key, "diameter.witness"))
        two = by_key.get((key, "diameter.two-approx"))
        if wit is None or two is None:
            continue
        (lo_a, hi_a), (lo_b, hi_b) = wit[1]["bounds"], two[1]["bounds"]
        if max(lo_a, lo_b) > min(hi_a, hi_b) * (1.0 + REL_EXACT):
            fail(wit[0], f"witness bracket {wit[1]['bounds']!r} and two-approx "
                         f"bracket {two[1]['bounds']!r} are disjoint")
    return errs


# --------------------------------------------------------------------------
# Timed passes


@dataclass
class Call:
    wall: float
    scaled: float
    text: str
    problems: list


@dataclass
class Pass:
    calls: dict
    tracer: tracing.Tracer | None = None
    wall: float = field(init=False)
    scaled: float = field(init=False)

    def __post_init__(self):
        self.wall = sum(c.wall for c in self.calls.values())
        self.scaled = sum(c.scaled for c in self.calls.values())


def run_pass(cli_mod, wl, paths, specs, seed, tracer=None) -> Pass:
    """One pass over the job list, with a host probe around every job."""
    calls = {}
    before = host_probe()
    for job in wl.jobs:
        argv = _compute_argv(job, paths[job.dataset], seed)
        problems = []
        text = ""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc, text, err = _call_cli(cli_mod, argv)
            else:
                tracer.job = job.job_id
                with tracer.span(tracing.JOB_SPAN):
                    rc, text, err = _call_cli(cli_mod, argv)
        except Exception as exc:  # a crash in one job must not stop the run
            rc, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = host_probe()
        if rc != 0:
            problems.append(f"exit {rc}: {err.strip()[:200]}")
        else:
            problems += check_report(job, specs[job.dataset], text)
        calls[job.job_id] = Call(dt, _scale(dt, before, after), text, problems)
        before = after
    return Pass(calls, tracer)


def _traced_pass(cli_mod, wl, paths, specs, seed) -> Pass:
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        return run_pass(cli_mod, wl, paths, specs, seed, tr)
    finally:
        tracing.uninstall(undo)


def environment():
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    return env


def run_workload(cli_mod, size, name, seed, seconds, trace, setup_reps=SETUP_REPS):
    """Set up and run one workload; returns (result line, detail)."""
    from schull.dataset import load_dataset, oracle_expectation

    wl = W.WORKLOADS[size][name]
    specs = {s.key: s for s in wl.datasets}
    os.makedirs(WORK, exist_ok=True)
    workdirs, setup_times = [], []
    try:
        # setup_s is the median over fresh processes of all the work before
        # the first timed call.  This process then warms its own calls up,
        # untimed, on the inputs of the last set-up.
        for _ in range(setup_reps):
            workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
            workdirs.append(workdir)
            before = host_probe()
            t0 = time.perf_counter()
            closed = setup_in_new_process(size, name, seed, workdir)
            elapsed = time.perf_counter() - t0
            setup_times.append(_scale(elapsed, before, host_probe()))
        warm_up(cli_mod, wl, seed, workdir)
        paths = {k: W.dataset_path(workdir, k) for k in specs}
        # FPRAS jobs without a width oracle job are checked against an
        # oracle computed here, before timing.
        pairs_run = {(job.dataset, job.pair) for job in wl.jobs}
        fpras_truth = {
            job.dataset: oracle_expectation(load_dataset(paths[job.dataset]), "width")
            for job in wl.jobs
            if job.method == "fpras" and (job.dataset, "width.oracle") not in pairs_run
        }
        reference = None
        if size == "full" and seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
                reference = json.load(fh).get(name)

        untraced, traced = [], []
        t_begin = time.perf_counter()
        while True:
            required = not untraced or (trace and len(traced) < 2)
            typical = statistics.median(p.wall for p in untraced + traced) if (
                untraced or traced) else 0.0
            if not required and time.perf_counter() - t_begin + typical > seconds:
                break
            if trace and len(traced) <= len(untraced):
                traced.append(_traced_pass(cli_mod, wl, paths, specs, seed))
            else:
                untraced.append(run_pass(cli_mod, wl, paths, specs, seed))
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)
    checks = check_workload(wl, {j: c.text for j, c in untraced[0].calls.items()},
                            fpras_truth, closed, reference)
    return summarize(wl, untraced, traced, checks, setup_times,
                     f"{size}-{name}-seed{seed}")


def summarize(wl, untraced, traced, checks, setup_times, tag):
    """Result line and detail from the passes of one run."""
    reports = {jid: c.text for jid, c in untraced[0].calls.items()}
    failures = []
    attempted = failed = 0
    for p in untraced + traced:
        for jid, call in p.calls.items():
            problems = call.problems + checks.get(jid, [])
            if call.text != reports[jid]:
                problems.append("report differs from the first pass")
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"{jid}: {'; '.join(problems)}")

    pass_s = statistics.median(p.scaled for p in untraced)
    pairs = {}
    for pair in wl.reported:
        ids = [j.job_id for j in wl.jobs if j.pair == pair]
        per_pass = [sum(p.calls[j].scaled for j in ids) / len(ids) for p in untraced]
        pairs[f"{pair}_s"] = {"value": statistics.median(per_pass), "unit": "s",
                              "samples": len(ids) * len(untraced)}
    correct = failed == 0
    if traced:
        per_pass = [tracing.layer_metrics(
            p.tracer, p.scaled, {j: c.scaled / c.wall for j, c in p.calls.items()})
            for p in traced]
        for key in tracing.EXACT_COUNTS:
            seen = {m[key] for m in per_pass}
            if len(seen) != 1:
                correct = False
                failures.append(f"count {key} differs between traced passes: {sorted(seen)}")
        metrics = {}
        for key, unit in tracing.PER_LAYER_UNITS.items():
            if key == "trace.overhead_s":
                value = statistics.median(p.scaled for p in traced) - pass_s
            else:
                value = statistics.median(m[key] for m in per_pass)
            metrics[key] = {"value": value, "unit": unit}
        _write_spans(tag, traced[-1].tracer)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": wl.name,
        "correct": correct,
        "pairs": pairs,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures[:20],
        "setup_scaled_s": setup_times,
        "pass_wall_s": [p.wall for p in untraced],
        "pass_scaled_s": [p.scaled for p in untraced],
        "traced_pass_wall_s": [p.wall for p in traced],
        "values": {jid: _value(t) for jid, t in reports.items()},
        "environment": environment(),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def _write_spans(tag, tracer):
    """Spans of the last traced pass as [job, name, start, end, parent] rows."""
    path = os.path.join(WORK, f"spans-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))


# --------------------------------------------------------------------------
# Smoke mode


def smoke(cli_mod) -> int:
    """Every workload at tiny sizes, both modes; checks names, units, failures
    and the exact repeat of counts across two traced runs.  Returns an exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    status = 0
    for name, wl in W.WORKLOADS["smoke"].items():
        problems = []
        res0, det0 = run_workload(cli_mod, "smoke", name, 1, 0, 0, setup_reps=1)
        res1, det1 = run_workload(cli_mod, "smoke", name, 1, 0, 1, setup_reps=1)
        res2, _ = run_workload(cli_mod, "smoke", name, 1, 0, 1, setup_reps=1)
        for res, det, spec in ((res0, det0, bench["end_to_end"]),
                               (res1, det1, bench["per_layer"])):
            for m in spec:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"metric {m['name']} missing or bad unit")
            if set(res["metrics"]) != {m["name"] for m in spec}:
                problems.append("unexpected metrics emitted")
            if res["failed"] or not res["correct"] or det["failed_frac"]["value"] != 0:
                problems.append(f"failures {det['failures']}")
        for pair in wl.reported:
            if det0["pairs"].get(f"{pair}_s", {}).get("unit") != "s":
                problems.append(f"pair metric {pair}_s missing")
        for key in tracing.EXACT_COUNTS:
            if res1["metrics"][key]["value"] != res2["metrics"][key]["value"]:
                problems.append(f"count {key} differs between traced runs")
        print(f"smoke {name}: " + ("ok" if not problems else "; ".join(problems)))
        status = status or bool(problems)
    return int(status)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes and check the output")
    ap.add_argument("--setup-only", nargs=4, metavar=("SIZE", "WORKLOAD", "SEED", "DIR"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cli_mod = _import_program()
    if args.setup_only:
        size, name, seed, workdir = args.setup_only
        wl = W.WORKLOADS[size][name]
        closed = write_inputs(cli_mod, wl, int(seed), workdir)
        warm_up(cli_mod, wl, int(seed), workdir)
        print(json.dumps(closed))
        return 0
    if args.smoke:
        return smoke(cli_mod)
    if args.workload is None:
        ap.error("--workload is required")
    result, detail = run_workload(cli_mod, "full", args.workload, args.seed,
                                  args.seconds, args.trace)
    detail["seed"] = args.seed
    detail["process_s"] = time.perf_counter() - T_START
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
