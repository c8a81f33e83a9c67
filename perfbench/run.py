"""varcurves benchmark: closed-loop solves through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload sphere-solve --seed 1 --seconds 35 --trace 0

One process, one caller, no worker threads; BLAS and OpenMP are pinned to one
thread before numpy is imported.  The run sets up (import, case generation,
config writing), runs untimed warm-up ops, then runs whole passes over the
workload's pool of cases for `--seconds` and checks every output.  Workloads
are defined in workloads.py.  Times are reported in reference seconds: each
op's wall time is divided by the machine's speed factor, measured by the
calibration kernels of calibrate.py between ops, so that the machine's own
changes of speed drop out.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every op twice,
untraced and traced (alternating which goes first), requires both to give
bit-identical outputs, and reports the per-layer metrics from the traced runs
of tracer.py.  The spans of a traced run are written to
.perfbench_out/spans-<workload>-<seed>.csv.gz.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"
WORKLOADS = ("sphere-solve", "so3-solve", "cli-sweep")
SETUP_PROBES = 4          # set-ups in fresh processes, besides the run's own
PROBE_TIMEOUT_S = 60

# per-layer metric -> span names whose self time it sums (seconds per solve)
LAYER_TIMES = {
    "optimize.assembly_s": ("optimize.precond_setup", "optimize.assembly"),
    "optimize.factorize_s": ("optimize.factorize",),
    "optimize.precond_solve_s": ("optimize.precond_solve",),
    "optimize.history_s": ("optimize.history",),
    "optimize.minimize_self_s": ("optimize.minimize",),
    "optimize.multistart_distance_s": ("optimize.multistart_distance",),
    "manifolds.canonicalize_s": ("manifolds.canonicalize",),
    "manifolds.exp_s": ("manifolds.exp",),
    "manifolds.constraint_residual_s": ("manifolds.constraint_residual",),
    "manifolds.project_tangent_s": ("manifolds.project_tangent",),
    "manifolds.dproj_quad_s": ("manifolds.dproj_quad",),
    "curves.validate_s": ("curves.validate",),
    "curves.tangent_field_s": ("curves.tangent_field",),
    "curves.save_s": ("curves.save",),
    "functionals.evaluate_s": ("functionals.evaluate",),
    "functionals.gradient_s": ("functionals.gradient",),
    "fields.eval_s": ("fields.eval",),
    "constraints.seed_s": ("constraints.seed",),
    "config.load_s": ("config.load",),
    "cli.self_s": ("cli.main",),
}
# per-layer metric -> span name whose calls it counts (calls per solve)
LAYER_CALLS = {
    "optimize.factorizations": "optimize.factorize",
    "manifolds.canonicalize_calls": "manifolds.canonicalize",
    "curves.validate_calls": "curves.validate",
    "functionals.evaluate_calls": "functionals.evaluate",
    "functionals.gradient_calls": "functionals.gradient",
}


def setup(workload: str, work_dir: Path):
    """Import varcurves and build the workload's inputs; return (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import varcurves as vc
    import varcurves.cli  # noqa: F401  (the CLI workload calls varcurves.cli.main)
    import workloads as wl
    pool = wl.load_pool(workload)
    if workload == "cli-sweep":
        w = wl.CliWorkload(vc, pool, work_dir)
    else:
        w = wl.SolveWorkload(vc, pool)
    return w, time.perf_counter() - start


def scaled_setup(seconds: float, cal) -> float:
    """Set-up seconds at reference speed, from the kernels timed right after it."""
    return seconds / statistics.median(cal.factor() for _ in range(3))


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(w, case, out_dir: Path, tracer=None):
    """Run one op; return (seconds, outputs or None, error text, span summary).

    The op starts from a collected heap, so that it does not pay for the
    garbage of earlier ops and the collector's schedule does not depend on
    the order of the ops.
    """
    summary = None
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = w.run(case, out_dir)
        else:
            first = len(tracer.spans)
            with tracer.active(), tracer.root():
                raw = w.run(case, out_dir)
    except Exception:  # an op that raises is counted as failed; the run goes on
        return time.perf_counter() - start, None, traceback.format_exc(), None
    seconds = time.perf_counter() - start
    if tracer is not None:
        summary = tracer.summarize(first)
    return seconds, w.collect(case, raw, out_dir), "", summary


def measure(w, seed: int, seconds: float, work_dir: Path, cal, tracer=None):
    """Closed loop: untimed warm-up ops, then whole passes over the pool.

    Each pass runs every case of the pool once, in an order drawn from the
    seed.  Passes start until `seconds` have gone by, and the last one is
    finished, so every case runs equally often.  The calibration kernels run
    between ops; dividing a record's wall seconds by its `factor`, the mean
    of the speed factors just before and after the op, gives its reference
    seconds.  Returns the per-op records.
    """
    import numpy as np   # imported here so that set-up pays for it
    rng = np.random.default_rng(seed)
    for k, case in enumerate(w.warmup):
        _, out, err, _ = run_op(w, case, work_dir / f"warmup{k}")
        for failure in [err] if out is None else w.check(case, out):
            print(f"perfbench: warm-up op failed: {failure}", file=sys.stderr)
    records = []
    factor_before = cal.factor()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for i in rng.permutation(len(w.cases)):
            rec = run_case(w, i, len(records), work_dir, tracer)
            factor_after = cal.factor()
            rec["factor"] = (factor_before + factor_after) / 2
            factor_before = factor_after
            records.append(rec)
    return records


def run_case(w, i: int, j: int, work_dir: Path, tracer=None) -> dict:
    """Run pool case `i` as op `j` (twice when traced) and check its outputs."""
    case = w.cases[i]
    rec = {"case": int(i), "keys": w.keys(case), "solves": [], "failures": []}
    if tracer is None:
        rec["seconds"], out, err, _ = run_op(w, case, work_dir / f"op{j}")
    else:
        plain_first = j % 2 == 0
        runs = {}
        for traced in ((False, True) if plain_first else (True, False)):
            runs[traced] = run_op(w, case, work_dir / f"op{j}-{int(traced)}",
                                  tracer if traced else None)
        rec["seconds"], out, err, _ = runs[False]
        rec["traced_seconds"], traced_out, traced_err, rec["summary"] = runs[True]
        if traced_out is None:
            rec["failures"].append(f"traced op raised:\n{traced_err}")
        elif out is not None and w.fingerprint(out) != w.fingerprint(traced_out):
            rec["failures"].append("traced and untraced outputs differ")
    if out is None:
        rec["failures"].append(f"op raised:\n{err}")
    else:
        problems = w.check(case, out)
        rec["failures"] += problems
        if not problems:
            rec["solves"] = w.solves(case, out)
    for failure in rec["failures"]:
        print(f"perfbench: op {j} failed: {failure}", file=sys.stderr)
    return rec


def residual_over_tol(w, records: list):
    """Median final residual / grad_tol over the distinct solves of the run.

    A repeated case gives the same residual bit for bit, so repeats are
    counted once and the median does not depend on which cases the run
    happened to repeat.
    """
    distinct = {(r["case"], i): res / w.grad_tol
                for r in records for i, (_, res, _) in enumerate(r["solves"])}
    return statistics.median(distinct.values()) if distinct else None


def solves_per_second(records: list) -> float:
    """Solves per reference second of one pass over the pool, each case at its
    median op time; ops that failed a check count no solves."""
    by_case: dict = {}
    for r in records:
        by_case.setdefault(r["case"], []).append(r)
    solves = sum(statistics.mean(len(r["solves"]) for r in runs) for runs in by_case.values())
    seconds = sum(statistics.median(r["seconds"] / r["factor"] for r in runs)
                  for runs in by_case.values())
    return solves / seconds


def end_to_end(w, records: list, setup_s: float) -> dict:
    ok = [r for r in records if not r["failures"]]
    times = [r["seconds"] / r["factor"] for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (solves_per_second(records), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
                     "s"),
        "residual_over_tol_p50": (residual_over_tol(w, ok), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def repeat_fracs(records: list):
    """Share of solves whose preconditioner key repeats an earlier solve's key,
    within the same op and anywhere earlier in the run."""
    seen_run = set()
    within = across = total = 0
    for r in records:
        seen_op = set()
        for key in r["keys"]:
            within += key in seen_op
            across += key in seen_run
            seen_op.add(key)
            seen_run.add(key)
            total += 1
    return within / total, across / total


def per_layer(w, tracer, records: list) -> dict:
    from tracer import ROOT_SPAN
    totals: dict = {}
    for r in records:
        for name, agg in (r.get("summary") or {}).items():
            t = totals.setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():   # self times in reference seconds, as end to end
                t[k] += v / r["factor"] if k == "self_ns" else v
    solves = [s for r in records for s in r["solves"]]
    n_solves = max(len(solves), 1)

    def span(name, field):
        return totals.get(name, {}).get(field, 0)

    def available(*names):
        return all(n in tracer.present for n in names)

    out = {}
    for metric, names in LAYER_TIMES.items():
        value = sum(span(n, "self_ns") for n in names) / 1e9 / n_solves
        out[metric] = (value if available(*names) else None, "s/solve")
    for metric, name in LAYER_CALLS.items():
        out[metric] = (span(name, "calls") / n_solves if available(name) else None,
                       "1/solve")
    canon_s = span("manifolds.canonicalize", "self_ns") / 1e9
    out["manifolds.canonicalize_rows_per_s"] = (
        span("manifolds.canonicalize", "rows") / canon_s if canon_s > 0 else 0.0, "rows/s")
    iterations = sum(it for _, _, it in solves)
    trials = span("manifolds.exp", "calls_in_minimize")
    have_trials = available("manifolds.exp", "optimize.minimize")
    out["optimize.iterations"] = (iterations / n_solves, "1/solve")
    out["optimize.trials"] = (trials / n_solves if have_trials else None, "1/solve")
    out["optimize.accept_ratio"] = (
        (iterations / trials if trials else 0.0) if have_trials else None, "ratio")
    out["optimize.residual_over_tol_p50"] = (residual_over_tol(w, records), "ratio")
    out["optimize.certified_frac"] = (
        sum(v == "converged" for v, _, _ in solves) / n_solves, "ratio")
    within, across = repeat_fracs(records)
    out["optimize.factor_key_repeat_frac"] = (within, "ratio")
    out["optimize.factor_key_run_repeat_frac"] = (across, "ratio")
    plain = sum(r["seconds"] for r in records)
    traced = sum(r["traced_seconds"] for r in records)
    out["trace.overhead_frac"] = ((traced - plain) / plain, "ratio")
    traced = sum(r["traced_seconds"] / r["factor"] for r in records)
    layers = {name: t["self_ns"] / 1e9 for name, t in totals.items() if name != ROOT_SPAN}
    out["trace.attributed_frac"] = (sum(layers.values()) / traced, "ratio")
    top = sorted(layers.items(), key=lambda kv: -kv[1])[:6]
    print("largest self times, share of traced op time: "
          + ", ".join(f"{name} {sec / traced:.3f}" for name, sec in top))
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no dict form
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {v: os.environ[v] for v in THREAD_VARS},
    }


def report(metrics: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print the seconds and exit")
    args = parser.parse_args()
    if not (SRC / "varcurves" / "__init__.py").is_file():
        print(f"perfbench: no varcurves sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        w, own_setup = setup(args.workload, work_dir)
        from calibrate import Calibration   # numpy is imported by now
        cal = Calibration()
        own_setup = scaled_setup(own_setup, cal)
        if args.setup_probe:
            print(own_setup)
            return 0
        setups = [own_setup]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        else:
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        records = measure(w, args.seed, args.seconds, work_dir, cal, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("environment", json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(records)} timed ops "
          f"({len(records) // len(w.cases)} passes over {len(w.cases)} cases), "
          f"{sum(len(r['solves']) for r in records)} solves, "
          f"set-up samples {[round(s, 4) for s in setups]} (reference s)")
    wall = [r["seconds"] for r in records]
    factor = [r["factor"] for r in records]
    print(f"wall clock: op p50 {statistics.median(wall):.4g} s; machine speed factor "
          f"p50 {statistics.median(factor):.4g} [{min(factor):.4g}, {max(factor):.4g}]")
    solves = [s for r in records for s in r["solves"]]
    failed = sum(bool(r["failures"]) for r in records)
    print(f"certified_frac {sum(v == 'converged' for v, _, _ in solves) / max(len(solves), 1):.4g}"
          f" failed_frac {failed / len(records):.4g}")
    if tracer is None:
        metrics = end_to_end(w, records, statistics.median(setups))
    else:
        metrics = per_layer(w, tracer, records)
        TRACE_ROOT.mkdir(exist_ok=True)
        path = TRACE_ROOT / f"spans-{args.workload}-{args.seed}.csv.gz"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    report(metrics, len(records), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
