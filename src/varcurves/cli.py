"""Batch command-line front door: solve, sweep, check, seed.

Exit codes: 0 converged / all checks pass, 1 configuration or usage error
(also a FactorizationError of the model preconditioner and a CutLocusError
seed of solve or seed), 2 iteration limit hit (the budget ran out or the
line search stalled at the roundoff floor), a sweep row not converged (a
seed that fails, CutLocusError included, fails its row) or a check suite
failed, 3 degenerate curve.
All outputs are deterministic functions of the config (no timestamps, fixed
float formatting), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config
from .constraints import seed, zero_hint
from .curves import save_curve
from .errors import ConfigError, DegenerateCurveError, VarcurvesError
from . import checks
from .optimize import SolveReport, evaluate_family, minimize, multistart

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ITER_LIMIT = 2
EXIT_DEGENERATE = 3

_VERDICT_CODE = {"converged": EXIT_OK, "evaluated": EXIT_OK,
                 "iter_limit": EXIT_ITER_LIMIT}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    seeds = cfg.seed_list()   # a seeding error exits before --out is created
    out = _out_dir(args)
    if cfg.multistart:
        result = multistart(cfg.spec, cfg.constraint, seeds, cfg.options)
        payload = {
            "reports": [r.to_dict() for r in result.reports],
            "labels": list(result.labels),
            "sup_distance": result.sup_distance.tolist(),
            "h2_distance": result.h2_distance.tolist(),
            "clusters": [list(c) for c in result.clusters],
            "n_clusters": result.n_clusters,
        }
        _write_json(out / "multistart.json", payload)
        for rep, label in zip(result.reports, result.labels):
            save_curve(rep.minimizer, out / f"minimizer_{label.replace(',', '_')}.curve")
        return max(_VERDICT_CODE[r.verdict] for r in result.reports)
    (x0, _), = seeds
    report = minimize(cfg.spec, cfg.constraint, x0, cfg.options)
    _write_json(out / "report.json", report.to_dict())
    save_curve(report.minimizer, out / "minimizer.curve")
    return _VERDICT_CODE[report.verdict]


# the sweep parameters, each with the converter of its --values entries
_SWEEP_PARAMS = {"tau": float, "winding": int}


def _sweep_values(args):
    vals = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not vals:
        raise ConfigError("sweep needs a non-empty --values list")
    try:
        return [_SWEEP_PARAMS[args.param](v) for v in vals]
    except ValueError as e:
        raise ConfigError(f"bad --values for {args.param}: {e}") from None


def _sweep_one(cfg: RunConfig, param: str, value, evaluate_only: bool, start,
               tau_seed) -> SolveReport:
    """The report of one row of the sweep.  A tau row starts from `start`,
    or from tau_seed() when `start` is None, either taken only once the
    row's tau is accepted; a winding row starts from its own seed."""
    spec = cfg.spec
    if param == "tau":
        spec = replace(spec, tau=float(value))
        x0 = tau_seed() if start is None else start
    else:
        hint = zero_hint(cfg.manifold)
        hint[0] = int(value)
        x0 = seed(cfg.constraint, cfg.manifold, cfg.n_grid, cfg.domain, hint)
    if evaluate_only:
        return evaluate_family(spec, cfg.constraint, [x0])
    return minimize(spec, cfg.constraint, x0, cfg.options)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = _sweep_values(args)
    if args.param == "tau" and cfg.spec.kind != "tension":
        raise ConfigError("tau sweeps need a tension functional")
    out = _out_dir(args)

    # the seed does not depend on tau: the first row and each restart of the
    # chain take the same one, and a failed one is tried again
    @functools.cache
    def tau_seed():
        return seed(cfg.constraint, cfg.manifold, cfg.n_grid, cfg.domain,
                    cfg.hints[0] if cfg.hints else None)

    # parameter continuation along tau: a row starts from the minimizer of the
    # row before it when that row certified; after a failed or uncertified row
    # (and at the first) it starts from the seed
    lines = ["value,objective,length,residual,iterations,verdict"]
    start, bad = None, False
    for value in values:
        try:
            report = _sweep_one(cfg, args.param, value, args.evaluate_only, start, tau_seed)
        except VarcurvesError as e:
            objective = length = residual = float("nan")
            iterations, verdict, start = 0, f"failed: {e}", None
        else:
            objective, length, residual = (report.final_objective, report.history[-1].length,
                                           report.final_residual)
            iterations, verdict = report.iterations, report.verdict
            start = report.minimizer if verdict == "converged" else None
        lines.append(f"{value:.17g},{objective:.17g},{length:.17g},{residual:.17g},"
                     f"{iterations},{verdict}")
        bad = bad or verdict not in ("converged", "evaluated")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_ITER_LIMIT if bad else EXIT_OK


def cmd_check(args) -> int:
    results = checks.SUITES[args.suite]()
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        ok = ok and r.passed
    print(f"{'all checks passed' if ok else 'CHECK FAILURES PRESENT'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    return EXIT_OK if ok else EXIT_ITER_LIMIT


def cmd_seed(args) -> int:
    cfg = load_config(args.config)
    seeds = cfg.seed_list()
    out = _out_dir(args)
    for curve, label in seeds:
        name = "seed.curve" if label == "seed" else f"seed_{label.replace(',', '_')}.curve"
        save_curve(curve, out / name)
    return EXIT_OK


@functools.cache   # the parser is the same for every main call; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcurves",
        description="Variationally defined curves on Riemannian manifolds: "
                    "solve, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimize the configured functional")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="one solve (or evaluation) per parameter value")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--param", required=True, choices=list(_SWEEP_PARAMS))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--evaluate-only", action="store_true",
                   help="evaluate seeds without descending")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="run a built-in verification suite")
    p.add_argument("--suite", required=True, choices=list(checks.SUITES))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("seed", help="emit the seed curve(s) without solving")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_seed)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if e.code == 0 else EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateCurveError as e:
        print(f"degenerate curve: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except VarcurvesError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
