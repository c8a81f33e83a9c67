"""Workloads of the varcurves benchmark: case pools, ops and output checks.

Every op draws its inputs from a fixed pool of cases stored in `cases.json`
(written by `make_cases.py`).  A run walks the whole pool once per pass, in an
order drawn from the run seed, so the same seed gives the same inputs and
every seed solves the same problems.  For every solve the pool stores a
reference objective and a tolerance (see `make_cases.py`).

Ops call only public entry points: `seed` + `minimize` for the solve
workloads and `varcurves.cli.main` for the CLI workload.  Nothing in the
timed region reads or checks outputs.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

N_GRID = 1000
KNOT_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
OK_VERDICTS = ("converged", "iter_limit")   # any other verdict fails the op
CASES_FILE = Path(__file__).with_name("cases.json")


def factor_key(functional: dict, n_grid: int) -> tuple:
    """Preconditioner key of a solve: (model coefficients, N, free set, domain).

    The free set and domain are the same for every case here (five
    interpolation knots at t = k/4 on the interval), so they enter as constants.
    """
    if functional["kind"] == "tension":
        coef = (1.0, float(functional["tau"]) ** 2)
    else:
        coef = (1.0, 0.0) if functional.get("k") == 2 else (0.0, 1.0)
    return coef, n_grid, KNOT_TIMES, "interval"


def load_pool(workload: str):
    with open(CASES_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _objective_failure(what: str, value: float, ref: float, tol: float):
    if not abs(value - ref) <= tol:
        return f"{what}: objective {value!r} differs from reference {ref!r} by more than {tol:.3g}"
    return None


class SolveWorkload:
    """Each op is `seed` + `minimize` on one pool case (5 knots, N = 1000).

    `cases` is the pool; `warmup` holds the first case of each functional
    family.
    """

    def __init__(self, vc, pool: list):
        self.vc = vc
        self.cases = [self._build(case) for case in pool]
        first: dict = {}
        for built, case in zip(self.cases, pool):
            first.setdefault(case["functional"]["kind"], built)
        self.warmup = list(first.values())
        self.grad_tol = vc.SolveOptions().grad_tol

    def _build(self, case: dict) -> dict:
        vc = self.vc
        m = vc.make_manifold(case["manifold"])
        constraint = vc.ConstraintSet.interpolation(list(zip(KNOT_TIMES, case["knots"])))
        free = vc.free_mask(constraint, N_GRID)
        return {
            "manifold": m,
            "constraint": constraint,
            "spec": vc.FunctionalSpec.from_config(case["functional"], m),
            "fixed": np.setdiff1d(np.arange(N_GRID + 1), free),
            "key": factor_key(case["functional"], N_GRID),
            "ref": case["ref"], "tol": case["tol"],
        }

    def run(self, case: dict, out_dir: Path):
        vc = self.vc
        x0 = vc.seed(case["constraint"], case["manifold"], N_GRID)
        return x0, vc.minimize(case["spec"], case["constraint"], x0)

    def collect(self, case: dict, raw, out_dir: Path):
        x0, report = raw
        return {"x0": x0, "report": report}

    def check(self, case: dict, out: dict) -> list:
        report, x0 = out["report"], out["x0"]
        failures = []
        if report.verdict not in OK_VERDICTS:
            failures.append(f"verdict {report.verdict}: {report.message}")
        fixed = case["fixed"]
        if report.minimizer.samples[fixed].tobytes() != x0.samples[fixed].tobytes():
            failures.append("fixed samples moved")
        bad = _objective_failure("solve", report.final_objective, case["ref"], case["tol"])
        if bad:
            failures.append(bad)
        return failures

    def solves(self, case: dict, out: dict) -> list:
        """(verdict, final residual, iterations) per solve."""
        r = out["report"]
        return [(r.verdict, r.final_residual, r.iterations)]

    def keys(self, case: dict) -> list:
        return [case["key"]]

    def fingerprint(self, out: dict):
        r = out["report"]
        return json.dumps(r.to_dict(), sort_keys=True), r.minimizer.samples.tobytes()


class CliWorkload:
    """Each op is one in-process `varcurves.cli.main` call.

    The pool holds configs of three kinds: a winding sweep on torus:1, a
    multistart solve on torus:2 and a tau sweep on S^2.  Every config runs
    once per pass; its first run is the byte reference for its repeats.
    `warmup` holds the first config of each kind.
    """

    KINDS = ("winding", "multistart", "tau")

    def __init__(self, vc, pool: dict, work_dir: Path):
        self.vc = vc
        self.grad_tol = vc.SolveOptions().grad_tol
        self.cases = []
        self.warmup = []
        for kind in self.KINDS:
            for i, entry in enumerate(pool[kind]):
                path = work_dir / f"config_{kind}_{i}.json"
                path.write_text(json.dumps(entry["config"], sort_keys=True, indent=2) + "\n",
                                encoding="utf-8")
                argv = entry["argv"]
                if kind == "tau":
                    values = argv[-1].removeprefix("--values=").split(",")
                    keys = [factor_key({"kind": "tension", "tau": float(v)}, N_GRID)
                            for v in values]
                else:
                    keys = [factor_key(entry["config"]["functional"], N_GRID)] * len(entry["refs"])
                self.cases.append({
                    "kind": kind,
                    "argv": argv + ["--config", str(path)],
                    "entry": entry,
                    "keys": keys,
                    "first_files": None,
                    "fixed": None,
                })
                if i == 0:
                    self.warmup.append(self.cases[-1])

    def run(self, case: dict, out_dir: Path):
        return self.vc.cli.main(case["argv"] + ["--out", str(out_dir)])

    def collect(self, case: dict, raw, out_dir: Path):
        files = {}
        if out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            shutil.rmtree(out_dir)
        return {"code": raw, "files": files}

    def _fixed(self, case: dict):
        """Fixed sample indices and, per multistart label, the seed's fixed samples."""
        if case["fixed"] is None:
            vc = self.vc
            cfg = vc.parse_config(case["entry"]["config"])
            free = vc.free_mask(cfg.constraint, cfg.n_grid, cfg.domain)
            idx = np.setdiff1d(np.arange(cfg.n_grid + 1), free)
            case["fixed"] = idx, {label: curve.samples[idx] for curve, label in cfg.seed_list()}
        return case["fixed"]

    def check(self, case: dict, out: dict) -> list:
        entry = case["entry"]
        failures = []
        if out["code"] not in (0, 2):
            failures.append(f"exit code {out['code']}")
            return failures
        summary = "multistart.json" if case["kind"] == "multistart" else "sweep.csv"
        if summary not in out["files"]:
            failures.append(f"no {summary} written")
            return failures
        rows = self._rows(case, out)
        if len(rows) != len(entry["refs"]):
            failures.append(f"{len(rows)} result rows, expected {len(entry['refs'])}")
            return failures
        for i, ((verdict, _, _, objective), ref, tol) in enumerate(
                zip(rows, entry["refs"], entry["tols"])):
            if verdict not in OK_VERDICTS:
                failures.append(f"row {i}: verdict {verdict}")
            bad = _objective_failure(f"row {i}", objective, ref, tol)
            if bad:
                failures.append(bad)
        if case["kind"] == "multistart":
            idx, expected = self._fixed(case)
            for label in json.loads(out["files"]["multistart.json"])["labels"]:
                name = f"minimizer_{label.replace(',', '_')}.curve"
                if name not in out["files"]:
                    failures.append(f"no {name} written")
                    continue
                curve = self.vc.parse_curve(out["files"][name].decode("utf-8"))
                if curve.samples[idx].tobytes() != expected[label].tobytes():
                    failures.append(f"{name}: fixed samples moved")
        if case["first_files"] is None:
            case["first_files"] = out["files"]
        elif out["files"] != case["first_files"]:
            failures.append("outputs differ from the first run of this config")
        return failures

    def _rows(self, case: dict, out: dict) -> list:
        """(verdict, residual, iterations, objective) per solve of one op."""
        files = out["files"]
        if case["kind"] == "multistart":
            reports = json.loads(files["multistart.json"])["reports"]
            return [(r["verdict"], r["final_residual"], r["iterations"], r["final_objective"])
                    for r in reports]
        lines = files["sweep.csv"].decode("utf-8").splitlines()[1:]
        rows = []
        for line in lines:
            value, objective, length, residual, iterations, verdict = line.split(",", 5)
            rows.append((verdict, float(residual), int(iterations), float(objective)))
        return rows

    def solves(self, case: dict, out: dict) -> list:
        return [row[:3] for row in self._rows(case, out)]

    def keys(self, case: dict) -> list:
        return case["keys"]

    def fingerprint(self, out: dict):
        return out["code"], out["files"]
