"""Regenerate perfbench/cases.json: the case pools and their reference objectives.

Run from the repository root:

    python3 perfbench/make_cases.py

Each case is solved at N = 1000 (the benchmark's grid) and at N = 10^4; the
fine-grid objective is the reference and ten times the difference between the
two (plus 1e-6 relative) is the tolerance.  That admits the discretization
error of any consistent N = 1000 scheme but not a different minimizer or an
undescended seed.  CLI cases are solved through `varcurves.cli.main` itself,
so the references follow the CLI's own code path.  This takes several
minutes; the benchmark never runs it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import varcurves as vc  # noqa: E402
import varcurves.cli  # noqa: E402,F401
from workloads import CASES_FILE, KNOT_TIMES, N_GRID, OK_VERDICTS  # noqa: E402

POOL_SEED = 20261017
N_FINE = 10_000
ABS_TOL_FACTOR = 10.0
REL_TOL_FLOOR = 1e-6
N_SPHERE = 24       # half tension(tau), half conditional(2)
N_SO3 = 8           # half tension(0), half conditional(2)
N_CLI = 3           # configs of each kind
STEP = (0.3, 1.2)   # geodesic step between consecutive knots (rotation angle on SO(3))
WINDING_VALUES = "-3,-2,-1,0,1,2,3,4"
TAU_VALUES = "0.25,0.5,0.75,1,1.5,2,2.5,3"
MULTISTART_HINTS = [[0, 0], [1, 0], [0, 1], [-1, -1]]


def reference_tolerance(j_grid: float, j_fine: float) -> float:
    return ABS_TOL_FACTOR * abs(j_grid - j_fine) + REL_TOL_FLOOR * abs(j_fine)


def knot_chain(rng, m) -> list:
    """Five knots, each a random geodesic step of length in STEP from the last."""
    scale = np.sqrt(2.0) if m.name == "so3" else 1.0
    pts = [m.random_point(rng, 1)[0]]
    for _ in range(len(KNOT_TIMES) - 1):
        v = m.project_tangent(pts[-1], rng.normal(size=m.ambient_dim))
        v *= scale * rng.uniform(*STEP) / np.linalg.norm(v)
        pts.append(m.exp(pts[-1], v))
    return [[float(c) for c in p] for p in pts]


def solve_objective(manifold: str, knots: list, functional: dict, n_grid: int):
    m = vc.make_manifold(manifold)
    c = vc.ConstraintSet.interpolation(list(zip(KNOT_TIMES, knots)))
    report = vc.minimize(vc.FunctionalSpec.from_config(functional, m), c,
                         vc.seed(c, m, n_grid))
    return report.final_objective, report.verdict


def solve_case(rng, manifold: str, functional: dict):
    knots = knot_chain(rng, vc.make_manifold(manifold))
    j_grid, v_grid = solve_objective(manifold, knots, functional, N_GRID)
    j_fine, v_fine = solve_objective(manifold, knots, functional, N_FINE)
    if v_grid not in OK_VERDICTS or v_fine not in OK_VERDICTS:
        print(f"skipped {manifold} case: verdicts {v_grid}, {v_fine}", file=sys.stderr)
        return None
    return {"manifold": manifold, "knots": knots, "functional": functional,
            "ref": j_fine, "tol": reference_tolerance(j_grid, j_fine), "j_grid": j_grid}


def cli_objectives(config: dict, argv: list, work: Path) -> list:
    path = work / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = work / "out"
    code = vc.cli.main(argv + ["--config", str(path), "--out", str(out)])
    if code not in (0, 2):
        return None
    if argv[0] == "solve":
        rows = [(r["verdict"], r["final_objective"])
                for r in json.loads((out / "multistart.json").read_text())["reports"]]
    else:
        rows = []
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            fields = line.split(",", 5)
            rows.append((fields[5], float(fields[1])))
    if any(v not in OK_VERDICTS for v, _ in rows):
        return None
    return [j for _, j in rows]


def cli_case(rng, kind: str, work: Path):
    manifold = {"winding": "torus:1", "multistart": "torus:2", "tau": "sphere:2"}[kind]
    knots = knot_chain(rng, vc.make_manifold(manifold))
    config = {
        "manifold": manifold,
        "grid_n": N_GRID,
        "domain": "interval",
        "functional": {"kind": "tension", "tau": 0.0 if kind == "tau" else 1.0},
        "constraints": {"kind": "interpolation",
                        "knots": [{"t": t, "position": p} for t, p in zip(KNOT_TIMES, knots)]},
    }
    if kind == "multistart":
        config["winding_hints"] = MULTISTART_HINTS
        argv = ["solve"]
    else:
        values = WINDING_VALUES if kind == "winding" else TAU_VALUES
        # "--values=" keeps argparse from reading "-3,..." as an option
        argv = ["sweep", "--param", kind, f"--values={values}"]
    j_grid = cli_objectives(config, argv, work)
    j_fine = cli_objectives(dict(config, grid_n=N_FINE), argv, work)
    if j_grid is None or j_fine is None:
        print(f"skipped {kind} config: a solve failed", file=sys.stderr)
        return None
    return {"config": config, "argv": argv, "refs": j_fine, "j_grid": j_grid,
            "tols": [reference_tolerance(a, b) for a, b in zip(j_grid, j_fine)]}


def fill(count: int, make) -> list:
    out = []
    while len(out) < count:
        case = make(len(out))
        if case is not None:
            out.append(case)
            print(f"  {len(out)}/{count}", file=sys.stderr, flush=True)
    return out


def main() -> None:
    pools = {}
    print("sphere-solve", file=sys.stderr)
    rng = np.random.default_rng([POOL_SEED, 0])
    pools["sphere-solve"] = fill(N_SPHERE, lambda i: solve_case(
        rng, "sphere:2",
        {"kind": "tension", "tau": float(rng.uniform(0.0, 3.0))} if i % 2 == 0 else
        {"kind": "conditional", "k": 2,
         "field": {"kind": "sphere_rotation", "params": rng.normal(size=3).tolist()}}))
    print("so3-solve", file=sys.stderr)
    rng = np.random.default_rng([POOL_SEED, 1])
    pools["so3-solve"] = fill(N_SO3, lambda i: solve_case(
        rng, "so3",
        {"kind": "tension", "tau": 0.0} if i % 2 == 0 else
        {"kind": "conditional", "k": 2,
         "field": {"kind": "so3_left_invariant", "params": rng.normal(size=3).tolist()}}))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        pools["cli-sweep"] = {}
        for k, kind in enumerate(("winding", "multistart", "tau")):
            print(f"cli-sweep {kind}", file=sys.stderr)
            rng = np.random.default_rng([POOL_SEED, 2 + k])
            pools["cli-sweep"][kind] = fill(N_CLI, lambda i: cli_case(rng, kind, Path(tmp)))
    CASES_FILE.write_text(json.dumps(pools, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
