"""Built-in verification suites: gradient integrity, convergence order, oracles.

Shared by the `check` CLI subcommand and the test suite.  Every case is
deterministic (fixed RNG seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .constraints import ConstraintSet, seed
from .curves import DiscreteCurve
from .fields import PriorField
from .functionals import FunctionalSpec, evaluate, gradient
from .manifolds import Manifold, make_manifold
from .optimize import SolveOptions, minimize, sup_distance
from . import oracles

GRADIENT_TOL = 1e-4
ORDER_MIN_POS_ONLY = 1.8
ORDER_MIN_CLAMPED = 0.9
ORACLE_TOL = 0.02
_FD_EPS = 1e-5
CONVERGENCE_GRIDS = (25, 50, 100, 200)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# gradient suite
# ---------------------------------------------------------------------------

def _random_curve(m: Manifold, rng: np.random.Generator, n_grid: int = 16) -> DiscreteCurve:
    """Smooth random curve: perturbed geodesic, steps safely inside injectivity."""
    p = m.random_point(rng, 1)[0]
    v = m.project_tangent(p, rng.normal(size=m.ambient_dim))
    nv = np.linalg.norm(v)
    if nv > 0:
        v = v / nv * min(1.0, 0.4 * m.injectivity_radius)
    t = np.arange(n_grid + 1) / n_grid
    base = m.exp(np.broadcast_to(p, (n_grid + 1, m.ambient_dim)), t[:, None] * v[None, :])
    bumps = (np.sin(np.pi * t)[:, None] * rng.normal(size=m.ambient_dim)
             + np.sin(2 * np.pi * t)[:, None] * rng.normal(size=m.ambient_dim))
    pert = m.project_tangent(base, 0.05 * bumps)
    return DiscreteCurve(m, "interval", m.exp(base, pert))


def _random_direction(curve: DiscreteCurve, free: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    eta = np.zeros_like(curve.samples)
    eta[free] = curve.manifold.project_tangent(
        curve.samples[free], rng.normal(size=(len(free), curve.manifold.ambient_dim)))
    norm = np.linalg.norm(eta)
    return eta / norm if norm > 0 else eta


def fd_directional_error(spec: FunctionalSpec, curve: DiscreteCurve,
                         free: np.ndarray, eta: np.ndarray) -> float:
    """Relative error between <gradient, eta> and a central finite difference
    along the exp-perturbation x -> exp_x(+-_FD_EPS * eta)."""
    m = curve.manifold

    def shifted(sign):
        x = np.array(curve.samples)
        x[free] = m.exp(curve.samples[free], sign * _FD_EPS * eta[free])
        return curve.with_samples(x)

    fd = (evaluate(spec, shifted(+1.0)) - evaluate(spec, shifted(-1.0))) / (2 * _FD_EPS)
    an = float(np.sum(gradient(spec, curve, free) * eta))
    return abs(fd - an) / max(abs(fd), abs(an), 1e-12)


def _specs_for(m: Manifold) -> List[FunctionalSpec]:
    specs = [FunctionalSpec.tension_cost(0.0), FunctionalSpec.tension_cost(0.7),
             FunctionalSpec.energy(1), FunctionalSpec.energy(2),
             FunctionalSpec.conditional(2)]
    if m.name == "sphere:2":
        fld = PriorField(m, "sphere_rotation", np.array([0.0, 0.0, 1.0]))
    elif m.name.startswith("torus"):
        fld = PriorField(m, "torus_constant", 0.5 * np.ones(m.ambient_dim))
    elif m.name == "so3":
        fld = PriorField(m, "so3_left_invariant", np.array([0.2, 0.1, 0.3]))
    else:
        vec = np.zeros(m.ambient_dim)
        vec[0] = 0.8
        fld = PriorField(m, "constant_ambient", vec)
    specs.append(FunctionalSpec.conditional(1, fld))
    specs.append(FunctionalSpec.conditional(2, fld))
    return specs


def gradient_suite() -> List[CheckResult]:
    results = []
    case = 0
    for mid in ("euclidean:2", "sphere:2", "torus:2", "so3"):
        m = make_manifold(mid)
        for spec in _specs_for(m):
            case += 1
            worst = 0.0
            for trial in range(3):
                rng = np.random.default_rng(7_000_000 + 1000 * case + trial)
                curve = _random_curve(m, rng)
                free = np.arange(1, curve.n_samples - 1)
                eta = _random_direction(curve, free, rng)
                worst = max(worst, fd_directional_error(spec, curve, free, eta))
            results.append(CheckResult(
                f"gradient/{mid}/{spec.describe()}", worst <= GRADIENT_TOL,
                f"max rel err {worst:.2e} (tol {GRADIENT_TOL:.0e})"))
    return results


# ---------------------------------------------------------------------------
# convergence suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceScenario:
    name: str
    family: str  # "position_only" | "clamped"
    manifold_id: str
    spec: FunctionalSpec
    constraint: ConstraintSet
    oracle: Callable[[], oracles.ClosedFormCurve]


def _scenarios() -> List[ConvergenceScenario]:
    sphere = make_manifold("sphere:2")
    p, q = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    return [
        ConvergenceScenario(
            "circle_tension", "position_only", "torus:1",
            FunctionalSpec.tension_cost(1.0),
            ConstraintSet.interpolation([(0.0, [0.0]), (1.0, [np.pi / 2])]),
            lambda: oracles.geodesic(make_manifold("torus:1"), [0.0], [np.pi / 2])),
        ConvergenceScenario(
            "euclidean_tension_posonly", "position_only", "euclidean:1",
            FunctionalSpec.tension_cost(1.0),
            ConstraintSet.clamped([0.0], [1.0]),
            lambda: oracles.tension_1d([0.0], [1.0], 1.0, "position_only")),
        ConvergenceScenario(
            "sphere_tension_posonly", "position_only", "sphere:2",
            FunctionalSpec.tension_cost(1.0),
            ConstraintSet.clamped(p, q),
            lambda: oracles.geodesic(sphere, p, q)),
        ConvergenceScenario(
            "euclidean_cubic_clamped", "clamped", "euclidean:1",
            FunctionalSpec.tension_cost(0.0),
            ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0]),
            lambda: oracles.hermite_cubic(0.0, 0.0, 1.0, 0.0)),
        ConvergenceScenario(
            "euclidean_tension_clamped", "clamped", "euclidean:1",
            FunctionalSpec.tension_cost(1.0),
            ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0]),
            lambda: oracles.tension_1d([0.0], [1.0], 1.0, "clamped", [0.0], [0.0])),
    ]


def scenario_errors(sc: ConvergenceScenario) -> np.ndarray:
    """Sup distance from the oracle of the minimizer on each CONVERGENCE_GRIDS grid."""
    m = make_manifold(sc.manifold_id)
    oracle = sc.oracle()
    errs = []
    for n in CONVERGENCE_GRIDS:
        x0 = seed(sc.constraint, m, n)
        report = minimize(sc.spec, sc.constraint, x0, SolveOptions(grad_tol=1e-10))
        errs.append(max(sup_distance(report.minimizer, oracle.sample(n)), 1e-14))
    return np.array(errs)


def fitted_order(grids, errs) -> float:
    return float(-np.polyfit(np.log(np.asarray(grids, float)), np.log(errs), 1)[0])


def convergence_suite() -> List[CheckResult]:
    results = []
    for sc in _scenarios():
        errs = scenario_errors(sc)
        order = fitted_order(CONVERGENCE_GRIDS, errs)
        need = ORDER_MIN_POS_ONLY if sc.family == "position_only" else ORDER_MIN_CLAMPED
        detail = ("errors " + ", ".join(f"{e:.2e}" for e in errs)
                  + f"; fitted order {order:.2f} (need >= {need})")
        results.append(CheckResult(f"convergence/{sc.family}/{sc.name}",
                                   order >= need, detail))
    return results


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def oracle_suite() -> List[CheckResult]:
    results = []
    n = 200

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-12)

    cf = oracles.hermite_cubic(0.0, 0.0, 1.0, 0.0)
    val = oracles.tension_value(cf, 0.0)
    disc = evaluate(FunctionalSpec.tension_cost(0.0), cf.sample(n))
    results.append(CheckResult("oracle/hermite_consistency", rel(disc, val) <= ORACLE_TOL,
                               f"discrete {disc:.6f} vs analytic {val:.6f}"))

    for tau in (1.0, 5.0):
        cf = oracles.tension_1d([0.0], [1.0], tau, "clamped", [0.0], [0.0])
        val = oracles.tension_value(cf, tau)
        disc = evaluate(FunctionalSpec.tension_cost(tau), cf.sample(n))
        results.append(CheckResult(f"oracle/tension1d_tau{tau:g}",
                                   rel(disc, val) <= ORACLE_TOL,
                                   f"discrete {disc:.6f} vs analytic {val:.6f}"))

    line = oracles.tension_1d([0.0], [1.0], 2.0, "position_only")
    t = np.linspace(0, 1, 101)
    line_err = float(np.max(np.abs(line.point(t)[:, 0] - t)))
    results.append(CheckResult("oracle/natural_conditions_line", line_err <= 1e-10,
                               f"max deviation from straight line {line_err:.2e}"))

    cf, val = oracles.conditional_line([0.0, 0.0], [2.0, 1.0], [1.0, 0.0])
    m2 = make_manifold("euclidean:2")
    fld = PriorField(m2, "constant_ambient", np.array([1.0, 0.0]))
    disc = evaluate(FunctionalSpec.conditional(1, fld), cf.sample(n))
    results.append(CheckResult("oracle/conditional_line", rel(disc, val) <= ORACLE_TOL,
                               f"discrete {disc:.6f} vs analytic {val:.6f}"))

    sphere = make_manifold("sphere:2")
    for w in (0, 1):
        cf = oracles.geodesic(sphere, [1, 0, 0], [0, 1, 0], winding=w)
        val = oracles.tension_value(cf, 1.0)
        disc = evaluate(FunctionalSpec.tension_cost(1.0), cf.sample(2 * n))
        flat = evaluate(FunctionalSpec.tension_cost(0.0), cf.sample(2 * n))
        ok = rel(disc, val) <= ORACLE_TOL and flat <= 1e-2
        results.append(CheckResult(f"oracle/sphere_geodesic_w{w}", ok,
                                   f"tension {disc:.4f} vs {val:.4f}; accel-only {flat:.2e}"))

    small = oracles.tension_1d([0.0], [1.0], 1e-3, "clamped", [0.0], [0.0])
    herm = oracles.hermite_cubic(0.0, 0.0, 1.0, 0.0)
    gap = float(np.max(np.abs(small.point(t) - herm.point(t))))
    results.append(CheckResult("oracle/tension_to_cubic_limit", gap <= 1e-4,
                               f"sup gap at tau=1e-3: {gap:.2e}"))
    return results


SUITES = {
    "gradient": gradient_suite,
    "convergence": convergence_suite,
    "oracle": oracle_suite,
}
