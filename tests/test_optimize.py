import json
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import varcurves.optimize as opt

from varcurves import (ConstraintSet, DegenerateCurveError, DiscreteCurve, FunctionalSpec,
                       SolveOptions, el_residual, evaluate_family, geodesic, hermite_cubic,
                       impose, length, make_manifold, minimize, multistart, ps_diagnostics,
                       seed, sup_distance, tension_1d)
from varcurves.checks import _random_curve
from varcurves.constraints import fixed_indices, free_mask
from varcurves.curves import TangentField, node_weights, quadrature_length
from varcurves.errors import FactorizationError
from varcurves.fields import PriorField
from varcurves.functionals import Term, gradient
from varcurves import manifolds
from varcurves.manifolds import SO3, Manifold, row_norm
from varcurves.optimize import _curve_stats, _stencil_matrices


def hermite_setup(n=200):
    c = ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0])
    m = make_manifold("euclidean:1")
    return FunctionalSpec.tension_cost(0.0), c, seed(c, m, n)


def test_critical_start_converges_immediately():
    m = make_manifold("sphere:2")
    p = m.random_point(np.random.default_rng(0), 1)[0]
    c = ConstraintSet.clamped(p, p)
    x0 = impose(c, DiscreteCurve(m, "interval", np.tile(m.canonicalize(p), (21, 1))))
    rep = minimize(FunctionalSpec.conditional(2), c, x0)
    assert rep.verdict == "converged"
    assert rep.iterations <= 1
    assert np.array_equal(rep.minimizer.samples, x0.samples)


def test_hermite_solve_matches_oracle():
    spec, c, x0 = hermite_setup()
    rep = minimize(spec, c, x0)
    assert rep.verdict == "converged"
    oracle = hermite_cubic(0.0, 0.0, 1.0, 0.0)
    assert sup_distance(rep.minimizer, oracle.sample(200)) <= 5e-3
    assert abs(rep.final_objective - 6.0) / 6.0 <= 0.01


def test_circle_multistart_three_classes():
    m = make_manifold("torus:1")
    c = ConstraintSet.interpolation([(0.0, [0.0]), (1.0, [np.pi / 2])])
    spec = FunctionalSpec.tension_cost(1.0)
    seeds = [(seed(c, m, 100, hint=[w]), f"w={w}") for w in (-1, 0, 1)]
    res = multistart(spec, c, seeds)
    assert res.n_clusters == 3
    for rep, w in zip(res.reports, (-1, 0, 1)):
        target = 0.5 * (np.pi / 2 + 2 * np.pi * w) ** 2
        assert rep.verdict == "converged"
        assert abs(rep.final_objective - target) / target <= 0.01
        assert rep.winding_drift < 1e-9
    off_diag = res.sup_distance[np.triu_indices(3, 1)]
    assert np.all(off_diag > 1.0)
    assert np.all(np.isfinite(res.h2_distance))


def test_identical_seeds_one_cluster():
    m = make_manifold("torus:1")
    c = ConstraintSet.interpolation([(0.0, [0.0]), (1.0, [np.pi / 2])])
    spec = FunctionalSpec.tension_cost(1.0)
    s = seed(c, m, 50, hint=[0])
    res = multistart(spec, c, [(s, "a"), (s, "b")])
    assert res.n_clusters == 1


def test_torus_loop_hints_two_clusters_distinct_winding():
    from varcurves import winding_vector
    m = make_manifold("torus:2")
    knots = [(0.0, [0.0, 0.0]), (0.5, [np.pi / 2, np.pi / 2]), (1.0, [0.0, 0.0])]
    c = ConstraintSet.interpolation(knots)
    spec = FunctionalSpec.tension_cost(1.0)
    seeds = [(seed(c, m, 80, hint=h), str(h)) for h in ([0, 0], [1, 0])]
    res = multistart(spec, c, seeds)
    assert res.n_clusters == 2
    w0 = winding_vector(res.reports[0].minimizer)
    w1 = winding_vector(res.reports[1].minimizer)
    assert np.allclose(w1 - w0, [1.0, 0.0], atol=1e-9)
    for rep in res.reports:
        assert rep.winding_drift < 1e-9


@pytest.mark.parametrize("mid", ["euclidean:2", "torus:2"])
def test_flat_h2_distance_compares_derivative_fields_directly(mid):
    # the tangent projection is a copy on a flat manifold, so the distance
    # is the three sums of the plain differences, to the last bit
    m = make_manifold(mid)
    rng = np.random.default_rng(31)
    for _ in range(5):
        a, b = _random_curve(m, rng, 40), _random_curve(m, rng, 40)
        w = node_weights(a)
        d0 = m.dist(a.samples, b.samples)
        dv = a.derivative(1)[1] - b.derivative(1)[1]
        da = a.derivative(2)[1] - b.derivative(2)[1]
        total = np.sum(w * d0**2)
        total += np.sum(w * np.sum(dv * dv, axis=-1))
        total += np.sum(w * np.sum(da * da, axis=-1))
        assert opt._h2_distance(a, b) == float(np.sqrt(total))


# -- report invariants ------------------------------------------------------------------

def test_monotone_descent_and_certificate():
    c = ConstraintSet.clamped([0.0], [1.0], [2.0], [-1.0])
    m = make_manifold("euclidean:1")
    spec = FunctionalSpec.tension_cost(1.5)
    rep = minimize(spec, c, seed(c, m, 100))
    objs = [h.objective for h in rep.history]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert rep.verdict == "converged"
    assert rep.final_residual <= SolveOptions().grad_tol


def _five_knot_problem(mid, n=200):
    """Interpolation through five random knots at t = k/4: the fixed rows
    0, n/4, n/2, 3n/4 and n, three of them inside the sample array."""
    m = make_manifold(mid)
    knots = m.random_point(np.random.default_rng(3), 5)
    c = ConstraintSet.interpolation(list(zip((0.0, 0.25, 0.5, 0.75, 1.0), knots)))
    return c, impose(c, seed(c, m, n))


def test_fixed_samples_bit_identical():
    m = make_manifold("sphere:2")
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0], [0, 1.0, 0], [0.5, 0, 0.1])
    x0 = impose(c, seed(c, m, 60))
    rep = minimize(FunctionalSpec.tension_cost(0.5), c, x0)
    for j in (0, 1, -2, -1):
        assert np.array_equal(rep.minimizer.samples[j], x0.samples[j])
    for mid in ("sphere:2", "so3", "torus:2", "euclidean:2"):
        c, x0 = _five_knot_problem(mid)
        rep = minimize(FunctionalSpec.tension_cost(0.5), c, x0, SolveOptions(max_iters=10))
        assert rep.iterations > 0
        fixed = fixed_indices(c, 200)
        assert rep.minimizer.samples[fixed].tobytes() == x0.samples[fixed].tobytes()


@pytest.mark.parametrize("mid", ["sphere:2", "so3", "torus:2", "euclidean:2"])
def test_whole_array_trial_matches_free_row_scatter(mid):
    # minimize builds each trial with exp over all rows and copies the fixed
    # rows back; that must equal exp over the free rows scattered into x
    c, x = _five_knot_problem(mid)
    m = x.manifold
    spec = FunctionalSpec.tension_cost(0.5)
    free, fixed = free_mask(c, x.grid_n), fixed_indices(c, x.grid_n)
    g = gradient(spec, x, free)
    d = opt._flat_model_factor(spec, x, free).solve(g)
    assert not d[fixed].any()
    d = m.project_tangent(x.samples, d)
    assert np.all(row_norm(d[fixed]) == 0.0)
    cap = min(1.0, opt.STEP_CAP / np.max(row_norm(d))) if m.compact else 1.0
    for scale in (1.0, 2.0**-20, 2.0**-45):
        step = cap * scale
        whole = m.exp(x.samples, -step * d)
        whole[fixed] = x.samples[fixed]
        scatter = np.array(x.samples)
        scatter[free] = m.exp(x.samples[free], -step * d[free])
        assert whole.tobytes() == scatter.tobytes()


@pytest.mark.parametrize("mid", ["euclidean:2", "sphere:2", "torus:2", "so3"])
def test_curve_stats_match_their_definitions(mid):
    m = make_manifold(mid)
    curve = _random_curve(m, np.random.default_rng(4), 40)
    ref = (length(curve), quadrature_length(curve),
           float(np.max(row_norm(curve.derivative(1)[1]))))
    fresh = DiscreteCurve(m, "interval", curve.samples)   # nothing memoized yet
    got = _curve_stats(fresh)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_determinism():
    spec, c, x0 = hermite_setup(100)
    r1 = minimize(spec, c, x0)
    r2 = minimize(spec, c, x0)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.minimizer.samples, r2.minimizer.samples)


def test_iter_limit_verdict_on_zero_budget():
    c = ConstraintSet.clamped([0.0], [1.0], [2.0], [-1.0])
    m = make_manifold("euclidean:1")
    rep = minimize(FunctionalSpec.tension_cost(1.0), c, seed(c, m, 60),
                   SolveOptions(max_iters=0))
    assert rep.verdict == "iter_limit"


def test_no_free_samples_converges_without_factorizing(monkeypatch):
    m = make_manifold("euclidean:1")
    c = ConstraintSet.interpolation([(k / 4, [float(k * k)]) for k in range(5)])
    x0 = seed(c, m, 4)   # every sample is a knot

    def no_factor(*args):
        raise AssertionError("factorized a problem with no free sample")

    monkeypatch.setattr(opt, "_flat_model_factor", no_factor)
    rep = minimize(FunctionalSpec.tension_cost(1.0), c, x0)
    assert (rep.verdict, rep.iterations, rep.final_residual) == ("converged", 0, 0.0)
    assert rep.minimizer.samples.tobytes() == x0.samples.tobytes()


def test_history_records_have_diagnostics():
    spec, c, x0 = hermite_setup(100)
    rep = minimize(spec, c, x0)
    h = rep.history[-1]
    assert h.grad_norm == rep.final_residual
    assert h.length > 0 and h.quad_length > 0 and h.sup_velocity > 0


# -- line-search phases ---------------------------------------------------------------------

def _on_record(mp, hook):
    """Call hook(record) on each history record that minimize creates, as
    it creates it (the end of each search)."""
    record = opt.HistoryRecord

    def hooked(*args):
        out = record(*args)
        hook(out)
        return out

    mp.setattr(opt, "HistoryRecord", hooked)


def _path(h):
    """A history record's fields that the solve path sets."""
    return h.iteration, h.objective, h.grad_norm, h.step, h.phase, h.search


def _stats(h):
    """A history record's curve statistics."""
    return h.length, h.quad_length, h.sup_velocity


def _knot_chain_problem(mid, s, n=1000):
    """Five knots at t = k/4, each a random geodesic step of 0.3 to 1.2 rad
    (rotation angle on SO(3)) from the last, and the seed curve."""
    m = make_manifold(mid)
    rng = np.random.default_rng(s)
    scale = np.sqrt(2.0) if mid == "so3" else 1.0
    knots = [m.random_point(rng, 1)[0]]
    for _ in range(4):
        v = m.project_tangent(knots[-1], rng.normal(size=m.ambient_dim))
        v *= scale * rng.uniform(0.3, 1.2) / np.linalg.norm(v)
        knots.append(m.exp(knots[-1], v))
    c = ConstraintSet.interpolation(list(zip((0.0, 0.25, 0.5, 0.75, 1.0), knots)))
    return c, seed(c, m, n)


@pytest.mark.parametrize("mid", ["sphere:2", "so3"])
def test_el_residual_is_the_final_residual_bitwise(mid):
    # the solver certifies with the one definition of the residual
    c, x0 = _knot_chain_problem(mid, 1, n=200)
    spec = FunctionalSpec.tension_cost(0.5)
    rep = minimize(spec, c, x0)
    assert rep.verdict == "converged" and rep.iterations > 0
    free = free_mask(c, x0.grid_n, x0.domain)
    got = el_residual(spec, rep.minimizer, free)
    assert np.float64(got).tobytes() == np.float64(rep.final_residual).tobytes()


_CHAINS = [("sphere:2", s) for s in range(4)] + [("so3", s) for s in range(4)]


def _solve_chains(opts):
    """N=1000 solves of the knot chains, with the trials of each line search.

    A trial is one exp call from minimize, and the history record of each
    iteration ends its search, so the trials between records i-1 and i are
    those of the search that record i accepted; those after the last record
    belong to the search that found no step.
    """
    out = {}
    exp = Manifold.exp
    for mid, s in _CHAINS:
        events = []

        def counted_exp(self, p, v):
            events.append("e")
            return exp(self, p, v)

        spec = FunctionalSpec.tension_cost(0.5 if mid == "sphere:2" else 0.0)
        c, x0 = _knot_chain_problem(mid, s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Manifold, "exp", counted_exp)
            _on_record(mp, lambda record: events.append("r"))
            rep = minimize(spec, c, x0, opts)
        searches = [len(t) for t in "".join(events).split("r")[1:]]
        out[mid, s] = rep, searches
    return out


@pytest.fixture(scope="module")
def chain_solves():
    return _solve_chains(SolveOptions())


@pytest.fixture(scope="module")
def noise_chain_solves():
    # grad_tol=0 keeps a certificate from ending a solve before its noise phase
    return _solve_chains(SolveOptions(grad_tol=0.0))


@pytest.mark.parametrize("mid,s", _CHAINS)
def test_curved_solve_at_n1000_certifies_or_stalls_near_floor(chain_solves, mid, s):
    # the certificate's roundoff floor at N=1000 lies below grad_tol on both
    # manifolds; on SO(3) these chains stop at about 0.5 * grad_tol
    rep, _ = chain_solves[mid, s]
    assert rep.verdict == "converged"
    assert rep.final_residual <= SolveOptions().grad_tol


def test_so3_solve_takes_no_svd(svd_rows):
    # every row a seed or a line-search trial canonicalizes is within
    # rounding of SO(3), so each gets the polar step and none the SVD
    c, _ = _knot_chain_problem("so3", 0, n=200)
    svd_rows.clear()
    rep = minimize(FunctionalSpec.tension_cost(0.0), c, seed(c, SO3(), 200))
    assert rep.iterations > 0
    assert sum(svd_rows) == 0
    SO3().random_point(np.random.default_rng(0), 3)   # the counter sees the SVD
    assert svd_rows == [3]


@pytest.mark.parametrize("mid,s", _CHAINS)
def test_phases_keep_their_invariants(noise_chain_solves, mid, s):
    rep, searches = noise_chain_solves[mid, s]
    eps = np.finfo(float).eps
    phases = [h.phase for h in rep.history]
    assert phases[0] is None
    assert set(phases[1:]) <= {"armijo", "noise"}
    # a step the gradient test accepted came from a noise-phase search
    assert rep.history[0].search is None
    for h in rep.history[1:]:
        assert h.search in ({"noise"} if h.phase == "noise" else {"armijo", "noise"})
    # the noise phase ran: it accepted a step or ended the solve
    stalled = rep.message == "stalled at the roundoff floor"
    assert "noise" in phases or stalled
    for a, b in zip(rep.history, rep.history[1:]):
        if b.phase == "armijo":
            assert b.objective < a.objective
        else:
            assert b.objective <= a.objective + 100 * eps * abs(a.objective)
    # one search per accepted step, plus the one that found none
    assert len(searches) == rep.iterations + 1
    assert (searches[-1] > 0) == stalled
    noise = [n for n, h in zip(searches, rep.history[1:]) if h.search == "noise"]
    if stalled:
        noise.append(searches[-1])
    # a noise phase tries one step, the capped first step (NOISE_TRIALS = 1)
    assert set(noise) == {1}


@pytest.mark.parametrize("mid,s,armijo_stop", [("sphere:2", 3, 88), ("so3", 12, 478)])
def test_noise_phase_keeps_armijo_steps_on_far_apart_knots(mid, s, armijo_stop):
    # independent random knots give objectives near 1e3, where a capped
    # step's predicted decrease falls below 100*eps*|obj| while Armijo can
    # still resolve it and the gradient norm rises along the direction; the
    # noise phase must take those Armijo steps and end no worse than plain
    # Armijo backtracking to step underflow (armijo_stop * grad_tol)
    rep = minimize(*_far_apart_problem(mid, s))
    assert rep.final_residual <= armijo_stop * SolveOptions().grad_tol
    if rep.verdict != "converged":
        assert rep.message == "stalled at the roundoff floor"


def _far_apart_problem(mid, s):
    """Five independent random knots at t = k/4, N=1000: tension(0.5) on
    S^2, tension(0) on SO(3).  Returns (spec, constraint, seed)."""
    m = make_manifold(mid)
    knots = m.random_point(np.random.default_rng(s), 5)
    c = ConstraintSet.interpolation(list(zip((0.0, 0.25, 0.5, 0.75, 1.0), knots)))
    spec = FunctionalSpec.tension_cost(0.5 if mid == "sphere:2" else 0.0)
    return spec, c, seed(c, m, 1000)


def _arc_problem(hint, tau, n):
    """A two-knot arc on S^2 from (1, 0, 0) at t = 0 to (cos 1, sin 1, 0) at
    t = 1: hint -1 seeds the long way round (length 2 pi - 1), hint +1 once
    more round (2 pi + 1).  Returns (spec, constraint, seed)."""
    c = ConstraintSet.interpolation([(0.0, [1.0, 0.0, 0.0]),
                                     (1.0, [np.cos(1.0), np.sin(1.0), 0.0])])
    return FunctionalSpec.tension_cost(tau), c, seed(c, make_manifold("sphere:2"), n, hint=hint)


def _logged_solve(monkeypatch, spec, c, x0):
    """minimize, with the run's events: "e" for each evaluate and "r" for
    each history record.  Returns the report and the events split at the
    records, so item i is the search that record i + 1 accepted, and the
    last item is the search that found no step (empty once converged)."""
    events = []
    evaluate = opt.evaluate
    monkeypatch.setattr(opt, "evaluate",
                        lambda spec, curve: events.append("e") or evaluate(spec, curve))
    _on_record(monkeypatch, lambda record: events.append("r"))
    rep = minimize(spec, c, x0)
    return rep, "".join(events).split("r")[1:]


def _torus_stall_problem():
    """The first cli-sweep winding config: torus:1, tension(1), five knots,
    N=1000.  Returns (spec, constraint, seed)."""
    knots = (4.284813678700323, 5.067393969292644, 4.619454248603253,
             5.431642205208096, 4.544118638236981)
    c = ConstraintSet.interpolation([(t, [p]) for t, p in
                                     zip((0.0, 0.25, 0.5, 0.75, 1.0), knots)])
    return FunctionalSpec.tension_cost(1.0), c, seed(c, make_manifold("torus:1"), 1000)


_CASES = Path(__file__).resolve().parent.parent / "perfbench" / "cases.json"


def _pool_problem(workload, n):
    """Case 0 of a benchmark solve pool (five knots at t = k/4) on a grid of
    n.  Returns (spec, constraint, seed)."""
    case = json.loads(_CASES.read_text(encoding="utf-8"))[workload][0]
    m = make_manifold(case["manifold"])
    c = ConstraintSet.interpolation(list(zip((0.0, 0.25, 0.5, 0.75, 1.0), case["knots"])))
    return FunctionalSpec.from_config(case["functional"], m), c, seed(c, m, n)


_NOISE_FAMILIES = ([("arc", h, tau, n) for h in (-1, 1) for tau in (1.0, 3.0, 8.0)
                    for n in (100, 200, 400, 1000)]
                   + [("far", "sphere:2", s) for s in (1, 2, 3)]
                   + [("far", "so3", s) for s in (10, 11, 12)])
# the problems that reach the noise phase.  The exact model certifies the
# tau = 1, 3 arcs at N <= 400 and far-apart seed 3 in Armijo steps alone,
# far below grad_tol; the arcs at N >= 1000 stop near the roundoff floor,
# and at tau = 8 the exact model is indefinite, so those arcs keep the
# Gauss-Newton model at every N
_NOISE_REACHED = ([("arc", h, tau, n) for h in (-1, 1) for tau in (1.0, 3.0, 8.0)
                   for n in (1000, 1500, 2000)]
                  + [("arc", h, 8.0, n) for h in (-1, 1) for n in (100, 200, 400)]
                  + [("far", "sphere:2", s) for s in (1, 2, 4)]
                  + [("far", "so3", s) for s in (10, 11, 12)])
# solves that end stalled at the roundoff floor: the torus, where the flat
# model is the exact Hessian, and S^2 and SO(3) at N=2000, where the floor
# exceeds grad_tol
_STALLS = [("torus",), ("pool", "sphere-solve", 2000), ("pool", "so3-solve", 2000)]
_NOISE_GUARD = (_NOISE_FAMILIES + [p for p in _NOISE_REACHED if p not in _NOISE_FAMILIES]
                + _STALLS)
_MAKE = {"arc": _arc_problem, "far": _far_apart_problem,
         "torus": _torus_stall_problem, "pool": _pool_problem}


@pytest.fixture(scope="module")
def noise_guard_solves():
    """Each guard problem solved with the shipped noise schedule and with
    six trials, the steps 1, 1/2, ..., 1/32 of the earlier schedule."""
    out = {}
    for problem in _NOISE_GUARD:
        args = _MAKE[problem[0]](*problem[1:])
        shipped = minimize(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opt, "NOISE_TRIALS", 6)
            out[problem] = shipped, minimize(*args)
    return out


@pytest.mark.parametrize("problem", _NOISE_GUARD, ids=lambda p: "_".join(map(str, p)))
def test_noise_phase_accepts_no_step_near_its_last(noise_guard_solves, problem):
    # a noise phase tries one step because no noise phase of these accepts
    # a step after its first trial fails, and every stall fails all six; a
    # change that makes the one-trial schedule bind (a stop that later
    # trials would have moved) fails here instead of moving stops silently
    shipped, six = noise_guard_solves[problem]
    assert shipped.to_dict() == six.to_dict()
    assert shipped.minimizer.samples.tobytes() == six.minimizer.samples.tobytes()


def test_noise_guard_problems_reach_the_noise_phase(noise_guard_solves):
    # the guard above compares noise phases: counted from the history's
    # searches and the stall message, every problem that reaches the noise
    # phase has a noise-phase search, and every stall ends in one
    stall = "stalled at the roundoff floor"
    seen = [sum(h.search == "noise" for h in rep.history) + (rep.message == stall)
            for rep, _ in (noise_guard_solves[p] for p in _NOISE_REACHED + _STALLS)]
    assert all(n > 0 for n in seen)
    assert all(noise_guard_solves[p][0].message == stall for p in _STALLS)


@pytest.mark.parametrize("problem", _NOISE_FAMILIES,
                         ids=lambda p: "_".join(map(str, p)))
def test_arcs_and_far_apart_knots_converge(problem):
    # the two-knot arcs and the far-apart knots reach the certificate; with
    # the flat model alone, without the node projections, most of them
    # stalled far above the roundoff floor
    make = _arc_problem if problem[0] == "arc" else _far_apart_problem
    rep = minimize(*make(*problem[1:]))
    assert rep.verdict == "converged"
    assert rep.final_residual <= SolveOptions().grad_tol


@pytest.mark.parametrize("mid", ["sphere:2", "so3"])
@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_closed_curved_loops_converge(mid, tau):
    # a bent closed loop of winding hint 1 on the circle domain (N=64): the
    # sparse LU path of the projected model; with the flat model alone these
    # solves end iter_limit, three of them at 1e8 * grad_tol
    m = make_manifold(mid)
    x = seed(ConstraintSet.periodic(), m, 64, "circle", 1).samples
    t = np.arange(64)[:, None] / 64
    rng = np.random.default_rng(64)
    bumps = (np.sin(2 * np.pi * t) * rng.normal(size=m.ambient_dim)
             + np.cos(4 * np.pi * t) * rng.normal(size=m.ambient_dim))
    x0 = DiscreteCurve(m, "circle", m.exp(x, m.project_tangent(x, 0.2 * bumps)))
    rep = minimize(FunctionalSpec.tension_cost(tau), ConstraintSet.periodic(), x0)
    assert rep.verdict == "converged"
    assert rep.iterations <= 100


def test_far_apart_solve_rebuilds_the_model(monkeypatch):
    # far-apart S^2 knots, rng 1, move some sample more than REBUILD_DIST
    # from where the model was built; without a rebuild this solve runs
    # out its iteration budget.  The Gauss-Newton model of the start gives
    # way to the exact one at the first accepted iterate, and every later
    # build is a rebuild at that distance
    built = []
    factor = opt._flat_model_factor

    def counted(spec, curve, free, exact=False, fallback=False):
        built.append((curve.samples, exact))
        return factor(spec, curve, free, exact=exact, fallback=fallback)

    problem = _far_apart_problem("sphere:2", 1)
    iterate_1 = minimize(*problem, SolveOptions(max_iters=1)).minimizer
    monkeypatch.setattr(opt, "_flat_model_factor", counted)
    rep = minimize(*problem)
    assert rep.verdict == "converged"
    assert [exact for _, exact in built[:2]] == [False, True]
    assert built[1][0].tobytes() == iterate_1.samples.tobytes()
    assert len(built) >= 3
    for (a, _), (b, exact) in zip(built[1:], built[2:]):
        assert exact
        assert np.max(row_norm(b - a)) > opt.REBUILD_DIST


def test_torus_stall_ends_after_one_noise_trial(monkeypatch):
    # on the flat torus the flat model is the exact Hessian, so the torus
    # stall accepts 3 steps and then stalls near 2 grad_tol; the futile
    # search evaluates its one trial, the capped first step
    rep, searches = _logged_solve(monkeypatch, *_torus_stall_problem())
    assert rep.message == "stalled at the roundoff floor"
    assert rep.iterations == 3
    assert searches[-1].count("e") == 1


def test_degenerate_noise_trial_ends_the_solve(monkeypatch):
    # the arc hint -1, tau=0.5, N=1000 takes an Armijo step, and then its
    # first noise phase accepts step 1 by the gradient test; a first
    # noise-phase trial that fails validation fails both tests, so that
    # search of one trial ends the solve at iterate 1, unchanged
    problem = _arc_problem(-1, 0.5, 1000)
    ref = minimize(*problem)
    assert [h.phase for h in ref.history] == [None, "armijo", "noise"]
    iterate_1 = minimize(*problem, SolveOptions(max_iters=1)).minimizer
    records, trials = [], []
    validate = DiscreteCurve.__post_init__

    def degenerate_after_iterate_1(curve):
        validate(curve)
        if len(records) == 2:
            trials.append(curve)
            raise DegenerateCurveError(0)

    monkeypatch.setattr(DiscreteCurve, "__post_init__", degenerate_after_iterate_1)
    _on_record(monkeypatch, records.append)
    rep = minimize(*problem)
    assert rep.message == "stalled at the roundoff floor"
    assert (rep.verdict, rep.iterations, len(trials)) == ("iter_limit", 1, 1)
    # the path is ref's up to iterate 1, which is the minimizer and so
    # carries its statistics
    assert [_path(h) for h in rep.history] == [_path(h) for h in ref.history[:2]]
    assert rep.history[0] == ref.history[0]
    monkeypatch.undo()
    assert _stats(rep.history[-1]) == _curve_stats(rep.minimizer)
    assert rep.minimizer.samples.tobytes() == iterate_1.samples.tobytes()


def test_noise_phase_ignores_decreases_below_rounding(monkeypatch):
    # at a stall every step predicts far less than one rounding unit of the
    # objective; a trial that reads 4 ulp lower is rounding luck there, and
    # the Armijo test must not take it
    c, x0 = _knot_chain_problem("sphere:2", 0, n=200)
    spec = FunctionalSpec.tension_cost(0.5)
    x = minimize(spec, c, x0, SolveOptions(grad_tol=0.0)).minimizer
    real_evaluate = opt.evaluate

    def evaluate(spec, curve):
        obj = real_evaluate(spec, curve)
        moved = curve.samples.tobytes() != x.samples.tobytes()
        return obj - 4 * np.spacing(obj) if moved else obj

    monkeypatch.setattr(opt, "evaluate", evaluate)
    rep = minimize(spec, c, x, SolveOptions(grad_tol=0.0))
    assert rep.message == "stalled at the roundoff floor"
    assert "armijo" not in {h.phase for h in rep.history[1:]}


def test_noise_phase_rejects_a_rise_beyond_its_guard(monkeypatch):
    # every trial that fails to decrease the objective is raised past
    # 100*eps*|obj| above the iterate: no such trial may be accepted or even
    # given a gradient, so the solve ends in a noise phase that finds no step;
    # grad_tol=0 keeps a certificate from ending the solve first
    c, x0 = _knot_chain_problem("sphere:2", 0, n=200)
    real_evaluate, real_gradient = opt.evaluate, opt.gradient
    records, raised, graded = [], [], []

    def evaluate(spec, curve):
        obj = real_evaluate(spec, curve)
        if records and obj >= records[-1].objective:   # the current iterate's
            obj += 1e-12 * abs(obj)
            raised.append((curve, obj))
        return obj

    def gradient(spec, curve, free):
        graded.append(curve)
        return real_gradient(spec, curve, free)

    monkeypatch.setattr(opt, "evaluate", evaluate)
    _on_record(monkeypatch, records.append)   # a record for each accepted iterate
    monkeypatch.setattr(opt, "gradient", gradient)
    rep = minimize(FunctionalSpec.tension_cost(0.5), c, x0, SolveOptions(grad_tol=0.0))
    assert rep.message == "stalled at the roundoff floor"
    assert rep.iterations > 0 and raised
    assert not {id(r) for r, _ in raised} & {id(x) for x in graded}
    assert not {obj for _, obj in raised} & {h.objective for h in rep.history}


def test_history_phase_in_report_and_families():
    # grad_tol=0 keeps a certificate from ending the solve before its noise phase
    c, x0 = _knot_chain_problem("sphere:2", 0, n=200)
    rep = minimize(FunctionalSpec.tension_cost(0.5), c, x0, SolveOptions(grad_tol=0.0))
    hist = rep.to_dict()["history"]
    assert hist[0]["phase"] is None
    assert [h["phase"] for h in hist[1:]] == [h.phase for h in rep.history[1:]]
    assert {h["phase"] for h in hist[1:]} == {"armijo", "noise"}
    assert hist[0]["search"] is None
    assert [h["search"] for h in hist[1:]] == [h.search for h in rep.history[1:]]
    assert {h["search"] for h in hist[1:]} <= {"armijo", "noise"}
    fam = evaluate_family(FunctionalSpec.tension_cost(0.5), c, [x0, rep.minimizer])
    assert [(h.phase, h.search) for h in fam.history] == [(None, None), (None, None)]


def test_a_solve_takes_curve_statistics_of_its_start_and_minimizer(monkeypatch):
    # so3-solve pool case 0: two _curve_stats calls, however many iterations
    spec, c, x0 = _pool_problem("so3-solve", 1000)
    calls = []
    stats = opt._curve_stats
    monkeypatch.setattr(opt, "_curve_stats", lambda curve: calls.append(curve) or stats(curve))
    rep = minimize(spec, c, x0)
    monkeypatch.undo()
    assert rep.iterations >= 2 and len(calls) == 2
    names = ("length", "quad_length", "sup_velocity")
    for h, d in zip(rep.history[1:-1], rep.to_dict()["history"][1:-1]):
        assert _stats(h) == (None, None, None)
        assert json.dumps([d[k] for k in names]) == "[null, null, null]"
    for h, curve in ((rep.history[0], impose(c, x0)), (rep.history[-1], rep.minimizer)):
        assert np.array(_stats(h)).tobytes() == np.array(_curve_stats(curve)).tobytes()


def test_armijo_underflow_keeps_its_message(monkeypatch):
    # no step of at least STEP_FLOOR meets so demanding an Armijo constant
    monkeypatch.setattr(opt, "ARMIJO_C1", 0.9)
    monkeypatch.setattr(opt, "STEP_FLOOR", 0.5)
    spec, c, x0 = hermite_setup(100)
    rep = minimize(spec, c, x0)
    assert (rep.verdict, rep.message, rep.iterations) == \
        ("iter_limit", "line search step underflow", 0)


# -- quasi-Newton directions ----------------------------------------------------------------

def _flat_direction(spec, c, x, g):
    """The flat-model direction, built here from its definition."""
    free = free_mask(c, x.grid_n, x.domain)
    d = opt._flat_model_factor(spec, x, free).solve(g)
    assert not np.delete(d, free, axis=0).any()   # g, and so d, is zero on the fixed rows
    return x.manifold.project_tangent(x.samples, d)


def _spy_directions(mp, hook=None):
    """Record (pairs held, g, direction) of every two-loop direction minimize
    asks for; hook(pairs, g, flat, project) runs first."""
    calls = []
    two_loop = opt._two_loop

    def spy(pairs, g, flat, project):
        if hook is not None:
            hook(pairs, g, flat, project)
        d = two_loop(pairs, g, flat, project)
        calls.append((len(pairs), np.array(g), np.array(d)))
        return d

    mp.setattr(opt, "_two_loop", spy)
    return calls


@pytest.mark.parametrize("mid", ["sphere:2", "so3", "torus:2", "euclidean:2"])
def test_first_direction_is_the_flat_one(mid, monkeypatch):
    # with an empty memory the direction is the flat-model one byte for byte,
    # so every solve's first step, and its record 1, is that of flat descent
    spec = FunctionalSpec.tension_cost(0.5)
    c, x0 = _five_knot_problem(mid)
    calls = _spy_directions(monkeypatch)
    rep = minimize(spec, c, x0, SolveOptions(max_iters=5))
    k, g, d = calls[0]
    assert k == 0
    assert d.tobytes() == _flat_direction(spec, c, x0, g).tobytes()
    monkeypatch.setattr(opt, "LBFGS_MEMORY", 0)   # a memory that keeps no pair
    flat = minimize(spec, c, x0, SolveOptions(max_iters=5))
    assert flat.history[:2] == rep.history[:2]


def test_two_loop_matches_dense_inverse_bfgs(monkeypatch):
    # H0 = P F^-1 P as a dense matrix; each pair, oldest first, updates H to
    # (I - rho s y^T) H (I - rho y s^T) + rho s s^T, and the direction is P H g.
    # The two-knot arc at tau = 8 keeps the Gauss-Newton model (its exact
    # model is indefinite), so its memory fills
    spec, c, x0 = _arc_problem(-1, 8.0, 16)
    full = []

    def dense(pairs, g, flat, project):
        if len(pairs) < opt.LBFGS_MEMORY:
            return
        shape, eye = g.shape, np.eye(g.size)
        p = np.column_stack([project(e.reshape(shape)).ravel() for e in eye])
        h = np.column_stack([flat(e.reshape(shape)).ravel() for e in eye]) @ p
        for s, y, _ in pairs:
            s, y = s.ravel(), y.ravel()
            rho = 1.0 / (y @ s)
            v = eye - rho * np.outer(y, s)
            h = v.T @ h @ v + rho * np.outer(s, s)
        full.append((p @ h @ g.ravel()).reshape(shape))

    calls = _spy_directions(monkeypatch, dense)
    minimize(spec, c, x0, SolveOptions(grad_tol=0.0, max_iters=12))
    got = [d for k, _, d in calls if k == opt.LBFGS_MEMORY]
    assert len(got) == len(full) > 0
    for d, want in zip(got, full):
        assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)


def test_non_descent_direction_clears_the_memory(monkeypatch):
    # the pair s = H0 g, y = -g, planted past the curvature test, turns the
    # two-loop direction into -H0 g; minimize must drop the memory and take
    # the flat direction instead.  The two-knot arc at tau = 8 keeps the
    # Gauss-Newton model, so no exact rebuild clears the memory
    spec, c, x0 = _arc_problem(-1, 8.0, 200)

    def plant(pairs, g, flat, project):
        if len(calls) == 1:
            deque.clear(pairs)   # not counted as minimize's clear
            s = flat(g)
            pairs.append((s, -g, 1.0 / np.sum(-g * s)))

    cleared = []

    class Memory(deque):
        def clear(self):
            cleared.append(len(self))
            super().clear()

    calls = _spy_directions(monkeypatch, plant)
    monkeypatch.setattr(opt, "deque", Memory)
    rep = minimize(spec, c, x0)
    _, g, d = calls[1]
    assert np.sum(g * d) < 0
    assert cleared == [1]
    assert rep.history[2].phase == "armijo"
    assert rep.history[2].objective < rep.history[1].objective
    assert rep.verdict == "converged"


def test_kept_pairs_never_change(monkeypatch):
    # a pair is stored as taken: the arrays the two-loop sees are never
    # re-projected, rescaled or rewritten while the solve runs.  The
    # two-knot arc at tau = 8 keeps the Gauss-Newton model, so its memory
    # rotates
    spec, c, x0 = _arc_problem(1, 8.0, 200)
    seen = {}

    def remember(pairs, g, flat, project):
        for pair in pairs:
            for a in pair[:2]:
                seen.setdefault(id(a), (a, a.tobytes()))

    calls = _spy_directions(monkeypatch, remember)
    rep = minimize(spec, c, x0, SolveOptions(grad_tol=0.0, max_iters=20))
    assert rep.iterations > opt.LBFGS_MEMORY + 2
    assert max(k for k, _, _ in calls) == opt.LBFGS_MEMORY
    assert len(seen) >= 2 * (opt.LBFGS_MEMORY + 2)   # the memory has rotated
    for a, taken in seen.values():
        assert a.tobytes() == taken

@pytest.mark.parametrize("hint", [-1, 1])
@pytest.mark.parametrize("n", [200, 1000])
def test_saddle_arcs_keep_the_gauss_newton_model(monkeypatch, hint, n):
    # at tau = 8 the long arcs are saddles: the exact model at the first
    # iterate is not positive definite, so the solve keeps the Gauss-Newton
    # model and its memory, and runs as a solve whose every exact build is
    # refused does, byte for byte
    problem = _arc_problem(hint, 8.0, n)
    built = []
    factor = opt._flat_model_factor

    def logged(spec, curve, free, exact=False, fallback=False):
        try:
            out = factor(spec, curve, free, exact=exact, fallback=fallback)
        except FactorizationError:
            built.append((exact, "refused"))
            raise
        built.append((exact, "built"))
        return out

    monkeypatch.setattr(opt, "_flat_model_factor", logged)
    rep = minimize(*problem)
    assert built[:2] == [(False, "built"), (True, "refused")]

    def gauss_newton_only(spec, curve, free, exact=False, fallback=False):
        if exact and not fallback:
            raise FactorizationError("refused")
        return factor(spec, curve, free)   # a rebuild falls back to Gauss-Newton

    monkeypatch.setattr(opt, "_flat_model_factor", gauss_newton_only)
    ref = minimize(*problem)
    assert rep.verdict == "converged"
    assert rep.to_dict() == ref.to_dict()
    assert rep.minimizer.samples.tobytes() == ref.minimizer.samples.tobytes()


@pytest.mark.parametrize("mid", ["euclidean:1", "torus:1"])
def test_flat_solves_keep_no_pairs(monkeypatch, mid):
    # on a flat manifold the model is the exact Hessian, so every direction
    # is the model's own; the torus stall problem's knots take several
    # steps, up to the roundoff floor
    sizes = []
    two_loop = opt._two_loop

    def spy(pairs, g, flat, project):
        sizes.append(len(pairs))
        return two_loop(pairs, g, flat, project)

    monkeypatch.setattr(opt, "_two_loop", spy)
    spec, c, _ = _torus_stall_problem()
    rep = minimize(spec, c, seed(c, make_manifold(mid), 1000),
                   SolveOptions(grad_tol=0.0, max_iters=4))
    assert rep.iterations > 1
    assert set(sizes) == {0}


@pytest.mark.parametrize("mid", ["sphere:2", "so3"])
def test_tangent_projections_per_iteration(mid, monkeypatch):
    # the pairs are not re-projected at each step, and the gradient is not
    # checked for tangency again: an iteration projects about 6.1 curve-sized
    # arrays (the derivative memos, the gradient, the two-loop's q, the flat
    # solve and the result)
    c, x0 = _knot_chain_problem(mid, 0, n=200)
    cls = type(x0.manifold)
    project, rows = cls.project_tangent, [0]

    def counted(self, p, v):
        rows[0] += np.size(v) // np.shape(v)[-1]
        return project(self, p, v)

    monkeypatch.setattr(cls, "project_tangent", counted)
    spec = FunctionalSpec.tension_cost(0.5 if mid == "sphere:2" else 0.0)
    rep = minimize(spec, c, x0)
    assert rep.verdict == "converged" and rep.iterations > 0
    assert rows[0] <= 7 * x0.n_samples * rep.iterations


def test_sphere_solve_constructs_no_tangent_field(monkeypatch):
    # minimize works on the gradient array; no field is built or validated
    built = []
    monkeypatch.setattr(TangentField, "__post_init__", lambda self: built.append(self))
    c, x0 = _knot_chain_problem("sphere:2", 0, n=200)
    rep = minimize(FunctionalSpec.tension_cost(0.5), c, x0)
    assert rep.verdict == "converged" and rep.iterations > 0
    assert built == []


@pytest.mark.parametrize("s", range(4))
def test_quasi_newton_sphere_solves_take_few_iterations(chain_solves, s):
    # flat descent alone took 17 to 53 iterations on these problems
    rep, _ = chain_solves["sphere:2", s]
    assert rep.iterations <= 20


# -- compactness diagnostics ----------------------------------------------------------------

def test_ps_domination_holds_on_tension_runs():
    m = make_manifold("torus:1")
    c = ConstraintSet.interpolation([(0.0, [0.0]), (1.0, [np.pi / 2])])
    spec = FunctionalSpec.tension_cost(2.0)
    rep = minimize(spec, c, seed(c, m, 100, hint=[1]))
    ps = ps_diagnostics(rep)
    assert ps.domination_checked and ps.domination_ok
    assert ps.domination_margin_min >= -1e-9


def test_ps_failure_witness_family():
    m = make_manifold("sphere:2")
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0])
    family = [geodesic(m, [1, 0, 0], [0, 1, 0], winding=i).sample(400) for i in (1, 2, 3)]
    rep = evaluate_family(FunctionalSpec.tension_cost(0.0), c, family)
    objs = [h.objective for h in rep.history]
    lens = [h.length for h in rep.history]
    assert max(objs) <= 1e-2                       # bounded objective
    assert all(b - a >= 2 * np.pi - 1e-9 for a, b in zip(lens, lens[1:]))  # unbounded length
    sups = [sup_distance(a, b) for i, a in enumerate(family) for b in family[i + 1:]]
    assert min(sups) >= 1.0                        # no clustering
    ps = ps_diagnostics(rep)
    assert not ps.domination_checked               # tau = 0: nothing to dominate


def test_ps_constant_run_zero_lengths():
    m = make_manifold("euclidean:2")
    p = np.zeros(2)
    c = ConstraintSet.clamped(p, p)
    x0 = DiscreteCurve(m, "interval", np.zeros((31, 2)))
    rep = minimize(FunctionalSpec.tension_cost(1.0), c, x0)
    ps = ps_diagnostics(rep)
    assert ps.length_max == 0.0


def test_ps_diagnostics_flags_a_planted_violation():
    # tension(2) bounds the objective below by 2 * quad_length^2: record 2
    # (objective 1, quad_length 1) breaks it, and record 1 carries no
    # statistics, so the check skips it
    rec = opt.HistoryRecord
    hist = (rec(0, 10.0, 1.0, 1.0, 1.0, 1.0, 0.0),
            rec(1, 0.5, 1.0, None, None, None, 1.0, "armijo", "armijo"),
            rec(2, 1.0, 0.1, 1.2, 1.0, 1.0, 1.0, "noise", "noise"))
    curve = DiscreteCurve(make_manifold("euclidean:1"), "interval", np.zeros((5, 1)))
    rep = opt.SolveReport(curve, FunctionalSpec.tension_cost(2.0), "iter_limit", 2,
                          1.0, 0.1, hist)
    ps = ps_diagnostics(rep)
    assert ps.domination_checked and not ps.domination_ok
    assert ps.domination_violations == (2,)
    assert ps.domination_margin_min == -1.0
    assert (ps.n_records, ps.objective_max, ps.objective_min) == (3, 10.0, 0.5)
    assert (ps.length_max, ps.length_to_objective) == (1.2, 0.12)


def test_tension_solve_against_ode_oracle():
    c = ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0])
    m = make_manifold("euclidean:1")
    for tau in (1.0, 5.0):
        rep = minimize(FunctionalSpec.tension_cost(tau), c, seed(c, m, 200))
        oracle = tension_1d([0.0], [1.0], tau, "clamped", [0.0], [0.0])
        assert sup_distance(rep.minimizer, oracle.sample(200)) <= 1e-2


def _loop_stencil_matrices(curve):
    """Reference build of the stencil matrices, one entry at a time."""
    n, ns = curve.grid_n, curve.n_samples
    sv, sa = sp.lil_matrix((ns, ns)), sp.lil_matrix((ns, ns))
    for j in range(ns):
        if curve.domain == "circle" or 0 < j < ns - 1:
            sv[j, (j - 1) % ns] = -n / 2.0
            sv[j, (j + 1) % ns] = n / 2.0
            sa[j, (j - 1) % ns] = n * n
            sa[j, j] = -2.0 * n * n
            sa[j, (j + 1) % ns] = n * n
    if curve.domain == "interval":
        sv[0, 0], sv[0, 1], sv[0, 2] = -1.5 * n, 2.0 * n, -0.5 * n
        sv[-1, -1], sv[-1, -2], sv[-1, -3] = 1.5 * n, -2.0 * n, 0.5 * n
    return sv.tocsr(), sa.tocsr()


def _csr_stencils(curve):
    """The grid's difference matrices D_1, D_2, in CSR."""
    return tuple(curve.stencil(k).matrix for k in (1, 2))


def _euclid_curve(domain, n):
    ns = n + 1 if domain == "interval" else n
    x = np.random.default_rng(n).normal(size=(ns, 1))
    return DiscreteCurve(make_manifold("euclidean:1"), domain, x)


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 64])
def test_stencil_matrices_match_forward_stencils(domain, n):
    curve = _euclid_curve(domain, n)
    sv, sa = _csr_stencils(curve)
    x = curve.samples
    for got, want in ((sv @ x, curve.derivative(1)[0]), (sa @ x, curve.derivative(2)[0])):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    if domain == "interval":
        assert np.all(sa[[0, -1]].toarray() == 0)


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 64, 1000])
def test_stencil_matrices_bit_identical_to_loop_build(domain, n):
    curve = _euclid_curve(domain, n)
    for got, want in zip(_csr_stencils(curve), _loop_stencil_matrices(curve)):
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 64, 1000])
def test_cached_diagonals_are_read_only_and_equal_a_fresh_extraction(domain, n):
    curve = _euclid_curve(domain, n)
    diagonals = _stencil_matrices(curve)
    again = _stencil_matrices(_euclid_curve(domain, n))   # one per grid
    assert all(a is b for a, b in zip(diagonals, again))
    ns = curve.n_samples
    for order, (e, d) in enumerate(zip(diagonals, _csr_stencils(curve)), start=1):
        with pytest.raises(ValueError):
            e[2, 0] = 1.0
        # a fresh extraction from the CSR entries
        j = np.repeat(np.arange(ns), np.diff(d.indptr))
        fresh = np.zeros((7, ns))
        fresh[(d.indices - j + 2) % ns, j] = d.data
        assert e.shape == (7, ns) and e.tobytes() == fresh.tobytes()
        # and entry by entry from the loop build: D[j, j + p] in e[p + 2, j]
        dense = _loop_stencil_matrices(curve)[order - 1].toarray()
        rows = np.arange(ns)
        for p in range(-2, 3):
            assert np.array_equal(e[p + 2], dense[rows, (rows + p) % ns]), (order, p)
        assert not e[5:].any()


def _two_term_solve(ca, cv, curve, free, b):
    """The solve of the flat model built from both terms, zero coefficients
    included, for the rows b of every sample: on the interval by the banded
    factor, on the circle by sparse LU of the sparse sum on the free samples,
    with zero fixed rows."""
    if curve.domain == "interval":
        both = SimpleNamespace(terms=(Term(2, ca, None), Term(1, cv, None)))
        return opt._flat_model_factor(both, curve, free).solve(b)
    sv, sa = _csr_stencils(curve)
    wv, wa = sp.diags(node_weights(curve)), sp.diags(curve.stencil(2).weights)
    h = ca * (sa.T @ wa @ sa) + cv * (sv.T @ wv @ sv)
    h = h.tocsc()[free][:, free].tocsc()
    diag_scale = max(float(h.diagonal().max()), 1.0)
    h = h + sp.identity(h.shape[0], format="csc") * (1e-12 * diag_scale)
    x = np.zeros_like(b)
    x[free] = spla.splu(h).solve(b[free])
    return x


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("spec,coef", [
    (FunctionalSpec.tension_cost(0.0), (1.0, 0.0)),
    (FunctionalSpec.conditional(2), (1.0, 0.0)),
    (FunctionalSpec.conditional(1), (0.0, 1.0)),
    (FunctionalSpec.energy(1), (0.0, 1.0)),
], ids=["tension0", "conditional2", "conditional1", "energy1"])
def test_flat_model_without_zero_term_solves_bitwise(domain, spec, coef):
    # the term with coefficient 0 is not built; on the circle its explicit
    # zeros never reached the factor, as the sparse sums drop them, and on the
    # interval its zero bands add nothing to the others
    curve = _euclid_curve(domain, 200)
    free = np.setdiff1d(np.arange(curve.n_samples), [0, 50, 100, 150, 200])
    b = np.zeros((curve.n_samples, 3))
    b[free] = np.random.default_rng(8).normal(size=(len(free), 3))
    got = opt._flat_model_factor(spec, curve, free).solve(b)
    assert not np.delete(got, free, axis=0).any()
    assert got.tobytes() == _two_term_solve(*coef, curve, free, b).tobytes()


def _dense_flat_model(spec, curve, free):
    """The shifted flat model on the free samples, dense, from its definition."""
    ds = _csr_stencils(curve)
    h = sum(t.coef * (ds[t.order - 1].T @ sp.diags(curve.stencil(t.order).weights)
                      @ ds[t.order - 1]).toarray() for t in spec.terms)
    h = h[np.ix_(free, free)]
    return h + np.eye(len(free)) * (1e-12 * max(float(np.max(np.diag(h))), 1.0))


_FREE_SETS = {
    "five_knots": lambda n: [0, round(n / 4), round(n / 2), round(3 * n / 4), n],
    "clamped1": lambda n: [0, n],
    "clamped2": lambda n: [0, 1, n - 1, n],
    "one_fixed": lambda n: [n // 2],
    "adjacent_pair": lambda n: [0, n // 2, n // 2 + 1, n],
}


@pytest.mark.parametrize("spec", [
    FunctionalSpec.tension_cost(0.0), FunctionalSpec.tension_cost(1.5),
    FunctionalSpec.energy(1), FunctionalSpec.energy(2), FunctionalSpec.conditional(1),
], ids=["tension0", "tension1.5", "energy1", "energy2", "conditional1"])
@pytest.mark.parametrize("n,fixed", [
    (n, fixed) for n in (4, 5, 6, 7, 64, 1000) for fixed in _FREE_SETS
    if (n, fixed) != (4, "five_knots")   # five knots on N = 4 fix every sample
])
def test_interval_factor_is_backward_stable(n, fixed, spec):
    # banded Cholesky is backward stable: the solve is exact for a matrix
    # within a few rounding units of the shifted flat model
    curve = _euclid_curve("interval", n)
    _assert_flat_solve_backward_stable(spec, curve, np.setdiff1d(np.arange(n + 1),
                                                                 _FREE_SETS[fixed](n)))


@pytest.mark.parametrize("spec", [
    FunctionalSpec.tension_cost(0.0), FunctionalSpec.tension_cost(1.5),
    FunctionalSpec.energy(1), FunctionalSpec.energy(2), FunctionalSpec.conditional(1),
], ids=["tension0", "tension1.5", "energy1", "energy2", "conditional1"])
@pytest.mark.parametrize("n", [4, 5, 7, 64, 1000])
@pytest.mark.parametrize("mid", ["euclidean:1", "torus:1"])
def test_circle_factor_is_backward_stable(mid, n, spec):
    # the circle's sparse LU, on every sample (none is fixed); at N = 4 the
    # offsets +-2 of the wrapped stencils reach the same sample
    m = make_manifold(mid)
    curve = DiscreteCurve(m, "circle", m.canonicalize(_euclid_curve("circle", n).samples))
    _assert_flat_solve_backward_stable(spec, curve, np.arange(n))


def _assert_flat_solve_backward_stable(spec, curve, free):
    """The flat model's solve, for rows b of every sample that are zero on
    the fixed ones, is zero on the fixed rows, and on the free rows exact for
    a matrix within a few rounding units of the shifted flat model on the
    free samples built from its definition."""
    h = _dense_flat_model(spec, curve, free)
    b = np.zeros((curve.n_samples, 3))
    b[free] = np.random.default_rng(curve.grid_n).normal(size=(len(free), 3))
    x = opt._flat_model_factor(spec, curve, free).solve(b)
    assert x.shape == b.shape
    assert not np.delete(x, free, axis=0).any()
    for xc, bc in zip(x[free].T, b[free].T):
        backward = (np.max(np.abs(h @ xc - bc))
                    / (np.max(np.sum(np.abs(h), axis=1)) * np.max(np.abs(xc)) + np.max(np.abs(bc))))
        assert backward <= 16 * np.finfo(float).eps


def _dense_framed_model(spec, curve, free):
    """The shifted projected flat model sum c (Q D E)^T W (Q D E) on the free
    samples, dense, from its definition: block (j, a) of Q D E is
    D[j, a] E_j^T E_a, with E the tangent frames.  Returns it and the free
    samples' frames."""
    e = curve.manifold.tangent_frame(curve.samples)   # E_j^T in e[j]
    ns, k = e.shape[:2]
    h = np.zeros((ns * k, ns * k))
    for t, d in zip(spec.terms, (_csr_stencils(curve)[t.order - 1] for t in spec.terms)):
        d = d.toarray()
        qde = np.zeros((ns * k, ns * k))
        for j, a in zip(*np.nonzero(d)):
            qde[j * k:(j + 1) * k, a * k:(a + 1) * k] = d[j, a] * e[j] @ e[a].T
        w = np.repeat(curve.stencil(t.order).weights, k)
        h += t.coef * qde.T @ (w[:, None] * qde)
    dof = (free[:, None] * k + np.arange(k)).ravel()
    h = h[np.ix_(dof, dof)]
    return h + np.eye(len(dof)) * (1e-12 * max(float(np.max(np.diag(h))), 1.0)), e[free]


def _curved_curve(mid, domain, n):
    """A curve of n steps on the manifold: 0.3-rad random geodesic steps."""
    m = make_manifold(mid)
    rng = np.random.default_rng(n)
    x = [m.random_point(rng, 1)[0]]
    for _ in range(n if domain == "interval" else n - 1):
        v = m.project_tangent(x[-1], rng.normal(size=m.ambient_dim))
        x.append(m.exp(x[-1], 0.3 * v / np.linalg.norm(v)))
    return DiscreteCurve(m, domain, np.array(x))


@pytest.mark.parametrize("spec", [
    FunctionalSpec.tension_cost(0.0), FunctionalSpec.tension_cost(1.5),
    FunctionalSpec.energy(1), FunctionalSpec.conditional(1),
], ids=["tension0", "tension1.5", "energy1", "conditional1"])
@pytest.mark.parametrize("mid,domain,n,fixed", [
    (mid, domain, n, fixed) for mid in ("sphere:2", "so3") for n in (4, 5, 7, 64, 200)
    for domain, fixed in (("interval", "five_knots"), ("interval", "clamped2"),
                          ("interval", "one_fixed"), ("interval", "adjacent_pair"),
                          ("circle", None))
    if (n, fixed) != (4, "five_knots")
])
def test_framed_factor_is_backward_stable(mid, domain, n, fixed, spec):
    # on a curved manifold solve(b) is E H^-1 E^T b for the projected flat
    # model H; the solve in the frame coordinates E^T b is exact for a
    # matrix within a few rounding units of H built from its definition
    curve = _curved_curve(mid, domain, n)
    free = np.arange(curve.n_samples) if fixed is None else \
        np.setdiff1d(np.arange(n + 1), _FREE_SETS[fixed](n))
    h, e = _dense_framed_model(spec, curve, free)
    b = np.zeros(curve.samples.shape)   # rows of every sample, zero on the fixed ones
    b[free] = np.random.default_rng(n).normal(size=(len(free), curve.manifold.ambient_dim))
    got = opt._flat_model_factor(spec, curve, free).solve(b)
    assert got.shape == b.shape
    assert not np.delete(got, free, axis=0).any()
    b, got = b[free], got[free]
    xi = np.einsum("jkm,jm->jk", e, b).ravel()
    z = np.einsum("jkm,jm->jk", e, got).ravel()
    backward = (np.max(np.abs(h @ z - xi))
                / (np.max(np.sum(np.abs(h), axis=1)) * np.max(np.abs(z)) + np.max(np.abs(xi))))
    assert backward <= 16 * np.finfo(float).eps
    # the result lies in the span of the frames: E E^T got = got
    assert np.max(np.abs(np.einsum("jk,jkm->jm", z.reshape(len(free), -1), e) - got)) \
        <= 16 * np.finfo(float).eps * np.max(np.abs(got))


def _framed_blocks_by_pairs(spec, curve, frame):
    """The framed model's blocks H(a, a + s) in blocks[s, a], from every
    (p, s) pair over its rows' span, each offset +-2 overlap formed afresh
    for each pair that reads it."""
    ns, k = curve.n_samples, frame.shape[1]
    ft = np.ascontiguousarray(frame.transpose(1, 2, 0))
    prods = sum(opt._row_products(spec, curve))
    step = opt._row_dots(ft, np.roll(ft, -1, axis=2))
    nearest = {1: step, -1: np.roll(step, 1, axis=2).swapaxes(0, 1)}
    acc = np.zeros((3, k, k, ns + 4))

    def overlap(p, rows):
        if p == 0:
            return None
        if abs(p) == 1:
            return nearest[p][:, :, rows]
        j = np.arange(rows.start, rows.stop) + p
        return opt._row_dots(ft[:, :, rows], ft.take(j, axis=2, mode="wrap"))

    for p in range(-2, 3):
        for s in range(min(3, 3 - p)):
            c = prods[p + 2, s]
            nz = np.flatnonzero(c)
            if nz.size == 0:
                continue
            rows = slice(nz[0], nz[-1] + 1)
            left, right = overlap(p, rows), overlap(p + s, rows)
            if left is None:
                block = np.eye(k)[:, :, None] if right is None else right
            else:
                left = left.swapaxes(0, 1)
                block = left if right is None else opt._row_dots(left, right.swapaxes(0, 1))
            acc[s, :, :, rows.start + p + 2:rows.stop + p + 2] += c[rows] * block
    acc[..., 2:4] += acc[..., ns + 2:]
    acc[..., ns:ns + 2] += acc[..., :2]
    return acc[..., 2:ns + 2].transpose(0, 3, 1, 2)


@pytest.mark.parametrize("spec", [
    FunctionalSpec.tension_cost(0.0), FunctionalSpec.tension_cost(1.5),
    FunctionalSpec.energy(1), FunctionalSpec.conditional(1),
], ids=["tension0", "tension1.5", "energy1", "conditional1"])
@pytest.mark.parametrize("mid,domain,n", [
    (mid, domain, n) for mid in ("sphere:2", "so3", "sphere:8")
    for domain in ("interval", "circle") for n in (4, 5, 7, 64)
])
def test_framed_blocks_are_bitwise_the_reference_pair_loop(mid, domain, n, spec):
    # the build keeps each offset +-2 overlap by its row span, so it must
    # give the bytes of forming it afresh; sphere:8 has 9 ambient
    # coordinates and 8 frame vectors, so its overlaps and blocks are sums
    # of 8 or more terms, which numpy adds in another order on one row than
    # on many
    curve = _curved_curve(mid, domain, n)
    frame = curve.manifold.tangent_frame(curve.samples)
    got = opt._model_blocks(spec, curve, frame)
    assert got.tobytes() == _framed_blocks_by_pairs(spec, curve, frame).tobytes()


def _count_factorizations(monkeypatch):
    """Count the splu calls of a solve, and the sparse matrix products made
    inside _flat_model_factor."""
    counts = {"splu": 0, "products": 0}
    inside = []
    splu, factor = spla.splu, opt._flat_model_factor

    def counting_splu(*args, **kwargs):
        counts["splu"] += 1
        return splu(*args, **kwargs)

    def marked_factor(*args):
        inside.append(True)
        try:
            return factor(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(opt.spla, "splu", counting_splu)
    monkeypatch.setattr(opt, "_flat_model_factor", marked_factor)
    for name in ("__matmul__", "__rmatmul__"):
        owner = next(c for c in sp.csr_matrix.__mro__ if name in vars(c))

        def counting(self, other, _product=vars(owner)[name]):
            counts["products"] += bool(inside)
            return _product(self, other)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_interval_solve_factors_without_splu_or_sparse_products(monkeypatch):
    spec, c, x0 = hermite_setup(200)
    _stencil_matrices(x0)   # the grid's stencils are built once, before counting
    counts = _count_factorizations(monkeypatch)
    rep = minimize(spec, c, x0)
    assert rep.verdict == "converged"
    assert counts == {"splu": 0, "products": 0}


def test_circle_solve_factors_by_one_splu(monkeypatch):
    m = make_manifold("torus:1")
    x0 = DiscreteCurve(m, "circle", m.canonicalize(
        (2 * np.pi * np.arange(64) / 64 + 0.3 * np.sin(4 * np.pi * np.arange(64) / 64))[:, None]))
    counts = _count_factorizations(monkeypatch)
    rep = minimize(FunctionalSpec.tension_cost(1.0), ConstraintSet.periodic(), x0,
                   SolveOptions(max_iters=5))
    assert rep.iterations > 0
    assert counts["splu"] == 1


class _ExactSO3(SO3):
    """SO(3) that runs the exact cut-locus test and forms c p^T c twice in
    dproj_quad: the reference that the screen and shortcut of SO3 must
    match bit for bit."""

    def may_reach_cut_locus(self, p, q):
        return True

    dproj_quad = Manifold.dproj_quad


def _so3_solve(m, kind, n=200):
    knots = SO3().random_point(np.random.default_rng(12), 5)
    c = ConstraintSet.interpolation(list(zip((0.0, 0.25, 0.5, 0.75, 1.0), knots)))
    if kind == "tension":
        spec = FunctionalSpec.tension_cost(0.0)
    else:
        field = PriorField(m, "so3_left_invariant", np.array([2.17, 0.18, -2.34]))
        spec = FunctionalSpec.conditional(2, field)
    return minimize(spec, c, seed(c, m, n))


@pytest.mark.parametrize("kind", ["tension", "conditional"])
def test_so3_solve_matches_exact_reference_bitwise(kind):
    got, want = _so3_solve(SO3(), kind), _so3_solve(_ExactSO3(), kind)
    assert want.iterations > 0
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.minimizer.samples.tobytes() == want.minimizer.samples.tobytes()


def test_exp_has_one_definition():
    # exp is canonicalize(exp_ambient(p, v)) in the base class only; an exp
    # of its own on a subclass would let the two drift apart
    subclasses = [c for c in vars(manifolds).values()
                  if isinstance(c, type) and issubclass(c, Manifold) and c is not Manifold]
    assert {c.__name__ for c in subclasses} >= {"Euclidean", "Sphere", "Torus", "SO3"}
    assert all("exp" not in vars(c) for c in subclasses)


def test_flat_geometry_has_one_definition():
    # the flat tangent projection, log and distance are written in the base
    # class only; Torus reaches its wrapped forms through relative_step
    flat = ("project_tangent", "log", "dist")
    assert [(c.__name__, name) for c in (manifolds.Euclidean, manifolds.Torus)
            for name in flat if name in vars(c)] == [("Torus", "log")]
