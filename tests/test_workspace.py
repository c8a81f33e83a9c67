"""The model build's per-thread workspace, its plan and the gradient memo.

A build keeps its working arrays in its thread's workspace
(optimize._Workspace).  These tests check that no factor holds a view into
it, that later builds leave an earlier factor as it was, that threads
building at once get the bytes of a serial build, and that a warm build
stays small.  They also pin the forms the workspace build replaced: the
einsum overlaps against the broadcast-and-sum form, the curvature's row
spans against the full-length form, a refused rebuild's fallback against a
second whole build, and the ambient gradient memo against a recomputed
gradient.
"""

import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import varcurves.functionals as functionals
import varcurves.optimize as opt

from varcurves import (ConstraintSet, DiscreteCurve, FunctionalSpec, SolveOptions, make_manifold,
                       minimize, seed)
from varcurves.constraints import free_mask
from varcurves.curves import stencil_operators
from varcurves.errors import FactorizationError
from varcurves.fields import PriorField
from varcurves.functionals import ambient_gradient, gradient
from varcurves.manifolds import Manifold

KNOT_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
_CASES = Path(__file__).resolve().parent.parent / "perfbench" / "cases.json"


def _pool_iterate(workload, case=0, n=1000):
    """(spec, curve, free) at the first accepted iterate of a benchmark
    pool case, where a solve makes its first exact build."""
    entry = json.loads(_CASES.read_text(encoding="utf-8"))[workload][case]
    m = make_manifold(entry["manifold"])
    c = ConstraintSet.interpolation(list(zip(KNOT_TIMES, entry["knots"])))
    spec = FunctionalSpec.from_config(entry["functional"], m)
    x = minimize(spec, c, seed(c, m, n), SolveOptions(max_iters=1)).minimizer
    return spec, x, free_mask(c, n)


def _bent(mid, domain, n, s=0):
    """Five random knots' seed (interval) or a closed loop of winding hint
    1 (circle), bent off its critical point, with its free samples."""
    m = make_manifold(mid)
    rng = np.random.default_rng(s)
    if domain == "interval":
        c = ConstraintSet.interpolation(list(zip(KNOT_TIMES, m.random_point(rng, 5))))
        x = seed(c, m, n).samples
        free = free_mask(c, n)
    else:
        x = seed(ConstraintSet.periodic(), m, n, "circle", 1).samples
        free = np.arange(n)
    bump = np.sin(2 * np.pi * np.arange(len(x)) / n)[:, None] * rng.normal(size=m.ambient_dim)
    v = m.project_tangent(x, 0.2 * bump + 0.01 * rng.normal(size=x.shape))
    return DiscreteCurve(m, domain, m.exp(x, v)), free


def _rhs(curve, free, s=0):
    b = np.zeros(curve.samples.shape)
    b[free] = np.random.default_rng(s).normal(size=(len(free), curve.samples.shape[1]))
    return b


def _kept(factor):
    """The arrays a factor keeps."""
    inner = getattr(factor, "_factor", factor)
    out = [getattr(inner, "_c", None), getattr(factor, "_frame", None)]
    return [a for a in out if a is not None]


def _workspace_arrays():
    return [a for ws in opt._WORKSPACE.shapes.values() for a in ws.values()]


def _captured_bands(monkeypatch, spec, curve, free):
    """The band storage of the Gauss-Newton and the exact build, as
    factorized."""
    bands = []

    class Copied(opt._BandedCholesky):
        def __init__(self, ab):
            bands.append(ab.copy())
            super().__init__(ab)

    with monkeypatch.context() as mp:
        mp.setattr(opt, "_BandedCholesky", Copied)
        for exact in (False, True):
            opt._flat_model_factor(spec, curve, free, exact)
    return bands


def _broadcast_row_dots(u, v, out=None):
    """The form _row_dots replaced: the broadcast (k, k2, m, n) product,
    summed over m."""
    got = (u[:, None] * v[None]).sum(axis=2)
    if out is None:
        return got
    out[...] = got
    return out


@pytest.mark.parametrize("workload", ["sphere-solve", "so3-solve"])
def test_einsum_overlaps_give_the_broadcast_bands(monkeypatch, workload):
    # the first pool case at its first iterate, N = 1000: both bands
    spec, x, free = _pool_iterate(workload)
    want = _captured_bands(monkeypatch, spec, x, free)
    monkeypatch.setattr(opt, "_row_dots", _broadcast_row_dots)
    got = _captured_bands(monkeypatch, spec, x, free)
    assert len(got) == len(want) == 2
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _full_length_curvature(acc, spec, curve, ft):
    """The curvature as it was added before the row spans: every offset
    over every row, each product with the frames np.roll'ed."""
    m, t = curve.manifold, curve.times
    ns = curve.n_samples
    xt = np.ascontiguousarray(curve.samples.T)
    diag = acc[0, :, :, 2:ns + 2]
    diag += m.weingarten(xt, np.ascontiguousarray(functionals._ambient_gradient(spec, curve).T))
    z = [None] * 5
    for term in spec.terms:
        cw = term.coef * curve.stencil(term.order).weights
        f = term.field
        off = None if f is None else f.offset(t)
        u = curve.derivative(term.order)[0]
        u = np.ascontiguousarray((u if off is None else u - off).T)
        y, node = m.proj_derivatives(xt, ft, u)
        jac = None if f is None else f.jacobian(t)
        if jac is not None:
            sj = jac[0] @ ft
            if jac[1] is not None:
                sj *= jac[1]
            y -= sj
            node += np.einsum("rmj,smj->rsj", sj, sj)
        diag += cw * node
        for p, dp in zip(range(-2, 3), curve.stencil(term.order).diagonals[:5]):
            alpha = cw * dp
            if alpha.any():
                z[p + 2] = alpha * y if z[p + 2] is None else z[p + 2] + alpha * y
    for p in range(-2, 3):
        if z[p + 2] is None:
            continue
        blk = np.einsum("rmj,smj->rsj", np.roll(ft, -p, axis=2), z[p + 2])
        if p < 0:
            acc[-p, :, :, p + 2:p + 2 + ns] += blk
        elif p > 0:
            acc[p, :, :, 2:ns + 2] += blk.swapaxes(0, 1)
        else:
            diag += blk + blk.swapaxes(0, 1)


def _curvature_specs():
    s2, so3 = make_manifold("sphere:2"), make_manifold("so3")
    axis, mod = np.array([0.3, -0.5, 1.2]), 1.0 + 0.5 * np.sin(3.0 * np.arange(1001) / 1000)
    return [
        ("sphere:2", FunctionalSpec.tension_cost(0.7)),
        ("sphere:2", FunctionalSpec.energy(1)),
        ("sphere:2", FunctionalSpec.energy(2)),
        ("sphere:2", FunctionalSpec.conditional(1, PriorField(s2, "sphere_rotation", axis, mod))),
        ("sphere:2", FunctionalSpec.conditional(2, PriorField(s2, "constant_ambient", axis))),
        ("so3", FunctionalSpec.tension_cost(0.7)),
        ("so3", FunctionalSpec.conditional(1, PriorField(so3, "so3_left_invariant", axis, mod))),
    ]


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("mid,spec", _curvature_specs(),
                         ids=lambda v: v if isinstance(v, str) else v.describe())
def test_curvature_row_spans_give_the_full_length_bytes(mid, spec, domain):
    # the offsets +-2 come from order-1 terms and live in the interval's
    # end rows only; restricting every offset to its nonzero rows, and the
    # frames' shift to slices, must add the bytes of the full-length form
    curve, _ = _bent(mid, domain, 1000)
    frame = curve.manifold.tangent_frame(curve.samples)
    got = opt._model_blocks(spec, curve, frame, exact=True, fallback=True).copy()
    name = opt._store_name(domain) + " gauss-newton"
    store = opt._WORKSPACE.arrays(curve.n_samples, frame)[name].copy()
    acc = opt._accumulator(store, frame.shape[0], domain)
    _full_length_curvature(acc, spec, curve, frame)
    assert got.tobytes() == opt._fold(acc, domain).tobytes()


def _closed_loop(mid, n=64):
    """The bent closed loop of test_closed_curved_loops_converge."""
    m = make_manifold(mid)
    x = seed(ConstraintSet.periodic(), m, n, "circle", 1).samples
    t = np.arange(n)[:, None] / n
    rng = np.random.default_rng(64)
    bumps = (np.sin(2 * np.pi * t) * rng.normal(size=m.ambient_dim)
             + np.cos(4 * np.pi * t) * rng.normal(size=m.ambient_dim))
    return DiscreteCurve(m, "circle", m.exp(x, m.project_tangent(x, 0.2 * bumps)))


def test_a_refused_rebuild_falls_back_on_its_own_frame_and_blocks(monkeypatch):
    # the tension(0.5) loop on S^2 refuses most exact rebuilds (its rigid
    # rotations are null modes); each build takes one frame, the solve's
    # first build the one assembly of the row products, and the solve has
    # the bytes of one that builds the fallback afresh
    problem = FunctionalSpec.tension_cost(0.5), ConstraintSet.periodic(), _closed_loop("sphere:2")
    m = problem[2].manifold
    factor, frame, assemble = opt._flat_model_factor, type(m).tangent_frame, opt._row_products
    builds = []

    def counted(spec, curve, free, exact=False, fallback=False, memo=None):
        builds.append({"frames": 0, "assemblies": 0, "fallback": fallback})
        out = factor(spec, curve, free, exact, fallback, memo)
        builds[-1]["exact"] = out.exact
        return out

    def framed(self, p):
        if builds:
            builds[-1]["frames"] += 1
        return frame(self, p)

    def assembled(spec, curve):
        builds[-1]["assemblies"] += 1
        return assemble(spec, curve)

    with monkeypatch.context() as mp:
        mp.setattr(opt, "_flat_model_factor", counted)
        mp.setattr(type(m), "tangent_frame", framed)
        mp.setattr(opt, "_row_products", assembled)
        rep = minimize(*problem)
    assert rep.verdict == "converged"
    assert all(b["frames"] == 1 for b in builds)
    assert [b["assemblies"] for b in builds] == [1] + [0] * (len(builds) - 1)
    refused = [b for b in builds if b["fallback"] and not b["exact"]]
    assert len(refused) >= 10

    def two_builds(spec, curve, free, exact=False, fallback=False, memo=None):
        try:
            return factor(spec, curve, free, exact)
        except FactorizationError:
            if not fallback:
                raise
            return factor(spec, curve, free)

    monkeypatch.setattr(opt, "_flat_model_factor", two_builds)
    ref = minimize(*problem)
    assert rep.to_dict() == ref.to_dict()
    assert rep.minimizer.samples.tobytes() == ref.minimizer.samples.tobytes()


def _later_builds():
    """Builds of every kind after the first: the same grid, another N,
    another manifold, the circle, and a flat manifold."""
    out = [_bent("sphere:2", "interval", 1000, s=5), _bent("sphere:2", "interval", 200),
           _bent("so3", "interval", 1000), _bent("sphere:2", "circle", 64),
           _bent("so3", "circle", 64)]
    m = make_manifold("torus:1")
    x = m.canonicalize(np.linspace(0.0, 2.0, 1001)[:, None] + 0.1 * np.sin(np.arange(1001))[:, None])
    return out + [(DiscreteCurve(m, "interval", x), np.arange(1, 1000))]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("first", ["sphere-solve", "so3-solve", "closed loop"])
def test_later_builds_leave_a_factor_as_it_was(first, exact):
    # the first build is at the first iterate of a pool case, or on a bent
    # closed loop, whose exact model is refused (rigid rotations are its
    # null modes) for the Gauss-Newton model of the same build
    if first == "closed loop":
        spec, (curve, free) = FunctionalSpec.tension_cost(0.7), _bent("sphere:2", "circle", 64)
    else:
        spec, curve, free = _pool_iterate(first)
    b = _rhs(curve, free)
    factor = opt._flat_model_factor(spec, curve, free, exact, fallback=True)
    assert factor.exact == (exact and first != "closed loop")
    want = factor.solve(b).tobytes()
    for later, later_free in _later_builds():
        for later_exact in (False, True):
            opt._flat_model_factor(spec, later, later_free, later_exact, fallback=True)
            assert factor.solve(b).tobytes() == want
    kept = _kept(factor)
    assert kept
    assert not any(np.shares_memory(a, w) for a in kept for w in _workspace_arrays())


def test_threads_building_at_once_get_the_serial_bytes():
    spec = FunctionalSpec.tension_cost(0.7)
    jobs = []
    for mid, domain, n in [("sphere:2", "interval", 1000), ("so3", "interval", 1000),
                           ("sphere:2", "interval", 200), ("sphere:2", "circle", 64)]:
        curve, free = _bent(mid, domain, n)
        for exact in (False, True):
            jobs.append((curve, free, exact, _rhs(curve, free)))

    def run(order):
        return {i: opt._flat_model_factor(spec, c, f, e, fallback=True).solve(b).tobytes()
                for i in order for c, f, e, b in [jobs[i]]}

    serial = run(range(len(jobs)))
    # more threads than the two cores of a small runner, switching often
    n_threads = 4
    orders = [list(range(len(jobs)))[t:] + list(range(len(jobs)))[:t] for t in range(n_threads)]
    got, shapes = [None] * n_threads, [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def work(t):
        barrier.wait()
        got[t] = run(orders[t] * 2)
        shapes[t] = opt._WORKSPACE.shapes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [serial] * n_threads
    assert len({id(s) for s in shapes + [opt._WORKSPACE.shapes]}) == n_threads + 1


def test_workspace_keeps_the_shapes_used_last():
    m = make_manifold("euclidean:1")
    spec = FunctionalSpec.tension_cost(1.0)
    sizes = range(20, 20 + opt.WORKSPACE_SHAPES + 3)
    for n in sizes:
        curve = DiscreteCurve(m, "interval", np.linspace(0.0, 1.0, n + 1)[:, None])
        opt._flat_model_factor(spec, curve, np.arange(1, n))
    assert list(opt._WORKSPACE.shapes)[-opt.WORKSPACE_SHAPES:] == [
        (n + 1, 1, 1) for n in sizes[-opt.WORKSPACE_SHAPES:]]
    assert len(opt._WORKSPACE.shapes) == opt.WORKSPACE_SHAPES


# An exact SO(3) build at N = 1000 on a warm workspace and gradient memo:
# its transient (peak above what it leaves allocated) measured 0.77 MB on
# pool case 0 and 0.81 MB on case 1 with numpy 2.4, against 1.95 and
# 2.17 MB before the workspace
TRANSIENT_BOUND = 1_000_000


@pytest.mark.parametrize("case", [0, 1])
def test_warm_exact_build_stays_small(case):
    spec, x, free = _pool_iterate("so3-solve", case)
    gradient(spec, x, free)   # as a solve does before it builds
    for _ in range(2):
        opt._flat_model_factor(spec, x, free, exact=True)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        factor = opt._flat_model_factor(spec, x, free, exact=True)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.exact
    assert peak - now < TRANSIENT_BOUND


def _noise_iterate():
    """A two-knot S^2 arc (the long way round, tau = 1, N = 1000) at the
    iterate that a noise-phase search accepted, with its spec and free
    samples."""
    c = ConstraintSet.interpolation([(0.0, [1.0, 0.0, 0.0]),
                                     (1.0, [np.cos(1.0), np.sin(1.0), 0.0])])
    spec = FunctionalSpec.tension_cost(1.0)
    x0 = seed(c, make_manifold("sphere:2"), 1000, hint=-1)
    rep = minimize(spec, c, x0)
    it = next(h.iteration for h in rep.history if h.search == "noise")
    x = minimize(spec, c, x0, SolveOptions(max_iters=it)).minimizer
    return spec, DiscreteCurve(x.manifold, x.domain, x.samples), free_mask(c, 1000)


def test_exact_band_reads_the_memoized_gradient_bitwise(monkeypatch):
    spec, x, free = _noise_iterate()
    fresh = DiscreteCurve(x.manifold, x.domain, x.samples)
    gradient(spec, x, free)   # the solve's gradient at the iterate, memoized
    calls = []
    compute = functionals._ambient_gradient
    monkeypatch.setattr(functionals, "_ambient_gradient",
                        lambda spec, curve: calls.append(curve) or compute(spec, curve))
    memoized = _captured_bands(monkeypatch, spec, x, free)
    assert calls == []
    recomputed = _captured_bands(monkeypatch, spec, fresh, free)
    assert calls == [fresh]
    assert [a.tobytes() for a in memoized] == [a.tobytes() for a in recomputed]


def test_gradient_memo_is_read_for_its_own_spec_only():
    curve, free = _bent("sphere:2", "interval", 200)
    # an equal spec that is another object, then another spec
    specs = [FunctionalSpec.tension_cost(0.7), FunctionalSpec.tension_cost(0.7),
             FunctionalSpec.energy(1)]

    def fresh(spec):
        return ambient_gradient(spec, DiscreteCurve(curve.manifold, curve.domain, curve.samples))

    first = gradient(specs[0], curve, free)
    held = ambient_gradient(specs[0], curve)
    assert ambient_gradient(specs[0], curve) is held
    with pytest.raises(ValueError):
        held[0, 0] = 0.0
    for spec in specs[1:] + specs[:1]:   # each takes the slot from the one before
        got = ambient_gradient(spec, curve)
        assert got is not held
        assert got.tobytes() == fresh(spec).tobytes()
        held = got
    assert gradient(specs[0], curve, free).tobytes() == first.tobytes()
    assert gradient(specs[2], curve, free).tobytes() != first.tobytes()
    curve.clear_memo()
    assert "_spec_memo" not in vars(curve)


# -- the model plan (optimize._stencil_matrices) --------------------------------


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("mid", ["sphere:2", "so3"])
def test_cold_and_warm_plans_build_the_same_bytes(mid, domain):
    curve, free = _bent(mid, domain, 200 if domain == "interval" else 64)
    spec, b = FunctionalSpec.tension_cost(0.7), _rhs(curve, free)
    frame = curve.manifold.tangent_frame(curve.samples)

    def built():
        out = []
        for exact in (False, True):
            out.append(opt._model_blocks(spec, curve, frame, exact).tobytes())
            out.append(opt._flat_model_factor(spec, curve, free, exact, fallback=True)
                       .solve(b).tobytes())
        return out

    stencil_operators.cache_clear()   # the grid's stencils and plans
    cold = built()
    plans = stencil_operators(curve.grid_n, domain).derived
    assert list(plans) == [("model plan", (2, 1))]
    assert built() == cold
    assert stencil_operators(curve.grid_n, domain).derived is plans


def test_plan_arrays_are_read_only():
    curve, _ = _bent("sphere:2", "interval", 200)
    plan = opt._stencil_matrices(curve, (2, 1))
    assert plan.far   # the interval's end rows read offsets +-2
    for a in list(plan.diagonals) + [idx for _, idx in plan.far]:
        with pytest.raises(ValueError):
            a[0] = 0


def test_specs_with_the_same_orders_share_one_plan():
    curve, _ = _bent("sphere:2", "interval", 200)
    other, _ = _bent("so3", "interval", 200)

    def plan(spec, c):
        return opt._stencil_matrices(c, tuple(t.order for t in spec.terms))

    shared = plan(FunctionalSpec.tension_cost(0.7), curve)
    assert plan(FunctionalSpec.tension_cost(3.0), other) is shared
    assert plan(FunctionalSpec.energy(2), curve) is shared   # orders (2, 1) again
    assert plan(FunctionalSpec.energy(1), curve) is not shared
    longer, _ = _bent("sphere:2", "interval", 400)
    assert plan(FunctionalSpec.tension_cost(0.7), longer) is not shared


@pytest.mark.parametrize("opts", [SolveOptions(max_iters=1), SolveOptions(grad_tol=1e3)],
                         ids=["max_iters", "grad_tol"])
def test_a_solve_that_ends_at_its_first_iterate_builds_once(monkeypatch, opts):
    # the exact model of iterate 1 would never be used: one Gauss-Newton build
    entry = json.loads(_CASES.read_text(encoding="utf-8"))["sphere-solve"][0]
    m = make_manifold(entry["manifold"])
    c = ConstraintSet.interpolation(list(zip(KNOT_TIMES, entry["knots"])))
    spec = FunctionalSpec.from_config(entry["functional"], m)
    x0 = seed(c, m, 1000)
    builds = []
    factor = opt._flat_model_factor

    def counted(spec, curve, free, exact=False, fallback=False, memo=None):
        builds.append(exact)
        return factor(spec, curve, free, exact, fallback, memo)

    monkeypatch.setattr(opt, "_flat_model_factor", counted)
    rep = minimize(spec, c, x0, opts)
    assert rep.iterations == 1
    assert builds == [False]
