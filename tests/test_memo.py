"""The per-curve memo of derived arrays: shared, read-only, invisible in results."""

import json

import numpy as np
import pytest

from varcurves import (ConstraintSet, DiscreteCurve, FunctionalSpec, SolveOptions,
                       evaluate, gradient, length, make_manifold, minimize,
                       quadrature_length, seed)
from varcurves.checks import _random_curve
from varcurves.curves import _MEMO, STENCILS, node_weights, stencil_operators

MANIFOLDS = ("euclidean:2", "sphere:2", "torus:2", "so3")
CASES = [(mid, domain) for mid in MANIFOLDS for domain in ("interval", "circle")]
ORDERS = sorted(STENCILS)
SPECS = (FunctionalSpec.tension_cost(1.5), FunctionalSpec.conditional(1),
         FunctionalSpec.energy(2))


def make_curve(mid, domain, n=16):
    m = make_manifold(mid)
    rng = np.random.default_rng(11)
    if domain == "interval":
        return _random_curve(m, rng, n)
    hint = None if mid.startswith("euclidean") else [1, 0] if mid.startswith("torus") else 1
    x = seed(ConstraintSet.periodic(), m, n, "circle", hint).samples
    pert = m.project_tangent(x, 0.05 * rng.normal(size=x.shape))
    return DiscreteCurve(m, "circle", m.exp(x, pert))


def free_of(curve):
    return np.arange(1, curve.n_samples - 1) if curve.domain == "interval" \
        else np.arange(curve.n_samples)


def results(curve):
    """Every memo-reading entry point, as exact bytes."""
    free = free_of(curve)
    out = [np.float64(evaluate(s, curve)).tobytes() for s in SPECS]
    out += [gradient(s, curve, free).tobytes() for s in SPECS]
    out += [curve.derivative(1)[1].tobytes(), curve.derivative(2)[1].tobytes(),
            np.float64(length(curve)).tobytes(),
            np.float64(quadrature_length(curve)).tobytes()]
    return out


def memo_arrays(curve):
    """The forward steps, the segment distances and every order's derivative."""
    return [curve.steps, curve.step_dists] + [a for k in ORDERS for a in curve.derivative(k)]


@pytest.mark.parametrize("mid,domain", CASES)
def test_filled_memo_gives_bitwise_fresh_results(mid, domain):
    warm = make_curve(mid, domain)
    first = results(warm)
    for k in ORDERS:
        assert warm.derivative(k) is warm.derivative(k)   # memoized, not rebuilt
    fresh = DiscreteCurve(warm.manifold, warm.domain, warm.samples)
    assert results(warm) == first == results(fresh)


@pytest.mark.parametrize("mid,domain", CASES)
def test_memo_arrays_are_read_only(mid, domain):
    curve = make_curve(mid, domain)
    for a in memo_arrays(curve):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("mid,domain", CASES)
def test_with_samples_never_shares_the_memo(mid, domain):
    src = make_curve(mid, domain)
    before = memo_arrays(src)
    same = src.with_samples(src.samples)
    for a, b in zip(before, memo_arrays(same)):
        assert a is not b
        assert a.tobytes() == b.tobytes()
    for k in ORDERS:
        assert same.derivative(k) is not src.derivative(k)
    moved = src.manifold.exp(src.samples, src.manifold.project_tangent(
        src.samples, np.full(src.samples.shape, 1e-3)))
    other = src.with_samples(moved)
    fresh = DiscreteCurve(src.manifold, src.domain, moved)
    assert results(other) == results(fresh)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(memo_arrays(src), before))


@pytest.mark.parametrize("mid,domain", [("sphere:2", "interval"), ("so3", "interval"),
                                        ("torus:1", "circle"), ("sphere:2", "circle")])
def test_prewarmed_seed_gives_byte_identical_solve(mid, domain):
    m = make_manifold(mid)
    n = 32
    if domain == "circle":
        c = ConstraintSet.periodic()
        hint = [1] if mid.startswith("torus") else 1
        base = seed(c, m, n, "circle", hint).samples
        rng = np.random.default_rng(5)
        base = m.exp(base, m.project_tangent(base, 0.1 * rng.normal(size=base.shape)))
    else:
        pts = m.random_point(np.random.default_rng(3), 3)
        c = ConstraintSet.interpolation(list(zip((0.0, 0.5, 1.0), pts)))
        base = seed(c, m, n).samples
    spec, opts = FunctionalSpec.tension_cost(1.0), SolveOptions(max_iters=30)
    warm = DiscreteCurve(m, domain, base)
    results(warm)
    cold = DiscreteCurve(m, domain, base)
    rw = minimize(spec, c, warm, opts)
    rc = minimize(spec, c, cold, opts)
    assert rw.iterations > 0
    assert json.dumps(rw.to_dict(), sort_keys=True) == json.dumps(rc.to_dict(), sort_keys=True)
    assert rw.minimizer.samples.tobytes() == rc.minimizer.samples.tobytes()
    # the report does not carry the minimizer's derived arrays
    assert not any(name in vars(rw.minimizer) for name in _MEMO)


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_stencil_operators_are_shared_and_read_only(domain):
    ops = stencil_operators(16, domain)
    assert ops is stencil_operators(16, domain)
    for stencil in ops:
        assert (stencil.adjoint != stencil.matrix.T).nnz == 0
        for mat in (stencil.steps_to_nodes, stencil.matrix, stencil.adjoint):
            for arr in (mat.data, mat.indices, mat.indptr):
                with pytest.raises(ValueError):
                    arr[0] = 0
        with pytest.raises(ValueError):
            stencil.diagonals[2, 0] = 0
    # so are the quadrature weights, one array per order and grid
    a, b = make_curve("sphere:2", domain), make_curve("so3", domain)
    for k in ORDERS:
        assert a.stencil(k).weights is b.stencil(k).weights
        with pytest.raises(ValueError):
            a.stencil(k).weights[0] = 0
    assert node_weights(a) is a.stencil(1).weights


def _fresh_weights(n, domain):
    """The quadrature weights built afresh, as they were before the cache."""
    ns = n + 1 if domain == "interval" else n
    node, interior = np.full(ns, 1.0 / n), np.full(ns, 1.0 / n)
    if domain == "interval":
        node[0] = node[-1] = 0.5 / n
        interior[0] = interior[-1] = 0.0
        interior[1] = interior[-2] = 2.0 / n
        if ns >= 7:
            interior[2] = interior[-3] = 0.5 / n
        else:
            interior[1] = interior[-2] = 1.5 / n
    return node, interior


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 16, 1000])
def test_cached_weights_bit_identical_to_fresh_build(domain, n):
    curve = DiscreteCurve(make_manifold("euclidean:1"), domain,
                          np.zeros((n + 1 if domain == "interval" else n, 1)))
    node, interior = _fresh_weights(n, domain)
    assert node_weights(curve).tobytes() == node.tobytes()
    assert curve.stencil(1).weights.tobytes() == node.tobytes()
    assert curve.stencil(2).weights.tobytes() == interior.tobytes()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mid,domain", CASES)
def test_derivative_bitwise_equal_to_fresh_build(mid, domain, order):
    curve = make_curve(mid, domain)
    results(curve)   # fills the memo through the functionals
    raw, tangent = curve.derivative(order)
    fresh = DiscreteCurve(curve.manifold, curve.domain, curve.samples)
    want = curve.stencil(order).steps_to_nodes @ fresh.steps
    assert raw.tobytes() == want.tobytes()
    assert tangent.tobytes() == curve.manifold.project_tangent(fresh.samples, want).tobytes()
    assert [a.tobytes() for a in fresh.derivative(order)] == [raw.tobytes(), tangent.tobytes()]


@pytest.mark.parametrize("mid,domain", CASES)
def test_clear_memo_drops_every_order(mid, domain):
    curve = make_curve(mid, domain)
    before = {k: curve.derivative(k) for k in ORDERS}
    curve.clear_memo()
    assert not any(name in vars(curve) for name in _MEMO)
    for k in ORDERS:
        again = curve.derivative(k)
        assert again is not before[k]
        assert [a.tobytes() for a in again] == [a.tobytes() for a in before[k]]


def _memo_keys(curve):
    """The memoized arrays a curve holds: by name, and its derivative orders."""
    return (sorted(name for name in _MEMO if name in vars(curve)),
            sorted(vars(curve).get("_derivatives", {})))


@pytest.mark.parametrize("mid", ["sphere:2", "so3", "torus:1"])
def test_solve_leaves_the_callers_start_its_memo(mid):
    # minimize solves from the caller's own seed (impose returns it), and
    # leaves it the derived arrays it had: none, or those the caller made
    m = make_manifold(mid)
    pts = m.random_point(np.random.default_rng(8), 3)
    c = ConstraintSet.interpolation(list(zip((0.0, 0.5, 1.0), pts)))
    spec, opts = FunctionalSpec.tension_cost(1.0), SolveOptions(max_iters=5)
    x0 = seed(c, m, 40)
    start = _memo_keys(x0)   # the torus validates its steps, the others nothing
    assert start == ((["steps"], []) if mid.startswith("torus") else ([], []))
    rep = minimize(spec, c, x0, opts)
    assert rep.iterations > 0
    assert _memo_keys(x0) == start
    steps, v = x0.steps, x0.derivative(1)
    before = _memo_keys(x0)
    assert before == (["_derivatives", "steps"], [1])
    again = minimize(spec, c, x0, opts)
    assert _memo_keys(x0) == before
    assert x0.steps is steps and x0.derivative(1) is v
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(rep.to_dict(), sort_keys=True)
    # a solve that takes no step reports the start itself, with the memo it came with
    still = minimize(spec, c, x0, SolveOptions(max_iters=0))
    assert still.minimizer is x0 and _memo_keys(x0) == before


@pytest.mark.parametrize("mid,domain,n", [("sphere:2", "interval", 200), ("so3", "interval", 120),
                                          ("torus:1", "interval", 200), ("torus:1", "circle", 64)])
def test_cold_and_warm_grid_caches_give_byte_identical_solves(mid, domain, n):
    # the stencils and their diagonals are cached per grid; a solve that
    # builds them gives the bytes of one that finds them built
    m = make_manifold(mid)
    if domain == "circle":
        c, hint = ConstraintSet.periodic(), [1]
    else:
        pts = m.random_point(np.random.default_rng(6), 5)
        c, hint = ConstraintSet.interpolation(list(zip((0.0, 0.25, 0.5, 0.75, 1.0), pts))), None
    spec, opts = FunctionalSpec.tension_cost(0.8), SolveOptions(max_iters=40)
    x0 = seed(c, m, n, domain, hint)
    if domain == "circle":
        x0 = x0.with_samples(m.exp(x0.samples, m.project_tangent(
            x0.samples, 0.2 * np.sin(np.arange(n) * 4 * np.pi / n)[:, None])))
    reports = []
    for cold in (True, False):
        if cold:
            stencil_operators.cache_clear()   # the stencils and their diagonals
        rep = minimize(spec, c, x0, opts)
        reports.append((json.dumps(rep.to_dict(), sort_keys=True), rep.minimizer.samples.tobytes()))
        assert rep.iterations > 0
    assert reports[0] == reports[1]
