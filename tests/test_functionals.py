import numpy as np
import pytest

from varcurves import (ConstraintSet, DiscreteCurve, FunctionalSpec, PriorField,
                       TangentField, el_residual, evaluate, geodesic, gradient, hermite_cubic,
                       make_manifold, quadrature_length, seed)
from varcurves.checks import _random_curve, _random_direction, _specs_for, fd_directional_error
from varcurves.manifolds import row_dot
from varcurves.optimize import _flat_model_factor

ALL_IDS = ["euclidean:2", "sphere:2", "torus:2", "so3"]
WINDING = {"euclidean:2": None, "torus:1": [1], "torus:2": [1, 0], "sphere:2": 1, "so3": 1}


def closed_curve(m, rng, n=16):
    """Smooth closed curve: a periodic seed of winding 1, bent by two modes."""
    x = seed(ConstraintSet.periodic(), m, n, "circle", WINDING[m.name]).samples
    t = np.arange(n) / n
    bumps = (np.sin(2 * np.pi * t)[:, None] * rng.normal(size=m.ambient_dim)
             + np.cos(4 * np.pi * t)[:, None] * rng.normal(size=m.ambient_dim))
    return DiscreteCurve(m, "circle", m.exp(x, m.project_tangent(x, 0.05 * bumps)))


def all_but_ends(curve):
    return np.arange(1, curve.n_samples - 1) if curve.domain == "interval" \
        else np.arange(curve.n_samples)


def constant_curve(mid="sphere:2", n=20):
    m = make_manifold(mid)
    p = m.random_point(np.random.default_rng(0), 1)[0]
    return DiscreteCurve(m, "interval", np.tile(p, (n + 1, 1)))


# -- evaluate ---------------------------------------------------------------------

@pytest.mark.parametrize("spec", [FunctionalSpec.tension_cost(0.0),
                                  FunctionalSpec.tension_cost(2.0),
                                  FunctionalSpec.conditional(1),
                                  FunctionalSpec.conditional(2),
                                  FunctionalSpec.energy(1),
                                  FunctionalSpec.energy(2)])
def test_constant_curve_evaluates_to_zero(spec):
    assert evaluate(spec, constant_curve()) == 0.0


def test_geodesic_tension_value():
    m = make_manifold("sphere:2")
    c = geodesic(m, [1, 0, 0], [0, 1, 0]).sample(100)
    tau = 1.3
    val = evaluate(FunctionalSpec.tension_cost(tau), c)
    target = 0.5 * tau**2 * (np.pi / 2) ** 2
    assert abs(val - target) / target < 0.02


def test_euclidean_cubic_conditional_value():
    cf = hermite_cubic(0.0, 0.0, 1.0, 0.0)
    c = cf.sample(200)
    val = evaluate(FunctionalSpec.conditional(2), c)
    assert abs(val - 6.0) / 6.0 < 0.01


def test_evaluate_nonnegative_random():
    rng = np.random.default_rng(1)
    for mid in ALL_IDS:
        x = _random_curve(make_manifold(mid), rng)
        for spec in (FunctionalSpec.tension_cost(0.7), FunctionalSpec.energy(2),
                     FunctionalSpec.conditional(1)):
            assert evaluate(spec, x) >= 0.0


# -- structural identities -----------------------------------------------------------

def test_reduction_identity_bitwise():
    # conditional(2), with or without an explicit zero field, and tension(0)
    # compile to one term: evaluate, gradient and the preconditioner agree
    # byte for byte
    rng = np.random.default_rng(2)
    b = FunctionalSpec.tension_cost(0.0)
    for mid in ALL_IDS:
        m = make_manifold(mid)
        specs = (FunctionalSpec.conditional(2), FunctionalSpec.conditional(2, PriorField(m, "zero")))
        assert specs[0].terms == specs[1].terms == b.terms
        for a, x in zip(specs * 5, [_random_curve(m, rng) for _ in range(5)] +
                        [closed_curve(m, rng) for _ in range(5)]):
            free = all_but_ends(x)
            assert np.float64(evaluate(a, x)).tobytes() == np.float64(evaluate(b, x)).tobytes()
            assert gradient(a, x, free).tobytes() == gradient(b, x, free).tobytes()
            rhs = np.zeros(x.samples.shape)   # the solve takes every row, zero on fixed ones
            rhs[free] = rng.normal(size=(len(free), m.ambient_dim))
            got = _flat_model_factor(a, x, free).solve(rhs)
            assert got.tobytes() == _flat_model_factor(b, x, free).solve(rhs).tobytes()
            assert not np.delete(got, free, axis=0).any()


def test_tension_monotone_in_tau():
    rng = np.random.default_rng(3)
    x = _random_curve(make_manifold("sphere:2"), rng)
    values = [evaluate(FunctionalSpec.tension_cost(t), x) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_tension_dominates_velocity_norm_and_length():
    rng = np.random.default_rng(4)
    for mid in ALL_IDS:
        x = _random_curve(make_manifold(mid), rng)
        tau = 0.8
        val = evaluate(FunctionalSpec.tension_cost(tau), x)
        v = x.derivative(1)[1]
        vnorm2 = np.sum(x.stencil(1).weights * row_dot(v, v))
        ql = quadrature_length(x)
        assert val >= 0.5 * tau**2 * vnorm2 - 1e-12
        assert 0.5 * tau**2 * vnorm2 >= 0.5 * tau**2 * ql**2 - 1e-12


def test_zero_tension_admits_long_cheap_curves():
    # wrapped geodesics: unbounded length at vanishing bending energy
    m = make_manifold("sphere:2")
    spec = FunctionalSpec.tension_cost(0.0)
    from varcurves import length
    lengths, values = [], []
    for w in (1, 2, 3):
        c = geodesic(m, [1, 0, 0], [0, 1, 0], winding=w).sample(400)
        lengths.append(length(c))
        values.append(evaluate(spec, c))
    assert all(v <= 1e-10 for v in values)
    assert lengths[2] - lengths[0] > 4 * np.pi - 1e-9


# -- gradient --------------------------------------------------------------------------

def test_gradient_zero_at_constant_curve():
    x = constant_curve()
    free = np.arange(1, x.n_samples - 1)
    for spec in (FunctionalSpec.tension_cost(1.0), FunctionalSpec.conditional(2)):
        assert np.allclose(gradient(spec, x, free), 0.0, atol=1e-14)


def test_gradient_masked_indices_are_zero():
    rng = np.random.default_rng(5)
    x = _random_curve(make_manifold("sphere:2"), rng)
    free = np.arange(2, x.n_samples - 2)
    g = gradient(FunctionalSpec.tension_cost(0.5), x, free)
    assert np.all(g[[0, 1, -2, -1]] == 0.0)
    assert np.any(g[2:-2] != 0.0)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_gradient_is_a_tangent_array(mid):
    # gradient returns its array unwrapped; the array passes the tangency
    # check of TangentField, and wrapping it keeps its bytes
    x = _random_curve(make_manifold(mid), np.random.default_rng(6))
    free = all_but_ends(x)
    for spec in _specs_for(x.manifold):
        g = gradient(spec, x, free)
        assert type(g) is np.ndarray and g.shape == x.samples.shape
        off = x.manifold.project_tangent(x.samples, g) - g
        assert np.max(np.abs(off)) <= 1e-8 * (1.0 + np.max(np.abs(g)))
        assert TangentField(x, g).vectors.tobytes() == g.tobytes()


@pytest.mark.parametrize("mid", ["euclidean:2", "torus:1", "torus:2"])
def test_flat_gradient_skips_its_zero_curvature_term_bitwise(mid):
    # gradient adds 0.5 w dproj_quad only where the manifold is curved; on a
    # flat manifold that term is +0.0, and adding it changes no byte
    m = make_manifold(mid)
    assert not m.curved
    forced = type("Curved" + type(m).__name__, (type(m),), {"curved": True})(m.dim)
    rng = np.random.default_rng(8)
    curves = [_random_curve(m, rng), _random_curve(m, rng, 200), constant_curve(mid)]
    if mid != "euclidean:2":
        curves.append(closed_curve(m, rng, 40))
    for x in curves:
        y = DiscreteCurve(forced, x.domain, x.samples)
        free = all_but_ends(x)
        for spec in _specs_for(m):
            assert gradient(spec, x, free).tobytes() == gradient(spec, y, free).tobytes()


@pytest.mark.parametrize("mid", ALL_IDS)
def test_gradient_matches_directional_derivative(mid):
    m = make_manifold(mid)
    spec_list = [FunctionalSpec.tension_cost(0.9), FunctionalSpec.energy(2),
                 FunctionalSpec.conditional(1)]
    for s_i, spec in enumerate(spec_list):
        rng = np.random.default_rng(100 + s_i)
        x = _random_curve(m, rng)
        free = np.arange(1, x.n_samples - 1)
        eta = _random_direction(x, free, rng)
        assert fd_directional_error(spec, x, free, eta) <= 1e-5


@pytest.mark.parametrize("n", [16, 200])
@pytest.mark.parametrize("mid", ["torus:1", "torus:2", "sphere:2", "so3"])
def test_gradient_matches_directional_derivative_on_closed_curves(mid, n):
    # the circle's adjoint rows wrap around; every sample is free
    m = make_manifold(mid)
    for i, spec in enumerate(_specs_for(m)):
        rng = np.random.default_rng(1000 * n + i)
        x = closed_curve(m, rng, n)
        free = all_but_ends(x)
        eta = _random_direction(x, free, rng)
        assert fd_directional_error(spec, x, free, eta) <= 1e-5


@pytest.mark.parametrize("mid", ["sphere:2", "so3"])
def test_gradient_matches_directional_derivative_at_n1000(mid):
    m = make_manifold(mid)
    for i, spec in enumerate(_specs_for(m)):
        rng = np.random.default_rng(500 + i)
        x = _random_curve(m, rng, 1000)
        free = all_but_ends(x)
        eta = _random_direction(x, free, rng)
        assert fd_directional_error(spec, x, free, eta) <= 1e-5


def test_gradient_vanishes_at_direct_discrete_solution():
    """Independent oracle: assemble and solve the sparse optimality system of the
    flat clamped problem with dense numpy, then check the gradient there."""
    n = 60
    m = make_manifold("euclidean:1")
    # second-difference rows j=1..n-1 and the interior quadrature weights
    A2 = np.zeros((n - 1, n + 1))
    for j in range(1, n):
        A2[j - 1, [j - 1, j, j + 1]] = [n * n, -2.0 * n * n, n * n]
    wa = np.full(n - 1, 1.0 / n)
    wa[0] = wa[-1] = 2.0 / n
    wa[1] = wa[-2] = 0.5 / n
    H = A2.T @ np.diag(wa) @ A2
    fixed = [0, 1, n - 1, n]
    vals = [0.0, 0.0, 1.0, 1.0]
    freeidx = np.setdiff1d(np.arange(n + 1), fixed)
    x = np.zeros(n + 1)
    x[fixed] = vals
    rhs = -H[np.ix_(freeidx, fixed)] @ np.array(vals)
    x[freeidx] = np.linalg.solve(H[np.ix_(freeidx, freeidx)], rhs)

    curve = DiscreteCurve(m, "interval", x[:, None])
    g = gradient(FunctionalSpec.tension_cost(0.0), curve, freeidx)
    assert np.max(np.abs(g)) < 1e-8


# -- el_residual ------------------------------------------------------------------------

def test_el_residual_constant_curve():
    x = constant_curve()
    free = np.arange(1, x.n_samples - 1)
    assert el_residual(FunctionalSpec.conditional(2), x, free) == 0.0


def test_el_residual_wrapped_geodesic():
    m = make_manifold("sphere:2")
    c = geodesic(m, [1, 0, 0], [0, 1, 0], winding=1).sample(200)
    constraint = ConstraintSet.clamped([1, 0, 0], [0, 1, 0])
    from varcurves import free_mask
    free = free_mask(constraint, 200)
    r = el_residual(FunctionalSpec.tension_cost(0.0), c, free)
    assert r <= 5e-3


def test_field_manifold_mismatch_raises():
    from varcurves import UsageError
    m2 = make_manifold("euclidean:2")
    fld = PriorField(m2, "constant_ambient", np.array([1.0, 0.0]))
    spec = FunctionalSpec.conditional(1, fld)
    x = constant_curve("sphere:2")
    with pytest.raises(UsageError):
        evaluate(spec, x)


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_modulation_must_fit_the_curve_grid(domain):
    from varcurves import UsageError
    m = make_manifold("sphere:2")
    mod = np.linspace(0.5, 1.0, 21)   # grid_n = 20
    spec = FunctionalSpec.conditional(2, PriorField(m, "sphere_rotation",
                                                    np.array([0.0, 0.0, 1.0]), mod))
    free = np.arange(1, 5)
    make = closed_curve if domain == "circle" else _random_curve
    for n in (20, 10, 40):
        x = make(m, np.random.default_rng(n), n)
        if n == 20:
            assert evaluate(spec, x) > 0
            gradient(spec, x, free)
        else:
            for call in (lambda: evaluate(spec, x), lambda: gradient(spec, x, free)):
                with pytest.raises(UsageError, match="modulation"):
                    call()


def test_field_config_is_written_back_whole():
    m = make_manifold("sphere:2")
    rot = {"kind": "sphere_rotation", "params": [0.0, 0.0, 1.0]}
    assert FunctionalSpec.from_config({"kind": "conditional", "k": 2, "field": rot},
                                      m).to_config()["field"] == rot
    modulated = dict(rot, modulation=[0.5, 1.0, -0.25])
    assert FunctionalSpec.from_config({"kind": "conditional", "k": 1, "field": modulated},
                                      m).to_config()["field"] == modulated
    for spec in (FunctionalSpec.conditional(2), FunctionalSpec.conditional(2, PriorField(m, "zero"))):
        assert spec.field is None
        assert spec.to_config() == {"kind": "conditional", "k": 2, "field": {"kind": "zero"}}
        assert spec.describe() == "conditional(k=2, field=zero)"
