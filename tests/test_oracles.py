from dataclasses import replace

import numpy as np
import pytest

from varcurves import (ConfigError, CutLocusError, FunctionalSpec, conditional_line,
                       evaluate, geodesic, hermite_cubic, make_manifold, tension_1d,
                       tension_value)
from varcurves.errors import UsageError
from varcurves.manifolds import Manifold

T = np.linspace(0.0, 1.0, 101)


# -- hermite_cubic -----------------------------------------------------------------

def test_hermite_basic_example():
    cf = hermite_cubic(0.0, 0.0, 1.0, 0.0)
    assert np.max(np.abs(cf.point(T)[:, 0] - (3 * T**2 - 2 * T**3))) < 1e-12


def test_hermite_line_case():
    cf = hermite_cubic(0.0, 1.0, 1.0, 1.0)
    assert np.max(np.abs(cf.point(T)[:, 0] - T)) < 1e-12


def test_hermite_constant_case():
    cf = hermite_cubic([2.0, -1.0], [0.0, 0.0], [2.0, -1.0], [0.0, 0.0])
    assert np.max(np.abs(cf.point(T) - np.array([2.0, -1.0]))) < 1e-12


def test_hermite_boundary_data_exact():
    rng = np.random.default_rng(0)
    p, v, q, w = rng.normal(size=(4, 3))
    cf = hermite_cubic(p, v, q, w)
    assert np.allclose(cf.point(np.array(0.0)), p, atol=1e-10)
    assert np.allclose(cf.velocity(np.array(0.0)), v, atol=1e-10)
    assert np.allclose(cf.point(np.array(1.0)), q, atol=1e-10)
    assert np.allclose(cf.velocity(np.array(1.0)), w, atol=1e-10)


# -- tension_1d ---------------------------------------------------------------------

def test_tension_position_only_is_line():
    for tau in (0.5, 2.0, 10.0):
        cf = tension_1d([0.0], [1.0], tau, "position_only")
        assert np.max(np.abs(cf.point(T)[:, 0] - T)) < 1e-9
        assert np.max(np.abs(cf.accel(np.array([0.0, 1.0])))) < 1e-9


def test_tension_clamped_matches_boundary_data():
    cf = tension_1d([0.2], [0.9], 3.0, "clamped", [0.4], [-0.1])
    assert cf.point(np.array(0.0))[0] == pytest.approx(0.2, abs=1e-10)
    assert cf.velocity(np.array(0.0))[0] == pytest.approx(0.4, abs=1e-10)
    assert cf.point(np.array(1.0))[0] == pytest.approx(0.9, abs=1e-10)
    assert cf.velocity(np.array(1.0))[0] == pytest.approx(-0.1, abs=1e-10)


def test_tension_satisfies_its_ode():
    # x'''' = tau^2 x'': in the basis used, accel(t) already encodes the cosh/sinh
    # part, so check x'''' - tau^2 x'' = 0 via exact second derivative of accel
    tau = 1.7
    cf = tension_1d([0.0], [1.0], tau, "clamped", [0.0], [0.0])
    h = 1e-4
    for t in (0.25, 0.5, 0.75):
        t = np.array(t)
        fourth = (cf.accel(t + h) - 2 * cf.accel(t) + cf.accel(t - h)) / h**2
        assert abs(fourth[0] - tau**2 * cf.accel(t)[0]) < 1e-4


def test_tension_small_tau_converges_to_hermite():
    small = tension_1d([0.0], [1.0], 1e-3, "clamped", [0.0], [0.0])
    herm = hermite_cubic(0.0, 0.0, 1.0, 0.0)
    assert np.max(np.abs(small.point(T) - herm.point(T))) < 1e-4


def test_tension_zero_boundary_data_is_zero():
    cf = tension_1d([0.0], [0.0], 2.0, "clamped", [0.0], [0.0])
    assert np.max(np.abs(cf.point(T))) < 1e-12


def test_tension_requires_positive_tau():
    with pytest.raises(ConfigError):
        tension_1d([0.0], [1.0], 0.0, "clamped", [0.0], [0.0])


@pytest.mark.parametrize("v,w", [(None, [0.0]), ([0.0], None)])
def test_clamped_tension_needs_end_velocities(v, w):
    with pytest.raises(ConfigError, match="end velocities"):
        tension_1d([0.0], [1.0], 2.0, "clamped", v, w)


def test_tension_refuses_an_unknown_bc_kind():
    with pytest.raises(ConfigError, match="bc_kind"):
        tension_1d([0.0], [1.0], 2.0, "periodic", [0.0], [0.0])


def test_tension_refuses_a_singular_system():
    # tau^2 underflows to 0, so the natural conditions' two rows are zero
    with pytest.raises(ConfigError, match="singular"):
        tension_1d([0.0], [1.0], 1e-200, "position_only")


# -- conditional_line ------------------------------------------------------------------

def test_conditional_line_examples():
    _, val = conditional_line([0.0, 0.0], [2.0, 1.0], [1.0, 0.0])
    assert val == pytest.approx(1.0, abs=1e-14)
    _, val = conditional_line([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    assert val == 0.0
    _, val = conditional_line([0.0, 0.0], [2.0, 1.0], [0.0, 0.0])
    assert val == pytest.approx(0.5 * 5.0, abs=1e-14)


# -- geodesic ----------------------------------------------------------------------------

def test_geodesic_euclidean_line():
    m = make_manifold("euclidean:2")
    cf = geodesic(m, [0.0, 0.0], [2.0, 1.0])
    assert np.allclose(cf.point(T), np.outer(T, [2.0, 1.0]), atol=1e-12)


def test_geodesic_sphere_winding_speed():
    m = make_manifold("sphere:2")
    cf = geodesic(m, [1, 0, 0], [0, 1, 0], winding=1)
    assert cf.speed == pytest.approx(np.pi / 2 + 2 * np.pi)


def test_geodesic_circle_negative_winding():
    m = make_manifold("torus:1")
    cf = geodesic(m, [0.0], [np.pi / 2], winding=-1)
    target = ((np.pi / 2 - 2 * np.pi) * T) % (2 * np.pi)
    assert np.allclose(cf.point(T)[:, 0], target, atol=1e-12)


def test_geodesic_antipodal_needs_plane():
    m = make_manifold("sphere:2")
    with pytest.raises(CutLocusError):
        geodesic(m, [1, 0, 0], [-1, 0, 0])
    cf = geodesic(m, [1, 0, 0], [-1, 0, 0], plane=[0, 1, 0])
    assert cf.speed == pytest.approx(np.pi)


def test_geodesic_refuses_a_radial_plane():
    m = make_manifold("sphere:2")
    with pytest.raises(ConfigError, match="radial"):
        geodesic(m, [1, 0, 0], [-1, 0, 0], plane=[2.0, 0, 0])


def test_geodesic_refuses_a_winding_on_euclidean_space():
    with pytest.raises(ConfigError, match="winding"):
        geodesic(make_manifold("euclidean:2"), [0.0, 0.0], [1.0, 0.0], winding=1)


def test_geodesic_refuses_an_unsupported_manifold():
    class Plane(Manifold):   # the base class's flat geometry, none of the four kinds
        name, ambient_dim = "plane", 2

    with pytest.raises(UsageError, match="plane"):
        geodesic(Plane(), [0.0, 0.0], [1.0, 0.0])


def test_geodesic_so3_zero_accel():
    m = make_manifold("so3")
    rng = np.random.default_rng(1)
    p, q = m.random_point(rng, 2)
    c = geodesic(m, p, q).sample(100)
    a = c.derivative(2)[1]
    assert np.max(np.linalg.norm(a, axis=1)) < 1e-6


def _rot(axis, angle):
    """Rotation by angle about a coordinate axis, as a 3x3 matrix."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i] = r[j, j] = c
    r[i, j], r[j, i] = -s, s
    return r


_S2_P = np.array([1.0, 0.0, 0.0])
_S2_Q = np.array([0.2, 0.9, 0.4]) / np.linalg.norm([0.2, 0.9, 0.4])
_SO3_P = (_rot(2, 0.4) @ _rot(0, 0.3)).reshape(9)
_SO3_Q = (_rot(1, 1.1) @ _rot(2, -0.7)).reshape(9)

# every family and branch of the closed-form oracles: the manifold id, or
# "line" for conditional_line, and the arguments from p and q on; the loops
# have q = p
ORACLE_CASES = {
    "euclidean:2": ("euclidean:2", ([0.3, -1.0], [2.0, 1.5])),
    "torus:2-w0": ("torus:2", ([0.5, 6.0], [2.0, 0.7])),
    "torus:2-w1": ("torus:2", ([0.5, 6.0], [2.0, 0.7], 1)),
    "torus:2-loop": ("torus:2", ([0.5, 6.0], [0.5, 6.0], [1, 0])),
    "sphere:2-w0": ("sphere:2", (_S2_P, _S2_Q)),
    "sphere:2-w1": ("sphere:2", (_S2_P, _S2_Q, 1)),
    "sphere:2-constant": ("sphere:2", (_S2_P, _S2_P)),
    "sphere:2-loop": ("sphere:2", (_S2_P, _S2_P, 1, [0.0, 0.3, 1.0])),
    "so3-w0": ("so3", (_SO3_P, _SO3_Q)),
    "so3-w1": ("so3", (_SO3_P, _SO3_Q, 1)),
    "so3-loop": ("so3", (_SO3_P, _SO3_P, 1)),
    "conditional_line": ("line", ([0.3, -1.0], [2.0, 1.5], [1.0, 0.0])),
}


def _oracle(case):
    mid, args = ORACLE_CASES[case]
    if mid == "line":
        return conditional_line(*args)[0]
    return geodesic(make_manifold(mid), *args)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_velocity_is_the_derivative_of_point(case):
    cf = _oracle(case)
    m, t, h = cf.manifold, np.linspace(0.05, 0.95, 19), 1e-5
    fd = m.relative_step(cf.point(t - h), cf.point(t + h)) / (2 * h)
    assert np.max(np.abs(fd - cf.velocity(t))) <= 1e-6


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_speed_and_acceleration(case):
    # geodesics and lines have zero acceleration and constant speed, so
    # tension_value's shortcut through speed is its quadrature of the closures
    cf = _oracle(case)
    v, a = cf.velocity(T), cf.accel(T)
    assert a.shape == v.shape and not np.any(a)
    assert np.allclose(np.linalg.norm(v, axis=-1), cf.speed, rtol=1e-12, atol=0.0)
    if cf.kind == "geodesic":
        quadrature = tension_value(replace(cf, kind="closures"), 2.0)
        assert tension_value(cf, 2.0) == pytest.approx(quadrature, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_endpoints(case):
    cf = _oracle(case)
    m = cf.manifold
    p, q = (m.canonicalize(np.asarray(x, float)) for x in ORACLE_CASES[case][1][:2])
    ends = cf.point(np.array([0.0, 1.0]))
    assert m.dist(ends[0], p) <= 1e-12
    assert m.dist(ends[1], q) <= 1e-12


def test_geodesic_at_one_point_needs_its_loop_data():
    sphere, so3 = make_manifold("sphere:2"), make_manifold("so3")
    with pytest.raises(CutLocusError, match="plane"):
        geodesic(sphere, _S2_P, _S2_P, winding=1)
    with pytest.raises(ConfigError, match="p = q"):
        geodesic(so3, _SO3_P, _SO3_P)
    # a loop of SO(3) turns about the body z axis
    cf = geodesic(so3, _SO3_P, _SO3_P, winding=1)
    body = _SO3_P.reshape(3, 3).T @ cf.velocity(np.array([0.0]))[0].reshape(3, 3)
    assert np.allclose(body, 2 * np.pi * np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
                       atol=1e-12)


# -- discrete consistency -----------------------------------------------------------------

@pytest.mark.parametrize("tau", [1.0, 5.0])
def test_discrete_consistency_tension(tau):
    cf = tension_1d([0.0], [1.0], tau, "clamped", [0.0], [0.0])
    disc = evaluate(FunctionalSpec.tension_cost(tau), cf.sample(200))
    val = tension_value(cf, tau)
    assert abs(disc - val) / val < 0.02


def test_discrete_consistency_refinement():
    # wrapped geodesic: the discrete speed quadrature has genuine O(N^-2) error
    m = make_manifold("sphere:2")
    cf = geodesic(m, [1, 0, 0], [0, 1, 0], winding=1)
    val = tension_value(cf, 1.0)
    errs = [abs(evaluate(FunctionalSpec.tension_cost(1.0), cf.sample(n)) - val) / val
            for n in (50, 100, 200)]
    assert errs[-1] < 0.02
    order = -np.polyfit(np.log([50, 100, 200]), np.log(np.maximum(errs, 1e-16)), 1)[0]
    assert order >= 1.8
