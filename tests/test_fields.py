import numpy as np
import pytest

from varcurves import ConfigError, PriorField, field_from_config, make_manifold, zero_field


def test_zero_field():
    m = make_manifold("sphere:2")
    f = zero_field(m)
    pts = m.random_point(np.random.default_rng(0), 5)
    assert np.all(f.eval_many(np.zeros(5), pts) == 0.0)
    assert f.bound() == 0.0


def test_sphere_rotation_example():
    m = make_manifold("sphere:2")
    f = PriorField(m, "sphere_rotation", np.array([0.0, 0.0, 1.0]))
    v = f.eval_many(np.array([0.0]), np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(v, [[0.0, 1.0, 0.0]], atol=1e-14)


def test_constant_ambient_radial_projects_to_zero():
    m = make_manifold("sphere:2")
    f = PriorField(m, "constant_ambient", np.array([1.0, 0.0, 0.0]))
    v = f.eval_many(np.array([0.0]), np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(v, 0.0, atol=1e-14)


def test_bound_examples():
    s = make_manifold("sphere:2")
    assert PriorField(s, "sphere_rotation", np.array([0, 0, 2.0])).bound() == pytest.approx(2.0)
    t2 = make_manifold("torus:2")
    assert PriorField(t2, "torus_constant", np.array([1.0, 1.0])).bound() == pytest.approx(np.sqrt(2))
    assert zero_field(s).bound() == 0.0


@pytest.mark.parametrize("mid,kind,params", [
    ("sphere:2", "sphere_rotation", [0.3, -0.2, 0.9]),
    ("sphere:2", "constant_ambient", [1.0, 2.0, -0.5]),
    ("torus:2", "torus_constant", [0.4, -1.1]),
    ("so3", "so3_left_invariant", [0.2, 0.5, -0.3]),
    ("euclidean:3", "constant_ambient", [1.0, 0.0, 2.0]),
])
def test_eval_tangency_and_bound(mid, kind, params):
    m = make_manifold(mid)
    f = PriorField(m, kind, np.asarray(params, float))
    rng = np.random.default_rng(7)
    pts = m.random_point(rng, 200)
    vals = f.eval_many(np.zeros(200), pts)
    proj = m.project_tangent(pts, vals)
    assert np.max(np.abs(proj - vals)) < 1e-12 * (1.0 + np.max(np.abs(vals)))
    assert np.max(np.linalg.norm(vals, axis=-1)) <= f.bound() + 1e-12


def test_modulated_field_scales_bound():
    m = make_manifold("sphere:2")
    mod = 0.5 * (1 + np.sin(np.linspace(0, np.pi, 11)))
    f = PriorField(m, "sphere_rotation", np.array([0.0, 0.0, 1.0]), modulation=mod)
    assert f.bound() == pytest.approx(np.max(mod))
    t = np.array([0.0, 0.5, 1.0])
    pts = np.tile([1.0, 0.0, 0.0], (3, 1))
    vals = f.eval_many(t, pts)
    assert np.allclose(np.linalg.norm(vals, axis=1), mod[[0, 5, 10]], atol=1e-12)


def test_kind_manifold_mismatch_rejected():
    with pytest.raises(ConfigError):
        PriorField(make_manifold("euclidean:2"), "sphere_rotation", np.array([0, 0, 1.0]))
    with pytest.raises(ConfigError):
        PriorField(make_manifold("sphere:2"), "torus_constant", np.array([1.0, 0, 0]))


def test_typed_eval_returns_tangent_vector():
    from varcurves import ManifoldPoint
    m = make_manifold("sphere:2")
    f = PriorField(m, "sphere_rotation", np.array([0.0, 0.0, 1.0]))
    p = ManifoldPoint(m, [1.0, 0.0, 0.0])
    v = f.eval(0.0, p)
    assert v.base is p
    assert np.allclose(v.components, [0.0, 1.0, 0.0], atol=1e-14)


def test_field_from_config():
    m = make_manifold("sphere:2")
    f = field_from_config(m, {"kind": "sphere_rotation", "params": [0, 0, 1]})
    assert f.kind == "sphere_rotation"
    with pytest.raises(ConfigError):
        field_from_config(m, {"params": [1, 2, 3]})
    with pytest.raises(ConfigError):
        field_from_config(m, {"kind": "mystery"})


@pytest.mark.parametrize("mid,kind,params", [
    ("sphere:2", "zero", None),
    ("sphere:2", "sphere_rotation", [0.3, -0.2, 0.9]),
    ("sphere:2", "constant_ambient", [1.0, 2.0, -0.5]),
    ("so3", "constant_ambient", [0.1, -0.4, 0.2, 0.7, 0.0, 1.5, -0.3, 0.6, 0.9]),
    ("torus:2", "torus_constant", [0.4, -1.1]),
    ("so3", "so3_left_invariant", [0.2, 0.5, -0.3]),
])
def test_unmodulated_field_equals_unit_modulation_bitwise(mid, kind, params):
    # an unmodulated field skips the multiplication by ones: 1.0 * v == v
    m = make_manifold(mid)
    p = None if params is None else np.asarray(params, float)
    n = 30
    plain = PriorField(m, kind, p)
    ones = PriorField(m, kind, p, modulation=np.ones(n + 1))
    rng = np.random.default_rng(12)
    pts = m.random_point(rng, n + 1)
    c = rng.normal(size=pts.shape)
    t = np.arange(n + 1) / n
    for a, b in [(plain.eval_many(t, pts), ones.eval_many(t, pts)),
                 (plain.grad_inner(c, t, pts), ones.grad_inner(c, t, pts)),
                 (plain.grad_sq(t, pts), ones.grad_sq(t, pts))]:
        assert a.shape == b.shape == pts.shape
        assert a.tobytes() == b.tobytes()
