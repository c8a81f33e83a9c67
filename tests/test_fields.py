import re
from pathlib import Path

import numpy as np
import pytest

from varcurves import ConfigError, PriorField, field_from_config, make_manifold
from varcurves.fields import KINDS
from varcurves.manifolds import Manifold, row_cross

README = Path(__file__).resolve().parent.parent / "README.md"

# every kind on the manifolds it lives on: (manifold id, kind, params)
KIND_CASES = [
    ("sphere:2", "zero", None),
    ("sphere:2", "sphere_rotation", [0.3, -0.2, 0.9]),
    ("sphere:2", "constant_ambient", [1.0, 2.0, -0.5]),
    ("so3", "constant_ambient", [0.1, -0.4, 0.2, 0.7, 0.0, 1.5, -0.3, 0.6, 0.9]),
    ("torus:2", "torus_constant", [0.4, -1.1]),
    ("so3", "so3_left_invariant", [0.2, 0.5, -0.3]),
    ("so3", "zero", None),
    ("euclidean:3", "constant_ambient", [1.0, 0.0, 2.0]),
    ("torus:2", "constant_ambient", [0.4, -1.1]),
]


def test_zero_field():
    m = make_manifold("sphere:2")
    f = PriorField(m, "zero")
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
    assert PriorField(s, "zero").bound() == 0.0


# every KIND_CASES entry, the five this test first ran in front so their ids stay
_FIRST = (1, 2, 4, 5, 7)
BOUND_CASES = ([KIND_CASES[i] for i in _FIRST] +
               [case for i, case in enumerate(KIND_CASES) if i not in _FIRST])


@pytest.mark.parametrize("mid,kind,params", BOUND_CASES)
def test_eval_tangency_and_bound(mid, kind, params):
    # bound() is analytic; check it, unmodulated and with a modulation whose
    # largest |m| is a negative entry, on 10^4 random points at grid times
    m = make_manifold(mid)
    p = None if params is None else np.asarray(params, float)
    n, draws = 20, 10_000
    for mod in (None, np.linspace(-1.3, 0.7, n + 1)):
        f = PriorField(m, kind, p, mod)
        rng = np.random.default_rng(20260810)
        pts = m.random_point(rng, draws)
        t = np.zeros(draws) if mod is None else rng.integers(0, n + 1, size=draws) / n
        vals = f.eval_many(t, pts)
        proj = m.project_tangent(pts, vals)
        assert np.max(np.abs(proj - vals)) < 1e-12 * (1.0 + np.max(np.abs(vals)))
        b = f.bound()
        assert np.max(np.linalg.norm(vals, axis=-1)) <= b * (1.0 + 1e-12) + 1e-15


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


@pytest.mark.parametrize("cfg,key", [
    ({"kind": "sphere_rotation", "params": [0, 0, float("nan")]}, "params"),
    ({"kind": "constant_ambient", "params": [float("-inf"), 0, 0]}, "params"),
    ({"kind": "sphere_rotation", "params": [0, 0, 1],
      "modulation": [1.0, float("inf"), 0.5]}, "modulation"),
    ({"kind": "sphere_rotation", "params": [0, 0, 1],
      "modulation": [1.0, float("nan"), 0.5]}, "modulation"),
], ids=["nan-params", "inf-params", "inf-modulation", "nan-modulation"])
def test_non_finite_field_rejected(cfg, key):
    # the bound of such a field would be NaN or inf
    with pytest.raises(ConfigError, match=f"^field {key} must be finite$"):
        field_from_config(make_manifold("sphere:2"), cfg)


@pytest.mark.parametrize("modulation", [[], [0.5]], ids=["empty", "one-entry"])
def test_short_modulation_rejected(modulation):
    # one entry per grid time j/n needs n >= 1: bound() of an empty modulation
    # has no max, and a one-entry one would be read at every t
    m = make_manifold("sphere:2")
    with pytest.raises(ConfigError, match="^field modulation needs at least 2 entries$"):
        PriorField(m, "sphere_rotation", np.array([0.0, 0.0, 1.0]), np.array(modulation))


@pytest.mark.parametrize("modulated", [False, True])
def test_construction_draws_no_random_point(monkeypatch, modulated):
    # the bound is analytic; building a field samples nothing
    manifolds = {mid: make_manifold(mid) for mid, _, _ in KIND_CASES}

    def refuse(*args, **kwargs):
        raise AssertionError("field construction drew random numbers")

    for cls in (Manifold, *Manifold.__subclasses__()):
        monkeypatch.setattr(cls, "random_point", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for mid, kind, params in KIND_CASES:
        f = PriorField(manifolds[mid], kind, None if params is None else np.asarray(params, float),
                       np.linspace(-0.7, 1.3, 11) if modulated else None)
        assert f.bound() >= 0.0


def test_field_from_config():
    m = make_manifold("sphere:2")
    f = field_from_config(m, {"kind": "sphere_rotation", "params": [0, 0, 1]})
    assert f.kind == "sphere_rotation"
    with pytest.raises(ConfigError):
        field_from_config(m, {"params": [1, 2, 3]})
    with pytest.raises(ConfigError):
        field_from_config(m, {"kind": "mystery"})


@pytest.mark.parametrize("mid,kind,params", KIND_CASES)
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
    assert plain.bound() == ones.bound()


def _cross_matrix(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _written_out(m, kind, p, c, x):
    """(eval, grad_inner, grad_sq, bound) of an unmodulated field, kind by kind."""
    if kind == "constant_ambient":
        v = np.broadcast_to(p, x.shape)
        return (m.project_tangent(x, v), m.dproj_bilinear(x, c, v),
                m.dproj_bilinear(x, v, v), np.linalg.norm(p))
    if kind == "torus_constant":
        return (np.broadcast_to(p, x.shape).copy(), np.zeros_like(x), np.zeros_like(x),
                np.linalg.norm(p))
    if kind == "sphere_rotation":
        return (row_cross(p, x), -row_cross(p, c), -2.0 * row_cross(p, row_cross(p, x)),
                np.linalg.norm(p))
    omega = _cross_matrix(p)
    mats, cm = x.reshape(-1, 3, 3), c.reshape(-1, 3, 3)
    return ((mats @ omega).reshape(x.shape), (cm @ omega.T).reshape(x.shape),
            (2.0 * mats @ omega @ omega.T).reshape(x.shape), np.linalg.norm(omega))


@pytest.mark.parametrize("mid,kind,params", [case for case in KIND_CASES if case[2]])
def test_field_matches_written_out_formula(mid, kind, params):
    # one affine map for every kind: bit for bit the per-kind formulas, except
    # SO(3), where row crosses replace the products with [xi]_x
    m = make_manifold(mid)
    p = np.asarray(params, float)
    f = PriorField(m, kind, p)
    rng = np.random.default_rng(5)
    x = m.random_point(rng, 1001)
    c = rng.normal(size=x.shape)
    t = np.zeros(len(x))
    got = (f.eval_many(t, x), f.grad_inner(c, t, x), f.grad_sq(t, x), f.bound())
    want = _written_out(m, kind, p, c, x)
    for g, w in zip(got, want):
        if kind == "so3_left_invariant":
            assert np.max(np.abs(g - w)) <= 8 * np.finfo(float).eps * np.max(np.abs(w))
        else:
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("modulated", [False, True])
@pytest.mark.parametrize("mid,kind,params", KIND_CASES)
def test_field_gradients_match_finite_differences(mid, kind, params, modulated):
    # grad_inner and grad_sq against central differences of <c, A> and |A|^2
    # along geodesics x_j -> exp(x_j, +-eps h_j), h tangent
    m = make_manifold(mid)
    n = 40
    mod = 1.5 * np.cos(np.linspace(0.0, 3.0, n + 1)) if modulated else None
    f = PriorField(m, kind, None if params is None else np.asarray(params, float), mod)
    rng = np.random.default_rng(9)
    x = m.random_point(rng, n + 1)
    c = rng.normal(size=x.shape)
    h = m.project_tangent(x, rng.normal(size=x.shape))
    t = np.arange(n + 1) / n
    eps = 1e-5

    def fd(fn):
        return (fn(m.exp(x, eps * h)) - fn(m.exp(x, -eps * h))) / (2 * eps)

    for got, want in [
            (np.sum(f.grad_inner(c, t, x) * h), fd(lambda y: np.sum(c * f.eval_many(t, y)))),
            (np.sum(f.grad_sq(t, x) * h), fd(lambda y: np.sum(f.eval_many(t, y) ** 2)))]:
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


@pytest.mark.parametrize("mid,kind,params", KIND_CASES)
def test_modulated_field_config_round_trips(mid, kind, params):
    m = make_manifold(mid)
    n = 20
    f = PriorField(m, kind, None if params is None else np.asarray(params, float),
                   modulation=np.linspace(-0.7, 1.3, n + 1))
    cfg = f.to_config()
    assert cfg["modulation"] == list(f.modulation)
    g = field_from_config(m, cfg)
    x = m.random_point(np.random.default_rng(4), n + 1)
    t = np.arange(n + 1) / n
    assert g.eval_many(t, x).tobytes() == f.eval_many(t, x).tobytes()
    assert "modulation" not in PriorField(m, kind, f.params).to_config()


def test_readme_lists_every_field_kind():
    # the kind table of README's Functionals section is the compiled table
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| kind "):].split("\n\n")[0]
    assert re.findall(r"^\| `(\w+)` +\|", table, re.M) == list(KINDS)
