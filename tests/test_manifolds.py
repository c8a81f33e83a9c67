import numpy as np
import pytest

from varcurves import ConfigError, CutLocusError, make_manifold
from varcurves.config import parse_config
from varcurves.constraints import ON_MANIFOLD_TOL
from varcurves.manifolds import POLAR_STEP_TOL, row_cross, row_dot, row_norm

ALL_IDS = ["euclidean:2", "sphere:2", "torus:2", "so3"]


def mk(mid):
    return make_manifold(mid)


def random_tangent(m, rng, p, scale=1.0):
    v = m.project_tangent(p, rng.normal(size=m.ambient_dim))
    n = np.linalg.norm(v)
    return v / n * scale if n > 0 else v


# -- inner product ------------------------------------------------------------
# the metric is the ambient dot product of tangent vectors

def test_inner_euclidean_orthogonal():
    m = mk("euclidean:2")
    p = np.array([0.0, 0.0])
    u = m.project_tangent(p, [1.0, 0.0])
    v = m.project_tangent(p, [0.0, 1.0])
    assert np.dot(u, v) == 0.0


def test_inner_sphere_ambient_dot():
    m = mk("sphere:2")
    u = m.project_tangent(np.array([1.0, 0.0, 0.0]), [0.0, 2.0, 0.0])
    assert np.dot(u, u) == pytest.approx(4.0, abs=1e-14)


def test_inner_so3_unit_axis_skew():
    m = mk("so3")
    omega = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    u = m.project_tangent(np.eye(3).reshape(9), omega.reshape(9))
    assert np.dot(u, u) == pytest.approx(2.0, abs=1e-14)


# -- exp / log ---------------------------------------------------------------

@pytest.mark.parametrize("mid", ALL_IDS)
def test_exp_zero_vector(mid):
    m = mk(mid)
    rng = np.random.default_rng(3)
    p = m.random_point(rng, 1)[0]
    q = m.exp(p, np.zeros(m.ambient_dim))
    assert np.allclose(q, p, atol=1e-14)


def test_exp_sphere_quarter_circle():
    m = mk("sphere:2")
    q = m.exp(np.array([1.0, 0.0, 0.0]), np.array([0.0, np.pi / 2, 0.0]))
    assert np.allclose(q, [0.0, 1.0, 0.0], atol=1e-14)


def test_exp_circle_mod_canonicalization():
    m = mk("torus:1")
    q = m.exp(np.array([0.0]), np.array([3 * np.pi]))
    assert q[0] == pytest.approx(np.pi, abs=1e-12)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_log_at_same_point(mid):
    m = mk(mid)
    p = m.random_point(np.random.default_rng(5), 1)[0]
    assert np.allclose(m.log(p, p), 0.0, atol=1e-12)


def test_log_sphere_inverts_exp_example():
    m = mk("sphere:2")
    v = m.log(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(v, [0.0, np.pi / 2, 0.0], atol=1e-12)


def test_log_sphere_antipode_is_cut_locus():
    m = mk("sphere:2")
    with pytest.raises(CutLocusError):
        m.log(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))


def test_log_torus_cut_locus():
    m = mk("torus:1")
    with pytest.raises(CutLocusError):
        m.log(np.array([0.0]), np.array([np.pi]))


def test_log_so3_half_turn_is_cut_locus():
    m = mk("so3")
    half_turn = np.diag([1.0, -1.0, -1.0]).reshape(9)
    with pytest.raises(CutLocusError):
        m.log(np.eye(3).reshape(9), half_turn)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_exp_dist_consistency(mid):
    m = mk(mid)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = m.random_point(rng, 1)[0]
        r = rng.uniform(0.05, 0.9) * min(m.injectivity_radius, 3.0)
        v = random_tangent(m, rng, p, r)
        assert m.dist(m.exp(p, v), p) == pytest.approx(np.linalg.norm(v), abs=1e-10)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_log_exp_roundtrip(mid):
    m = mk(mid)
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = m.random_point(rng, 1)[0]
        r = rng.uniform(0.05, 0.9) * min(m.injectivity_radius, 5.0)
        v = random_tangent(m, rng, p, r)
        assert np.allclose(m.log(p, m.exp(p, v)), v, atol=1e-8)


# -- project_tangent -----------------------------------------------------------

def test_project_tangent_sphere_removes_radial_part():
    m = mk("sphere:2")
    v = m.project_tangent(np.array([1.0, 0.0, 0.0]), np.array([5.0, 1.0, 0.0]))
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-14)


def test_project_tangent_euclidean_identity():
    m = mk("euclidean:2")
    v = m.project_tangent(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.array_equal(v, [3.0, 4.0])


@pytest.mark.parametrize("mid", ALL_IDS)
def test_projection_idempotent_and_self_adjoint(mid):
    m = mk(mid)
    rng = np.random.default_rng(15)
    p = m.random_point(rng, 1)[0]
    for _ in range(10):
        a = rng.normal(size=m.ambient_dim)
        b = rng.normal(size=m.ambient_dim)
        pa = m.project_tangent(p, a)
        assert np.allclose(m.project_tangent(p, pa), pa, atol=1e-12)
        # self-adjointness: <Pa, b> == <a, Pb>
        assert np.dot(pa, b) == pytest.approx(np.dot(a, m.project_tangent(p, b)), abs=1e-10)


@pytest.mark.parametrize("mid", ["sphere:1", "sphere:2", "sphere:3", "so3"])
def test_tangent_frame_is_orthonormal_and_tangent(mid):
    # E^T E = I and P_x E = E to rounding, also at the coordinate axes and
    # their negatives, where the Householder pivot changes sign
    m = mk(mid)
    rng = np.random.default_rng(17)
    p = m.random_point(rng, 200)
    if mid.startswith("sphere"):
        p = np.vstack([p, np.eye(m.ambient_dim), -np.eye(m.ambient_dim)])
    e = m.tangent_frame(p)
    assert e.shape == (len(p), m.dim, m.ambient_dim)
    eps = np.finfo(float).eps
    assert np.max(np.abs(e @ e.swapaxes(1, 2) - np.eye(m.dim))) <= 16 * eps
    assert np.max(np.abs(m.project_tangent(p[:, None], e) - e)) <= 16 * eps


@pytest.mark.parametrize("mid", ["euclidean:2", "torus:2"])
def test_flat_manifolds_have_no_tangent_frame(mid):
    m = mk(mid)
    assert m.tangent_frame(m.random_point(np.random.default_rng(18), 5)) is None


@pytest.mark.parametrize("mid", ["sphere:1"] + ALL_IDS)
def test_dproj_quad_is_dproj_bilinear_bitwise(mid):
    m = mk(mid)
    rng = np.random.default_rng(16)
    p = m.random_point(rng, 50)
    c = rng.normal(size=p.shape)
    assert m.dproj_quad(p, c).tobytes() == m.dproj_bilinear(p, c, c.copy()).tobytes()


def _so3_dproj_quad_formula(p, c):
    """SO3.dproj_quad written out: -0.5 (h + h), h = c p^T c."""
    pm = p.reshape(p.shape[:-1] + (3, 3))
    cm = c.reshape(pm.shape)
    h = cm @ np.swapaxes(pm, -1, -2) @ cm
    return (-0.5 * (h + h)).reshape(c.shape)


def test_so3_dproj_quad_matches_written_out_form_bitwise():
    m = mk("so3")
    rng = np.random.default_rng(29)
    p = m.random_point(rng, 300)
    c = rng.normal(size=p.shape) * 10.0 ** rng.uniform(-8, 8, size=p.shape)
    p[5, 4] = np.nan
    c[9, 2] = np.nan
    c[11] = -0.0
    p = np.concatenate([p, -p])   # the second half are reflections
    c = np.concatenate([c, c[::-1]])
    want = _so3_dproj_quad_formula(p, c)
    assert np.isnan(want[5]).all() and np.isnan(want[9]).any()
    assert m.dproj_quad(p, c).tobytes() == want.tobytes()
    for i in (0, 5, 9, 11, 300, 305, 599):
        assert m.dproj_quad(p[i], c[i]).tobytes() == want[i].tobytes()


# -- dist ----------------------------------------------------------------------

def test_dist_examples():
    s = mk("sphere:2")
    assert s.dist(np.array([1.0, 0, 0]), np.array([0.0, 1, 0])) == pytest.approx(np.pi / 2)
    c = mk("torus:1")
    assert c.dist(np.array([0.0]), np.array([3 * np.pi / 2])) == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_dist_metric_axioms(mid):
    m = mk(mid)
    rng = np.random.default_rng(16)
    pts = m.random_point(rng, 12)
    for i in range(0, 12, 3):
        p, q, r = pts[i], pts[i + 1], pts[i + 2]
        assert m.dist(p, p) == pytest.approx(0.0, abs=1e-12)
        assert m.dist(p, q) == pytest.approx(float(m.dist(q, p)), abs=1e-10)
        assert m.dist(p, r) <= m.dist(p, q) + m.dist(q, r) + 1e-10


def test_dist_total_at_cut_locus():
    # dist stays defined at the cut locus (its value is unambiguous there)
    s = mk("sphere:2")
    assert s.dist(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])) == pytest.approx(np.pi)


# -- renormalization drift ------------------------------------------------------

@pytest.mark.parametrize("mid", ALL_IDS)
def test_constraint_residual_after_chained_exp(mid):
    m = mk(mid)
    rng = np.random.default_rng(17)
    p = m.random_point(rng, 1)[0]
    for _ in range(10_000):
        p = m.exp(p, random_tangent(m, rng, p, 0.05))
    assert m.constraint_residual(p) < 1e-9


# -- on-manifold tolerances ---------------------------------------------------------

def test_manifold_point_invariant_tolerance():
    # a configured point within ON_MANIFOLD_TOL of the sphere is accepted and
    # canonicalizes onto it; one farther off is refused
    m = mk("sphere:2")
    near = np.array([1.0 + 1e-8, 0.0, 0.0])
    assert m.constraint_residual(near) <= ON_MANIFOLD_TOL
    assert m.constraint_residual(m.canonicalize(near)) < 1e-12
    far = np.array([2.0, 0.0, 0.0])
    assert m.constraint_residual(far) > ON_MANIFOLD_TOL
    cfg = {"manifold": "sphere:2", "grid_n": 20, "functional": {"kind": "tension", "tau": 0.0},
           "constraints": {"kind": "clamped", "k": 1,
                           "left": {"position": list(near)}, "right": {"position": [0, 1, 0]}}}
    parse_config(cfg)
    cfg["constraints"]["left"]["position"] = list(far)
    with pytest.raises(ConfigError, match="left position is not on sphere:2"):
        parse_config(cfg)


def test_so3_point_invariant():
    m = mk("so3")
    rng = np.random.default_rng(18)
    p = m.canonicalize(m.random_point(rng, 1)[0])
    assert m.constraint_residual(p) < 1e-12


def _canonicalize_with_fix(x):
    """SO3.canonicalize's SVD path written with a ones array that carries det
    in column 2."""
    m = np.asarray(x, float).reshape(np.shape(x)[:-1] + (3, 3))
    u, _, vt = np.linalg.svd(m)
    det = np.linalg.det(u @ vt)
    fix = np.ones(np.shape(det) + (3,))
    fix[..., 2] = det
    return ((u * fix[..., None, :]) @ vt).reshape(np.shape(x))


def _polar_step(x):
    """One Newton-Schulz polar step m (3I - m^T m) / 2, written out."""
    m = np.asarray(x, float).reshape(np.shape(x)[:-1] + (3, 3))
    return (m @ (1.5 * np.eye(3) - 0.5 * (np.swapaxes(m, -1, -2) @ m))).reshape(np.shape(x))


def _gram_deviation(x):
    m = np.asarray(x, float).reshape(-1, 3, 3)
    return np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)), axis=(-2, -1))


def test_so3_canonicalize_matches_fix_formula_bitwise():
    m = mk("so3")
    rng = np.random.default_rng(19)
    rot = m.random_point(rng, 500)
    near = rot + 1e-9 * rng.normal(size=rot.shape)
    assert np.all(_gram_deviation(near) <= POLAR_STEP_TOL)
    assert np.all(np.linalg.det(-near.reshape(-1, 3, 3)) < 0)   # reflections
    for x in (rng.normal(size=(1000, 9)), -near, -rot, rng.normal(size=9), -rot[0]):
        assert m.canonicalize(x).tobytes() == _canonicalize_with_fix(x).tobytes()
    for x in (near, rot, near[0]):
        assert m.canonicalize(x).tobytes() == _polar_step(x).tobytes()


@pytest.mark.parametrize("scale", [0.0, 1e-14, 1e-10, 4e-9])
def test_so3_polar_step_matches_svd_polar_factor(scale):
    m = mk("so3")
    rng = np.random.default_rng(25)
    x = m.random_point(rng, 1000) + scale * rng.normal(size=(1000, 9))
    got, svd = m.canonicalize(x), _canonicalize_with_fix(x)
    assert np.max(np.abs(got - svd)) <= 1e-14
    assert np.max(m.constraint_residual(got)) <= np.max(m.constraint_residual(svd))


def test_so3_canonicalize_falls_back_to_svd_off_the_bound(svd_rows):
    m = mk("so3")
    rng = np.random.default_rng(26)
    rot = m.random_point(rng, 40).reshape(-1, 3, 3)
    # m^T m = diag((1 + s)^2, 1, 1): a largest Gram deviation of 2s + s^2
    below = (rot * [1.0 + 4.9e-9, 1.0, 1.0]).reshape(-1, 9)
    above = (rot * [1.0 + 5.1e-9, 1.0, 1.0]).reshape(-1, 9)
    assert np.all(_gram_deviation(below) <= POLAR_STEP_TOL)
    assert np.all(_gram_deviation(above) > POLAR_STEP_TOL)
    svd_rows.clear()
    x = np.concatenate([below, above, -below])   # the last 40 are reflections
    got = m.canonicalize(x)
    assert svd_rows == [80]
    assert got[:40].tobytes() == _polar_step(below).tobytes()
    assert got[40:].tobytes() == _canonicalize_with_fix(x[40:]).tobytes()
    x[5, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        m.canonicalize(x)
    assert svd_rows[-1] == 81


def test_so3_canonicalize_twice_moves_rows_by_rounding():
    m = mk("so3")
    rng = np.random.default_rng(27)
    p = m.random_point(rng, 1000)
    for x in (p, p + 1e-10 * rng.normal(size=p.shape),
              m.exp_ambient(p, m.project_tangent(p, rng.normal(size=p.shape)))):
        once = m.canonicalize(x)
        # entries of a rotation are at most 1 in size: 4 ulp of 1
        assert np.max(np.abs(m.canonicalize(once) - once)) <= 4 * np.spacing(1.0)


def _so3_residual_by_matrices(x):
    """SO3.constraint_residual in its matrix form: ||m^T m - I||_F and
    |det(m) - 1| from LAPACK."""
    m = np.asarray(x, float).reshape(np.shape(x)[:-1] + (3, 3))
    ortho = np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1))
    return np.maximum(ortho, np.abs(np.linalg.det(m) - 1.0))


@pytest.mark.parametrize("scale", [0.0, 1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-7, 1e-3])
def test_so3_off_manifold_screen_clears_only_tiny_residuals(scale):
    # the row-form residual is the on-manifold test of curve validation: it
    # agrees with the matrix form to rounding, so a sample it clears is
    # within the tolerance by both; reflections and NaN are never cleared
    m = mk("so3")
    rng = np.random.default_rng(20)
    x = m.random_point(rng, 200) + scale * rng.normal(size=(200, 9))
    tol = 1e-8
    for y in (x, -x):
        res, by_matrices = m.constraint_residual(y), _so3_residual_by_matrices(y)
        assert np.max(np.abs(res - by_matrices)) <= 8 * np.finfo(float).eps * (1.0 + np.max(res))
        cleared = res <= tol
        assert np.all(by_matrices[cleared] <= tol + 1e-15)
        assert np.array_equal(cleared, [m.constraint_residual(row) <= tol for row in y])
    if scale <= 1e-12:
        assert np.all(m.constraint_residual(x) <= tol / 100)
    assert not np.any(m.constraint_residual(-x) <= tol)   # det -1
    x[3, 4] = np.nan
    assert not m.constraint_residual(x)[3] <= tol


# -- retraction parts ------------------------------------------------------------

def test_torus_canonicalize_stays_below_two_pi():
    # np.mod rounds a coordinate in (-4.4e-16, 0) up to exactly 2*pi
    m = mk("torus:2")
    x = np.array([[-1e-17, -4e-16], [-0.0, 2 * np.pi], [-2 * np.pi - 1e-16, 1e3]])
    c = m.canonicalize(x)
    assert np.all((c >= 0.0) & (c < 2 * np.pi))
    assert np.all(c[0] == 0.0)
    assert np.all(m.constraint_residual(c) == 0.0)


def _torus_canonicalize_by_mod(x):
    """Torus.canonicalize in its np.mod form."""
    x = np.mod(np.asarray(x, float), 2 * np.pi)
    np.copyto(x, 0.0, where=x == 2 * np.pi)
    return x


def test_torus_canonicalize_matches_mod_form_bitwise():
    two_pi = 2 * np.pi
    k = np.arange(-50.0, 51.0)
    edge = np.concatenate([
        [0.0, -0.0, two_pi, -two_pi, np.nextafter(two_pi, 0.0), -np.nextafter(two_pi, 0.0),
         np.nextafter(two_pi, 7.0), -4e-16, 4e-16, -1e-17, 1e300, -1e300, 5e-324, -5e-324,
         np.inf, -np.inf, np.nan, -np.nan],
        k * two_pi, np.nextafter(k * two_pi, np.inf), np.nextafter(k * two_pi, -np.inf)])
    rng = np.random.default_rng(24)
    spread = rng.normal(size=300_000) * 10.0 ** rng.uniform(-20, 20, size=300_000)
    m = mk("torus:2")
    with np.errstate(invalid="ignore"):   # fmod and mod of +-inf are NaN
        for x in (edge, spread.reshape(-1, 2), spread[:1001, None]):
            assert m.canonicalize(x).tobytes() == _torus_canonicalize_by_mod(x).tobytes()


def _torus_wrap_by_mod(delta):
    """Torus.wrap in its np.mod form."""
    d = np.mod(np.asarray(delta, float) + np.pi, 2 * np.pi) - np.pi
    return np.where(d == -np.pi, np.pi, d)


def test_torus_wrap_matches_mod_form_bitwise():
    from varcurves import Torus
    # the multiples of pi and their neighbours, tiny, huge and non-finite steps
    k = np.arange(-100.0, 101.0) * np.pi
    edge = np.concatenate([
        [0.0, -0.0, -4e-16, 4e-16, -1e-17, 1e-17, 1e300, -1e300, 5e-324, -5e-324,
         np.inf, -np.inf, np.nan, -np.nan],
        k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf)])
    rng = np.random.default_rng(30)
    spread = rng.normal(size=300_000) * 10.0 ** rng.uniform(-20, 20, size=300_000)
    with np.errstate(invalid="ignore"):   # fmod and mod of +-inf are NaN
        for x in (edge, spread.reshape(-1, 2), spread[:1001, None], spread[7:8]):
            assert Torus.wrap(x).tobytes() == _torus_wrap_by_mod(x).tobytes()
    assert Torus.wrap(-np.pi) == np.pi and Torus.wrap(3 * np.pi) == np.pi
    assert Torus.wrap(-0.0) == 0.0 and not np.signbit(Torus.wrap(-0.0))


def _ambient_rows(m, rng, n):
    """Rows as an exponential's ambient formula leaves them: near the manifold
    but not on it, plus a few far off it (on the torus, below 0 and past 2*pi)."""
    p = m.random_point(rng, n)
    x = m.exp_ambient(p, m.project_tangent(p, 0.3 * rng.normal(size=p.shape)))
    x[: n // 10] += 3.0 * rng.normal(size=(n // 10, m.ambient_dim))
    return x


@pytest.mark.parametrize("mid", ALL_IDS)
def test_canonicalize_treats_rows_independently(mid):
    # exp, and with it the line search's whole-array trial, acts row by row
    m = mk(mid)
    rng = np.random.default_rng(21)
    x = _ambient_rows(m, rng, 400)
    whole = m.canonicalize(x)
    for frac in (0.02, 0.5, 0.98):
        mask = rng.uniform(size=len(x)) < frac
        assert whole[mask].tobytes() == m.canonicalize(x[mask]).tobytes()
    assert whole[7].tobytes() == m.canonicalize(x[7]).tobytes()


# the arguments of each row-wise method: points p, nearby points q, tangent
# vectors v at p, ambient vectors a and b, and ambient rows x near the manifold
ROW_OPS = {
    "project_tangent": "pa", "dproj_bilinear": "pab", "dproj_quad": "pa", "exp": "pv",
    "log": "pq", "dist": "pq", "relative_step": "pq",
    "constraint_residual": "x",
}


@pytest.mark.parametrize("op", ROW_OPS)
@pytest.mark.parametrize("mid", ALL_IDS)
def test_array_api_treats_rows_independently(mid, op):
    # the contract of the array API: a batch of rows gives, row by row, the
    # bytes of one-row calls
    m = mk(mid)
    rng = np.random.default_rng(28)
    n = 200
    p = m.random_point(rng, n)
    v = m.project_tangent(p, rng.normal(size=p.shape))
    v *= (rng.uniform(0.0, 0.8, size=n) * min(m.injectivity_radius, 3.0)
          / row_norm(v))[:, None]
    args = {"p": p, "q": m.exp(p, v), "v": v, "a": rng.normal(size=p.shape),
            "b": rng.normal(size=p.shape), "x": _ambient_rows(m, rng, n)}
    method = getattr(m, op)
    whole = method(*(args[k] for k in ROW_OPS[op]))
    assert len(whole) == n
    for i in range(n):
        assert whole[i].tobytes() == method(*(args[k][i] for k in ROW_OPS[op])).tobytes()


def _rodrigues(om):
    theta = np.linalg.norm(om, axis=(-2, -1)) / np.sqrt(2.0)
    t = theta[..., None, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(t > 1e-8, np.sin(t) / np.where(t > 0, t, 1.0), 1.0 - t * t / 6.0)
        b = np.where(t > 1e-8, (1.0 - np.cos(t)) / np.where(t > 0, t * t, 1.0),
                     0.5 - t * t / 24.0)
    return np.eye(3) + a * om + b * (om @ om)


def _exp_formula(mid, p, v):
    """The exponential of each manifold, written out in full."""
    if mid == "euclidean:2":
        return p + v
    if mid == "torus:2":
        return np.mod(p + v, 2 * np.pi)
    if mid == "sphere:2":
        theta = np.linalg.norm(v, axis=-1)[..., None]
        out = np.cos(theta) * p + np.sinc(theta / np.pi) * v
        return out / np.linalg.norm(out, axis=-1)[..., None]
    pm = p.reshape(p.shape[:-1] + (3, 3))
    om = np.swapaxes(pm, -1, -2) @ v.reshape(pm.shape)
    om = 0.5 * (om - np.swapaxes(om, -1, -2))
    return _polar_step((pm @ _rodrigues(om)).reshape(p.shape))


@pytest.mark.parametrize("mid", ALL_IDS)
def test_exp_matches_written_out_formula_bitwise(mid):
    m = mk(mid)
    rng = np.random.default_rng(23)
    p = m.random_point(rng, 200)
    for scale in (0.0, 1e-9, 0.3, 2.0):
        v = m.project_tangent(p, scale * rng.normal(size=p.shape))
        assert m.exp(p, v).tobytes() == _exp_formula(mid, p, v).tobytes()
        assert m.exp(p[3], v[3]).tobytes() == _exp_formula(mid, p[3], v[3]).tobytes()
    zero = np.zeros_like(p)
    assert m.exp(p, zero).tobytes() == _exp_formula(mid, p, zero).tobytes()
    assert m.exp(p, -zero).tobytes() == _exp_formula(mid, p, -zero).tobytes()


def test_so3_expm_skew_matches_rodrigues_bitwise():
    from varcurves import SO3
    rng = np.random.default_rng(32)
    w = rng.normal(size=(600, 3))
    # angles 0 and either side of the series switch at 1e-8, up to 3.1
    w *= (np.repeat([0.0, 1e-12, 1e-8, np.nextafter(1e-8, 1.0), 1e-4, 0.3, 2.0, 3.1], 75)
          / row_norm(w))[:, None]
    z = np.zeros(len(w))
    om = np.stack([z, -w[:, 2], w[:, 1], w[:, 2], z, -w[:, 0], -w[:, 1], w[:, 0], z],
                  axis=-1).reshape(-1, 3, 3)
    om[0] = -0.0
    om[80, 0, 1] = np.nan
    want = _rodrigues(om)
    assert SO3._expm_skew(om).tobytes() == want.tobytes()
    for i in (0, 1, 80, 150, 599):
        assert SO3._expm_skew(om[i]).tobytes() == want[i].tobytes()


def _so3_pairs_at_angles(m, rng, angles):
    """Pairs (p, p expm(omega)) of rotations at the given angles apart."""
    p = m.random_point(rng, len(angles))
    w = rng.normal(size=(len(angles), 3))
    w *= (angles / row_norm(w))[:, None]
    z = np.zeros(len(w))
    om = np.stack([z, -w[:, 2], w[:, 1], w[:, 2], z, -w[:, 0], -w[:, 1], w[:, 0], z],
                  axis=-1).reshape(-1, 3, 3)
    return p, (p.reshape(-1, 3, 3) @ _rodrigues(om)).reshape(p.shape)


def test_so3_cut_locus_screen_matches_row_dot_screen():
    # the screen rounds tr(p^T q) = 1 + 2 cos(angle) otherwise than row_dot,
    # which can flip its sign only where it is within rounding of 0: at an
    # angle within rounding of 2 pi / 3, far from the cut locus at pi
    m = mk("so3")
    rng = np.random.default_rng(31)
    p, q = m.random_point(rng, 400), m.random_point(rng, 400)   # angles over [0, pi]
    q[::7] *= -1.0   # reflections
    p[3, 5] = np.nan
    for a, b in ((p, q), (p[3], q[3]), (p, q[9]), (p[9], q)):
        assert m.may_reach_cut_locus(a, b) == bool(np.any(row_dot(a, b) < 0.0))
    for i in range(0, 400, 4):
        a, b = p[i:i + 4], q[i:i + 4]
        assert m.may_reach_cut_locus(a, b) == bool(np.any(row_dot(a, b) < 0.0))
        assert m.may_reach_cut_locus(a[0], b[0]) == bool(row_dot(a[0], b[0]) < 0.0)
    delta = np.concatenate([[0.0], 10.0 ** -np.arange(4.0, 17.0)])
    angles = 2 * np.pi / 3 + np.concatenate([delta, -delta]).repeat(20)
    p, q = _so3_pairs_at_angles(m, rng, angles)
    dot = row_dot(p, q)
    assert np.any(dot < 0.0) and np.any(dot > 0.0)
    for i in range(len(p)):
        screen = m.may_reach_cut_locus(p[i], q[i])
        assert screen == bool(dot[i] < 0.0) or abs(dot[i]) <= 16 * np.finfo(float).eps
    assert np.all(m.dist(p, q) < m.injectivity_radius - 1.0)


def test_make_manifold_rejects_unknown():
    with pytest.raises(ConfigError):
        make_manifold("hyperbolic:2")
    with pytest.raises(ConfigError):
        make_manifold("sphere:x")


# -- row kernels ----------------------------------------------------------------

def _spread(rng, shape):
    """Random values with magnitudes spread over 1e-6 .. 1e6 and both signs."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)


@pytest.mark.parametrize("width", range(1, 13))
def test_row_kernels_match_numpy_bitwise(width):
    # the kernels keep numpy's summation order: a left fold below 8 columns,
    # np.sum itself from 8 up; a numpy that changes its order fails here
    rng = np.random.default_rng(width)
    u, v = _spread(rng, (1001, width)), _spread(rng, (1001, width))
    row = v[17]
    for a, b in ((u, v), (u, row), (row, u), (u[3], v[3])):
        assert row_dot(a, b).tobytes() == np.sum(a * b, axis=-1).tobytes()
    for a in (u, u[3]):
        assert row_norm(a).tobytes() == np.linalg.norm(a, axis=-1).tobytes()


def test_cross_matches_numpy_bitwise():
    rng = np.random.default_rng(5)
    a, b = _spread(rng, (1001, 3)), _spread(rng, (1001, 3))
    for x, y in ((a, b), (a[7], b), (a, b[7]), (a[7], b[7])):
        assert row_cross(x, y).tobytes() == np.cross(x, y).tobytes()


def test_torus_residual_in_range_equals_the_canonicalize_formula():
    # in [0, 2*pi) the residual is 0 without canonicalizing; elsewhere, NaN
    # included, it is the formula's
    m = mk("torus:2")
    two_pi = 2 * np.pi
    below = np.nextafter(two_pi, 0.0)
    rows = np.array([[0.0, 1.0], [-0.0, below], [3.0, 6.0], [-1e-17, 1.0], [-7.0, 2.0],
                     [two_pi, 0.5], [1.0, 50.0], [np.nan, 1.0], [1.0, np.inf]])
    for x in (rows[:3], rows, rows[3:], rows[0], rows[4], rows[5], rows[[0, 5]], rows[7],
              rows.reshape(3, 3, 2)):
        with np.errstate(invalid="ignore"):   # fmod of an infinity
            want = np.max(np.abs(x - m.canonicalize(x)), axis=-1)
            got = m.constraint_residual(x)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.isnan(m.constraint_residual(rows[7]))
