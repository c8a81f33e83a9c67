import numpy as np
import pytest

from varcurves import (ConfigError, ConstraintSet, CutLocusError, FunctionalSpec,
                       constraint_from_config, free_mask, geodesic, gradient,
                       hermite_cubic, impose, length, make_manifold, minimize,
                       seed, winding_vector)
from varcurves.constraints import _any_direction, _normalize_hint, _pinned, fixed_indices
from varcurves.manifolds import SO3, Sphere, Torus


# -- free_mask -------------------------------------------------------------------

def test_free_mask_clamped_k1():
    c = ConstraintSet.clamped([0.0], [1.0])
    assert list(free_mask(c, 10)) == list(range(1, 10))


def test_free_mask_clamped_k2():
    c = ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0])
    assert list(free_mask(c, 10)) == list(range(2, 9))


def test_free_mask_interpolation():
    c = ConstraintSet.interpolation([(0.0, [0.0]), (0.5, [1.0]), (1.0, [2.0])])
    assert list(free_mask(c, 10)) == [1, 2, 3, 4, 6, 7, 8, 9]


@pytest.mark.parametrize("c,n,domain", [
    (ConstraintSet.clamped([0.0], [1.0]), 10, "interval"),
    (ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0]), 3, "interval"),
    (ConstraintSet.interpolation([(k / 4, [float(k)]) for k in range(5)]), 1000, "interval"),
    (ConstraintSet.interpolation([(k / 4, [float(k)]) for k in range(5)]), 4, "interval"),
    (ConstraintSet.periodic(), 64, "circle"),
])
def test_free_mask_is_the_set_difference(c, n, domain):
    # the keep-mask form gives the array np.setdiff1d gave, dtype included
    n_samples = n + 1 if domain == "interval" else n
    ref = np.setdiff1d(np.arange(n_samples), fixed_indices(c, n, domain))
    got = free_mask(c, n, domain)
    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())


def test_free_mask_off_grid_knot():
    c = ConstraintSet.interpolation([(0.0, [0.0]), (0.333, [1.0]), (1.0, [2.0])])
    with pytest.raises(ConfigError, match="knot time not on grid"):
        free_mask(c, 10)


def test_knots_that_snap_to_one_sample_are_refused():
    # t = 0.5 and t = 0.5 + 1e-10 both snap to sample 5 of N = 10; keeping
    # only the last would pin the curve to 5.0 without a word
    c = ConstraintSet.interpolation([(0.0, [0.0]), (0.5, [1.0]), (0.5 + 1e-10, [5.0]),
                                     (1.0, [2.0])])
    msg = r"knots 1 \(t = 0\.5\) and 2 \(t = 0\.5000000001\) snap to the same grid sample 5"
    with pytest.raises(ConfigError, match=msg):
        free_mask(c, 10)
    with pytest.raises(ConfigError, match=msg):
        seed(c, make_manifold("euclidean:1"), 10)
    # on a grid fine enough they are neighbours
    assert list(fixed_indices(c, 10**10)) == [0, 5 * 10**9, 5 * 10**9 + 1, 10**10]


def test_free_mask_periodic_requires_circle():
    c = ConstraintSet.periodic()
    assert len(free_mask(c, 12, "circle")) == 12
    with pytest.raises(ConfigError):
        free_mask(c, 12, "interval")


# -- impose -----------------------------------------------------------------------

def test_impose_idempotent():
    m = make_manifold("sphere:2")
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0], [0, np.pi, 0], [0, 0, 1.0])
    x = geodesic(m, [1, 0, 0], [0, 0, 1]).sample(100)
    once = impose(c, x)
    twice = impose(c, once)
    assert np.array_equal(once.samples, twice.samples)


def test_impose_euclidean_velocity_encoding():
    c = ConstraintSet.clamped([0.0], [1.0], [1.0], [0.0])
    m = make_manifold("euclidean:1")
    x = hermite_cubic(0.0, 1.0, 1.0, 0.0).sample(100)
    y = impose(c, x)
    assert y.samples[1, 0] == pytest.approx(0.01, abs=1e-15)


def test_impose_sphere_velocity_encoding():
    m = make_manifold("sphere:2")
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0], [0, np.pi, 0], [0, 0, 1.0])
    x = geodesic(m, [1, 0, 0], [0, 1, 0]).sample(100)
    y = impose(c, x)
    assert np.allclose(y.samples[1], [np.cos(0.01 * np.pi), np.sin(0.01 * np.pi), 0.0],
                       atol=1e-14)


def test_impose_rejects_huge_velocity():
    m = make_manifold("sphere:2")
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0], [0, 400.0, 0], [0, 0, 1.0])
    x = geodesic(m, [1, 0, 0], [0, 1, 0]).sample(100)
    with pytest.raises(ConfigError):
        impose(c, x)


# -- seed --------------------------------------------------------------------------

def test_seed_euclidean_straight_line():
    c = ConstraintSet.clamped([0.0, 0.0], [2.0, 1.0])
    m = make_manifold("euclidean:2")
    s = seed(c, m, 50)
    line = np.outer(s.times, [2.0, 1.0])
    assert np.allclose(s.samples, line, atol=1e-12)


def test_seed_circle_winding_hint():
    c = ConstraintSet.interpolation([(0.0, [0.0]), (1.0, [np.pi / 2])])
    m = make_manifold("torus:1")
    s = seed(c, m, 100, hint=[1])
    lifted = (np.pi / 2 + 2 * np.pi) * s.times
    assert np.allclose(s.samples[:, 0], lifted % (2 * np.pi), atol=1e-10)


def test_seed_sphere_winding_hint_length():
    from varcurves import length
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0])
    m = make_manifold("sphere:2")
    s = seed(c, m, 400, hint=[1])
    assert length(s) == pytest.approx(np.pi / 2 + 2 * np.pi, abs=1e-6)


def _rz(theta):
    """Rotation by theta about the z axis, as a row-major 9-vector."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0])


def test_seed_feasibility_bitwise():
    body_z = np.array([0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    cases = [
        (ConstraintSet.clamped([0.0], [1.0], [0.5], [-0.25]), "euclidean:1", "interval", None),
        (ConstraintSet.interpolation([(0.0, [0.0]), (0.5, [2.0]), (1.0, [1.0])]),
         "torus:1", "interval", [2]),
        (ConstraintSet.clamped([1, 0, 0], [0, 1, 0]), "sphere:2", "interval", [1]),
        (ConstraintSet.clamped(np.eye(3).reshape(9), _rz(2.0), body_z, 0.5 * body_z),
         "so3", "interval", [1]),
        (ConstraintSet.interpolation([(0.0, _rz(0.3)), (0.5, _rz(-1.0)), (1.0, _rz(2.5))]),
         "so3", "interval", [-1]),
    ]
    for mid in ("euclidean:2", "torus:2", "sphere:2", "so3"):
        hint = None if mid.startswith("euclidean") else [1, -2] if mid == "torus:2" else [2]
        cases.append((ConstraintSet.periodic(), mid, "circle", hint))
    for c, mid, domain, hint in cases:
        m = make_manifold(mid)
        s = seed(c, m, 100, domain, hint=hint)
        assert np.array_equal(impose(c, s).samples, s.samples), (mid, c.kind)


@pytest.mark.parametrize("mid", ["torus:1", "sphere:2"])
def test_seed_hint_skips_a_one_step_first_segment(mid):
    """With knots at t = 0, 1/N, 1 the hint wraps the second segment, the
    first one that holds a free sample."""
    n = 100
    m = make_manifold(mid)
    if mid == "torus:1":
        pts = [[0.0], [0.5], [2.0]]
    else:
        pts = [[1.0, 0.0, 0.0], [np.cos(0.01), np.sin(0.01), 0.0], [0.0, 0.6, 0.8]]
    c = ConstraintSet.interpolation(list(zip([0.0, 1.0 / n, 1.0], pts)))
    s0, s1 = seed(c, m, n, hint=[0]), seed(c, m, n, hint=[1])
    assert length(s1) - length(s0) == pytest.approx(2 * np.pi, abs=1e-9)
    if mid == "torus:1":
        assert winding_vector(s1)[0] - winding_vector(s0)[0] == pytest.approx(1.0, abs=1e-12)


def test_seed_hint_without_a_free_segment_is_rejected():
    m = make_manifold("torus:1")
    c = ConstraintSet.interpolation([(k / 4, [0.5 * k]) for k in range(5)])
    seed(c, m, 4, hint=[0])
    with pytest.raises(ConfigError, match="winding hint"):
        seed(c, m, 4, hint=[1])


def test_seed_wrapped_sphere_loop_has_constant_speed():
    """A wrapped seed from p back to p runs once around a great circle at
    speed 2*pi."""
    m = make_manifold("sphere:2")
    p = [0.6, 0.64, 0.48]
    n = 400
    s = seed(ConstraintSet.clamped(p, p), m, n, hint=[1])
    assert np.allclose(n * s.step_dists, 2 * np.pi, rtol=0.0, atol=1e-9)


def test_seed_so3_wrapped_clamped():
    m = make_manifold("so3")
    n = 200
    s = seed(ConstraintSet.clamped(np.eye(3).reshape(9), _rz(np.pi / 2)), m, n, hint=[1])
    assert np.allclose(s.step_dists, s.step_dists[0], rtol=0.0, atol=1e-12)
    assert length(s) == pytest.approx(np.sqrt(2.0) * (np.pi / 2 + 2 * np.pi), abs=1e-9)


def test_seed_so3_closed_winding_is_body_z_rotation():
    m = make_manifold("so3")
    n = 64
    s = seed(ConstraintSet.periodic(), m, n, "circle", hint=[1])
    expected = np.array([_rz(2 * np.pi * k / n) for k in range(n)])
    assert np.max(np.abs(s.samples - expected)) <= 1e-13


def test_seed_torus_knot_just_below_zero():
    # np.mod once rounded -1e-17 up to 2*pi, which the residual test rejected
    m = make_manifold("torus:1")
    c = ConstraintSet.interpolation([(0.0, [-1e-17]), (0.25, [1.0]), (0.5, [2.0]),
                                     (0.75, [3.0]), (1.0, [4.0])])
    s = seed(c, m, 200)
    assert np.all((s.samples >= 0.0) & (s.samples < 2 * np.pi))
    assert s.samples[0, 0] == 0.0


def test_seed_distinct_hints_distinct_winding():
    c = ConstraintSet.interpolation([(0.0, [0.5]), (1.0, [0.5 + np.pi / 3])])
    m = make_manifold("torus:1")
    base = winding_vector(seed(c, m, 60, hint=[0]))
    for w in (-2, -1, 1, 3):
        s = seed(c, m, 60, hint=[w])
        assert winding_vector(s)[0] - base[0] == pytest.approx(w, abs=1e-12)


def test_seed_torus2_loop_hints():
    knots = [(0.0, [0.0, 0.0]), (0.5, [np.pi / 2, np.pi / 2]), (1.0, [0.0, 0.0])]
    c = ConstraintSet.interpolation(knots)
    m = make_manifold("torus:2")
    w00 = winding_vector(seed(c, m, 80, hint=[0, 0]))
    w10 = winding_vector(seed(c, m, 80, hint=[1, 0]))
    assert np.allclose(w10 - w00, [1.0, 0.0], atol=1e-12)


def test_seed_cut_locus_requires_hint():
    c = ConstraintSet.clamped([1, 0, 0], [-1, 0, 0])
    m = make_manifold("sphere:2")
    with pytest.raises(CutLocusError):
        seed(c, m, 50)


def test_integral_float_hint_is_the_integer_hint():
    c = ConstraintSet.clamped([1, 0, 0], [0, 1, 0])
    m = make_manifold("sphere:2")
    h = _normalize_hint(m, 1.0)
    assert np.issubdtype(h.dtype, np.integer) and h.tolist() == [1]
    assert seed(c, m, 50, hint=1.0).samples.tobytes() == seed(c, m, 50, hint=1).samples.tobytes()


def test_unknown_constraint_kind_is_refused():
    with pytest.raises(ConfigError, match="unknown constraint kind 'bogus'"):
        ConstraintSet("bogus")


def test_seed_euclidean_rejects_nonzero_hint():
    c = ConstraintSet.clamped([0.0], [1.0])
    with pytest.raises(ConfigError):
        seed(c, make_manifold("euclidean:1"), 50, hint=[1])


# -- encoding accuracy ---------------------------------------------------------------

def test_velocity_encoding_first_order_rate():
    """The one-step encoding recovers the boundary velocity with O(1/N) error."""
    cf = hermite_cubic(0.0, 0.0, 1.0, 0.0)
    errs = []
    grids = [50, 100, 200, 400]
    for n in grids:
        x0, x1 = cf.point(np.array([0.0, 1.0 / n]))
        encoded = (x1 - x0).item() * n  # velocity the encoding would recover
        errs.append(abs(encoded - 0.0) + 1e-16)
    order = -np.polyfit(np.log(grids), np.log(errs), 1)[0]
    assert 0.7 <= order <= 1.3


# -- masking interaction with the gradient --------------------------------------------

def test_gradient_never_moves_fixed_samples():
    c = ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0])
    m = make_manifold("euclidean:1")
    x = seed(c, m, 50)
    g = gradient(FunctionalSpec.tension_cost(0.0), x, free_mask(c, 50))
    assert np.all(g[[0, 1, -2, -1]] == 0.0)


# -- config parsing --------------------------------------------------------------------

def test_constraint_from_config():
    c = constraint_from_config({"kind": "clamped", "k": 2,
                                "left": {"position": [0.0], "velocity": [0.0]},
                                "right": {"position": [1.0], "velocity": [0.0]}})
    assert c.kind == "clamped" and c.k == 2
    c = constraint_from_config({"kind": "interpolation",
                                "knots": [{"t": 0.0, "position": [0.0]},
                                          {"t": 1.0, "position": [1.0]}]})
    assert c.kind == "interpolation"
    with pytest.raises(ConfigError):
        constraint_from_config({"kind": "clamped", "k": 2,
                                "left": {"position": [0.0]},
                                "right": {"position": [1.0]}})
    with pytest.raises(ConfigError):
        constraint_from_config({"kind": "mystery"})


@pytest.mark.parametrize("points", [[0.0, 1.0], [[[0.0]], [[1.0]]]],
                         ids=["scalar", "nested"])
def test_interpolation_knot_points_are_one_row_per_knot(points):
    with pytest.raises(ConfigError, match="knot_points must be one coordinate list"):
        ConstraintSet.interpolation(list(zip([0, 1], points)))


def test_clamped_k1_rejects_velocities():
    with pytest.raises(ConfigError):
        ConstraintSet("clamped", k=1, left_pos=[0.0], left_vel=[1.0],
                      right_pos=[1.0], right_vel=None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_constraint_data_rejected(bad):
    with pytest.raises(ConfigError, match="knot_points must be finite"):
        ConstraintSet.interpolation([(0.0, [0.0]), (0.5, [bad]), (1.0, [1.0])])
    with pytest.raises(ConfigError, match="knot_times must be finite"):
        ConstraintSet.interpolation([(0.0, [0.0]), (bad, [1.0])])
    with pytest.raises(ConfigError, match="right_pos must be finite"):
        ConstraintSet.clamped([0.0], [bad])
    with pytest.raises(ConfigError, match="left_vel must be finite"):
        ConstraintSet.clamped([0.0], [1.0], [bad], [0.0])


# -- geometry of the constraint data: the library checks what the config checks ---

def test_seed_rejects_knots_of_the_wrong_width():
    c = ConstraintSet.interpolation([(0, [0.0, 0.0]), (1, [1.0, 1.0])])
    with pytest.raises(ConfigError, match="knot positions must have 1 coordinates"):
        seed(c, make_manifold("euclidean:1"), 10)


def test_seed_rejects_clamped_positions_of_the_wrong_width():
    c = ConstraintSet.clamped([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ConfigError,
                       match="left position must have 1 coordinates on euclidean:1"):
        seed(c, make_manifold("euclidean:1"), 10)


def test_knot_off_the_manifold_is_refused_not_moved():
    # canonicalize would move [2, 0, 0] to [1, 0, 0]; every entry point that
    # pins the data refuses it instead, as the config does
    m = make_manifold("sphere:2")
    good = ConstraintSet.interpolation([(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    bad = ConstraintSet.interpolation([(0, [2.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    x0 = seed(good, m, 10)
    for pin in (lambda: seed(bad, m, 10), lambda: impose(bad, x0),
                lambda: minimize(FunctionalSpec.tension_cost(0.0), bad, x0)):
        with pytest.raises(ConfigError, match="knot 0 is not on sphere:2"):
            pin()


# -- one exp for every segment: the same bytes as one segment at a time ---------------

def _segment_reference(m, p, q, s, hint):
    """One geodesic segment sampled on its own, as the seed was built before
    it sampled every segment in one exp."""
    p = m.canonicalize(np.asarray(p, float))
    q = m.canonicalize(np.asarray(q, float))
    if isinstance(m, Torus):
        v = Torus.wrap(q - p) + 2 * np.pi * hint
    else:
        try:
            v = m.log(p, q)
        except CutLocusError as e:
            raise CutLocusError(f"{e}; the geodesic between (near-)cut-locus points "
                                "is ambiguous, so the seed needs a knot between them") from e
        w = int(hint[0])
        if w:
            r = float(np.linalg.norm(v))
            e = v / r if r >= 1e-12 else _any_direction(m, p)
            v = (r + w * 2 * m.injectivity_radius) * e
    return m.exp(np.broadcast_to(p, (len(s), m.ambient_dim)), s[:, None] * v[None, :])


def _seed_reference(c, m, n_grid, domain="interval", hint=None):
    h = _normalize_hint(m, hint)
    idx, rows = _pinned(c, m, n_grid, domain)
    if c.kind == "periodic":
        base = np.eye(3).reshape(9) if isinstance(m, SO3) else np.zeros(m.ambient_dim)
        if isinstance(m, Sphere):
            base[0] = 1.0
        return _segment_reference(m, base, base, np.arange(n_grid) / n_grid, h)
    x = np.empty((n_grid + 1, m.ambient_dim))
    x[:idx[0]] = rows[0]
    x[idx[-1]:] = rows[-1]
    x[idx] = rows
    for a, b in zip(idx[:-1], idx[1:]):
        if b - a > 1:
            s = np.arange(b - a + 1) / (b - a)
            x[a + 1:b] = _segment_reference(m, x[a], x[b], s, h)[1:-1]
            h = np.zeros_like(h)
    if np.any(h != 0):
        raise ConfigError("a winding hint needs a free sample between two pinned ones")
    return x


_BATCH_HINTS = {"euclidean:2": (None,), "sphere:2": (0, 1, -2), "so3": (0, 1, -1),
                "torus:2": ([0, 0], [1, -2], [-3, 1])}


@pytest.mark.parametrize("mid", list(_BATCH_HINTS))
def test_seed_of_every_segment_in_one_exp_matches_segment_by_segment(mid):
    m = make_manifold(mid)
    rng = np.random.default_rng(21)
    times = (0.0, 0.1, 0.15, 0.16, 0.5, 0.9, 1.0)   # gaps of 1, 5, 10, 34, 40 samples
    knots = ConstraintSet.interpolation(list(zip(times, m.random_point(rng, len(times)))))
    # free samples before the first knot and after the last repeat its row
    inner = ConstraintSet.interpolation(list(zip((2 / 7, 5 / 7), m.random_point(rng, 2))))
    cases = [(knots, 100, "interval"), (inner, 7, "interval"), (inner, 700, "interval")]
    if not mid.startswith("euclidean"):
        cases.append((ConstraintSet.periodic(), 37, "circle"))
    for hint in _BATCH_HINTS[mid]:
        for c, n, domain in cases:
            got = seed(c, m, n, domain, hint)
            assert got.samples.tobytes() == _seed_reference(c, m, n, domain, hint).tobytes()


@pytest.mark.parametrize("mid,points", [
    ("sphere:2", ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])),
    ("so3", (_rz(0.3), _rz(0.3 + np.pi))),
])
def test_seed_cut_locus_message_is_unchanged(mid, points):
    # the antipodal pair is a later segment; its message is the one-segment one
    m = make_manifold(mid)
    c = ConstraintSet.interpolation(list(zip(np.linspace(0.0, 1.0, len(points)), points)))
    with pytest.raises(CutLocusError) as want:
        _seed_reference(c, m, 40)
    with pytest.raises(CutLocusError) as got:
        seed(c, m, 40)
    assert str(got.value) == str(want.value)
    assert "the seed needs a knot between them" in str(got.value)


@pytest.mark.parametrize("mid", ["euclidean:2", "sphere:2", "so3", "torus:2"])
def test_impose_returns_a_seed_itself(mid):
    m = make_manifold(mid)
    pts = m.random_point(np.random.default_rng(4), 3)
    c = ConstraintSet.interpolation(list(zip((0.0, 0.5, 1.0), pts)))
    x0 = seed(c, m, 20)
    assert impose(c, x0) is x0
    # a fixed sample that differs in its last bit is written over
    moved = x0.samples.copy()
    moved[10] = m.canonicalize(np.nextafter(moved[10], 2.0))
    if moved[10].tobytes() != x0.samples[10].tobytes():
        y = impose(c, x0.with_samples(moved))
        assert y.samples.tobytes() == x0.samples.tobytes()
    # a clamped seed: its pinned rows are the velocity steps too
    c2 = ConstraintSet.clamped(pts[0], pts[1], m.project_tangent(pts[0], np.ones(m.ambient_dim)),
                               m.project_tangent(pts[1], np.ones(m.ambient_dim)))
    x2 = seed(c2, m, 20)
    assert impose(c2, x2) is x2


def test_impose_of_a_seed_still_refuses_off_manifold_knots():
    m = make_manifold("sphere:2")
    good = ConstraintSet.interpolation([(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    bad = ConstraintSet.interpolation([(0, [1.0 + 1e-3, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    with pytest.raises(ConfigError, match="knot 0 is not on sphere:2"):
        impose(bad, seed(good, m, 10))
