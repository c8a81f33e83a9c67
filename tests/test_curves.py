import json
import re

import numpy as np
import pytest

from varcurves import (DegenerateCurveError, DiscreteCurve, UsageError, dump_curve,
                       equicontinuity_ratio, geodesic, length, load_curve, make_manifold,
                       parse_curve, quadrature_length, winding_vector)
from varcurves.checks import _random_curve
from varcurves.curves import _SAMPLE_TOL
from varcurves.manifolds import CUT_LOCUS_TOL, SO3, row_dot


def euclid_curve(fn, n=100, dim=1):
    m = make_manifold(f"euclidean:{dim}")
    t = np.arange(n + 1) / n
    x = np.atleast_2d(fn(t))
    if x.shape[0] != n + 1:
        x = x.T
    return DiscreteCurve(m, "interval", x)


# -- velocity ------------------------------------------------------------------

def test_velocity_constant_curve_is_zero():
    c = euclid_curve(lambda t: np.stack([np.ones_like(t), 2 * np.ones_like(t)]), dim=2)
    assert np.allclose(c.derivative(1)[1], 0.0, atol=1e-12)


def test_velocity_exact_on_affine_data():
    c = euclid_curve(lambda t: np.stack([t, np.zeros_like(t)]), dim=2)
    v = c.derivative(1)[1]
    assert np.allclose(v, np.array([1.0, 0.0]), atol=1e-12)


def test_velocity_sphere_great_circle_speed():
    m = make_manifold("sphere:2")
    cf = geodesic(m, [1, 0, 0], [0, 1, 0])
    c = cf.sample(100)
    speeds = np.linalg.norm(c.derivative(1)[1], axis=1)
    assert np.max(np.abs(speeds - np.pi / 2)) < 1e-3


# -- covariant acceleration -------------------------------------------------------

def test_accel_exact_on_quadratic():
    c = euclid_curve(lambda t: np.stack([t**2, np.zeros_like(t)]), dim=2)
    a = c.derivative(2)[1][1:-1]
    assert np.allclose(a, np.array([2.0, 0.0]), atol=1e-9)


def test_accel_geodesic_small_under_refinement():
    m = make_manifold("sphere:2")
    cf = geodesic(m, [1, 0, 0], [0, 1, 0])
    peak = {}
    for n in (50, 100, 200, 400):
        a = cf.sample(n).derivative(2)[1]
        peak[n] = np.max(np.linalg.norm(a, axis=1))
    assert peak[100] <= 2e-2 * (np.pi / 2) ** 2
    ns = np.array([50, 100, 200, 400], float)
    errs = np.array([max(peak[int(n)], 1e-16) for n in ns])
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    # great-circle second differences are radial, so the projection removes them
    # entirely: either a genuine O(N^-2) decay or a plain roundoff floor
    assert order >= 1.8 or peak[400] < 1e-8


def test_accel_second_order_against_latitude_circle():
    # a latitude circle has constant covariant acceleration norm w^2 sin(a) cos(a);
    # measures the true stencil convergence rate (the geodesic case is exact)
    m = make_manifold("sphere:2")
    alpha, w = 0.8, 2 * np.pi
    errs = []
    grids = (50, 100, 200, 400)
    for n in grids:
        t = np.arange(n + 1) / n
        x = np.stack([np.full(n + 1, np.cos(alpha)),
                      np.sin(alpha) * np.cos(w * t),
                      np.sin(alpha) * np.sin(w * t)], axis=1)
        c = DiscreteCurve(m, "interval", x)
        norms = np.linalg.norm(c.derivative(2)[1][1:-1], axis=1)
        errs.append(np.max(np.abs(norms - w**2 * np.sin(alpha) * np.cos(alpha))))
    order = -np.polyfit(np.log(grids), np.log(errs), 1)[0]
    assert order >= 1.8


def test_accel_circle_full_wrap_is_zero():
    m = make_manifold("torus:1")
    n = 100
    theta = (2 * np.pi * np.arange(n + 1) / n) % (2 * np.pi)
    c = DiscreteCurve(m, "interval", theta[:, None])
    assert np.allclose(c.derivative(2)[1][1:-1], 0.0, atol=1e-10)


# -- length --------------------------------------------------------------------------

def test_length_constant_curve():
    c = euclid_curve(lambda t: np.ones_like(t))
    assert length(c) == 0.0


def test_length_quarter_great_circle():
    m = make_manifold("sphere:2")
    c = geodesic(m, [1, 0, 0], [0, 1, 0]).sample(100)
    assert length(c) == pytest.approx(np.pi / 2, abs=1e-4)


def test_length_circle_wrapped_exact():
    m = make_manifold("torus:1")
    for w in (1, 2, 3):
        c = geodesic(m, [0.0], [0.0], winding=w).sample(200)
        assert length(c) == pytest.approx(2 * np.pi * w, abs=1e-9)


def test_length_dominates_endpoint_distance():
    rng = np.random.default_rng(1)
    for mid in ("euclidean:2", "sphere:2"):
        m = make_manifold(mid)
        c = _random_curve(m, rng)
        assert length(c) >= float(m.dist(c.samples[0], c.samples[-1])) - 1e-12


# -- quadrature length and Hoelder diagnostic ------------------------------------------

def test_quadrature_length_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for mid in ("euclidean:2", "sphere:2", "torus:2", "so3"):
        m = make_manifold(mid)
        for _ in range(5):
            c = _random_curve(m, rng)
            ql = quadrature_length(c)
            v = c.derivative(1)[1]
            assert ql * ql <= np.sum(c.stencil(1).weights * row_dot(v, v)) + 1e-12


def test_equicontinuity_on_smooth_curves():
    rng = np.random.default_rng(3)
    for mid in ("euclidean:2", "sphere:2", "torus:2", "so3"):
        m = make_manifold(mid)
        c = _random_curve(m, rng)
        pairs = rng.integers(0, c.n_samples, size=(100, 2))
        assert equicontinuity_ratio(c, pairs) <= 1.0 + 1e-9


def test_equicontinuity_of_no_pairs_is_zero():
    c = _random_curve(make_manifold("sphere:2"), np.random.default_rng(3))
    for pairs in ([], np.zeros((0, 2), int), np.zeros((0, 2))):
        assert equicontinuity_ratio(c, pairs) == 0.0


@pytest.mark.parametrize("pairs", [
    [0, 3], [[0, 1, 2]], [[[0, 1]]], [[0, 1.5]], [[0, "a"]],
    [[0, 17]], [[-1, 3]], [[0, 1], [2, 99]], [[0, 1], [2]],
], ids=["flat", "three_columns", "three_axes", "float", "string",
        "past_end", "negative", "one_out_of_range", "ragged"])
def test_equicontinuity_refuses_what_is_not_in_range_index_pairs(pairs):
    c = _random_curve(make_manifold("sphere:2"), np.random.default_rng(3))
    assert c.n_samples == 17
    with pytest.raises(UsageError, match=r"\(m, 2\) array of sample indices in \[0, 17\)"):
        equicontinuity_ratio(c, pairs)


# -- winding -----------------------------------------------------------------------------

def test_winding_of_wrapped_lines():
    m = make_manifold("torus:1")
    for w in (-2, 0, 3):
        c = geodesic(m, [0.2], [0.2], winding=w).sample(50)
        assert winding_vector(c)[0] == pytest.approx(w, abs=1e-12)


# -- invariants / degeneracy ---------------------------------------------------------------

def test_min_grid_size_enforced():
    m = make_manifold("euclidean:1")
    with pytest.raises(UsageError):
        DiscreteCurve(m, "interval", np.zeros((4, 1)))  # N = 3 < 4


def test_degenerate_steps_carry_index():
    m = make_manifold("sphere:2")
    x = np.array([[1.0, 0, 0], [0.0, 1, 0], [-1.0, 0, 0], [0.0, -1, 0], [1.0, 0, 0],
                  [0.0, 1, 0]])
    x[2] = -x[1]  # samples 1 and 2 antipodal
    with pytest.raises(DegenerateCurveError) as err:
        DiscreteCurve(m, "interval", x)
    assert err.value.index == 1


def _sphere_pair_curve(q, domain, p=(1.0, 0.0, 0.0)):
    """S^2 curve p, p, p, q, q: only the step from sample 2 to 3 (and, on the
    circle, the closing step from sample 4 to 0) is large."""
    x = np.array([p, p, p, q, q], float)
    return DiscreteCurve(make_manifold("sphere:2"), domain, x)


def _sphere_dists(x, domain):
    """Sphere.dist of consecutive samples: the exact cut-locus test's input."""
    q = x[1:] if domain == "interval" else np.roll(x, -1, axis=0)
    return make_manifold("sphere:2").dist(x[:len(q)], q)


TINY = 5e-324   # one ulp of 0.0


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("p,q,dot", [
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.0),
    ((1.0, -0.0, -0.0), (-0.0, 1.0, 0.0), -0.0),
    ((1.0, 0.0, 0.0), (TINY, 1.0, 0.0), TINY),
    ((1.0, 0.0, 0.0), (-TINY, 1.0, 0.0), -TINY),
], ids=["+0", "-0", "+ulp", "-ulp"])
def test_quarter_turn_step_is_accepted(domain, p, q, dot):
    c = _sphere_pair_curve(q, domain, p)
    d = row_dot(np.array(p), np.array(q))
    assert d.tobytes() == np.float64(dot).tobytes()
    # a step with a non-negative dot product is at most pi/2 long, so
    # validation leaves the distances to their first use
    assert ("step_dists" in c.__dict__) == (d < 0)
    assert c.step_dists.tobytes() == _sphere_dists(c.samples, domain).tobytes()


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_near_antipodal_step_raises_at_first_bad_index(domain):
    a = np.pi - 1e-9
    q = (np.cos(a), np.sin(a), 0.0)
    x = np.array([(1.0, 0.0, 0.0)] * 3 + [q] * 2)
    bad = _sphere_dists(x, domain) >= np.pi - CUT_LOCUS_TOL
    with pytest.raises(DegenerateCurveError) as err:
        _sphere_pair_curve(q, domain)
    assert err.value.index == int(np.argmax(bad)) == 2


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_step_short_of_cut_locus_is_accepted(domain):
    a = np.pi - 1e-7
    c = _sphere_pair_curve((np.cos(a), np.sin(a), 0.0), domain)
    assert c.step_dists.tobytes() == _sphere_dists(c.samples, domain).tobytes()
    assert np.max(c.step_dists) < np.pi - CUT_LOCUS_TOL


def test_off_manifold_samples_rejected():
    m = make_manifold("sphere:2")
    x = np.tile([1.0, 0.0, 0.0], (6, 1))
    x[3] = [2.0, 0.0, 0.0]
    with pytest.raises(UsageError):
        DiscreteCurve(m, "interval", x)


# -- SO(3) residual test and the screen in front of the exact cut-locus test --------------

def _count_residual_calls(monkeypatch):
    calls = []
    exact = SO3.constraint_residual

    def counted(self, x):
        calls.append(len(x))
        return exact(self, x)

    monkeypatch.setattr(SO3, "constraint_residual", counted)
    return calls


def _so3_curve_samples(n=1000):
    return np.array(_random_curve(make_manifold("so3"), np.random.default_rng(6), n).samples)


def test_so3_sample_off_by_1e_7_rejected_with_exact_message():
    m = make_manifold("so3")
    x = _so3_curve_samples(40)
    x[7, 0] += 1e-7
    res = m.constraint_residual(x)
    assert np.flatnonzero(res > _SAMPLE_TOL).tolist() == [7]
    msg = f"sample 7 is off the manifold (residual {res[7]:.2e})"
    with pytest.raises(UsageError, match=f"^{re.escape(msg)}$"):
        DiscreteCurve(m, "interval", x)


@pytest.mark.parametrize("move,deep", [(1e-12, True), (1e-9, False), (5e-9, False)])
def test_so3_small_moves_accepted(monkeypatch, move, deep):
    # moves far inside the tolerance (deep) and within a factor of 100 of it:
    # one residual test over all samples accepts each
    m = make_manifold("so3")
    x = _so3_curve_samples(40)
    x[7, 0] += move
    res = np.max(m.constraint_residual(x))
    assert res <= _SAMPLE_TOL
    assert (res <= _SAMPLE_TOL / 100) == deep
    calls = _count_residual_calls(monkeypatch)
    DiscreteCurve(m, "interval", x)
    assert calls == [len(x)]


def test_so3_reflection_rejected():
    m = make_manifold("so3")
    x = _so3_curve_samples(40)
    x[11] = -x[11]   # orthonormal rows, det -1
    assert np.abs(row_dot(x[11], x[11]) - 3.0) < 1e-14
    with pytest.raises(UsageError, match=r"^sample 11 is off the manifold \(residual 2\.00e\+00\)$"):
        DiscreteCurve(m, "interval", x)


def test_canonical_so3_curve_skips_exact_cut_locus_test(monkeypatch):
    m = make_manifold("so3")
    x = _so3_curve_samples(1000)
    calls = _count_residual_calls(monkeypatch)
    c = DiscreteCurve(m, "interval", x)
    assert calls == [len(x)]
    assert "step_dists" not in c.__dict__
    assert c.step_dists.tobytes() == m.dist(x[:-1], x[1:]).tobytes()


def _so3_pair_curve(q, domain, p=np.eye(3).ravel()):
    """SO(3) curve p, p, p, q, q: only the step from sample 2 to 3 (and, on
    the circle, the closing step from sample 4 to 0) is large."""
    x = np.array([p, p, p, q, q], float)
    return DiscreteCurve(make_manifold("so3"), domain, x)


def _so3_dists(x, domain):
    """SO3.dist of consecutive samples: the exact cut-locus test's input."""
    q = x[1:] if domain == "interval" else np.roll(x, -1, axis=0)
    return make_manifold("so3").dist(x[:len(q)], q)


def _z_rotation(a):
    return np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0],
                     [0.0, 0.0, 1.0]]).ravel()


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_so3_near_half_turn_step_raises_at_first_bad_index(domain):
    q = _z_rotation(np.pi - 1e-9)
    x = np.array([np.eye(3).ravel()] * 3 + [q] * 2)
    bad = _so3_dists(x, domain) >= SO3.injectivity_radius - CUT_LOCUS_TOL
    with pytest.raises(DegenerateCurveError) as err:
        _so3_pair_curve(q, domain)
    assert err.value.index == int(np.argmax(bad)) == 2


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_so3_step_short_of_half_turn_is_accepted(domain):
    c = _so3_pair_curve(_z_rotation(np.pi - 1e-7), domain)
    assert c.step_dists.tobytes() == _so3_dists(c.samples, domain).tobytes()
    assert np.max(c.step_dists) < SO3.injectivity_radius - CUT_LOCUS_TOL


# the cyclic permutation: a rotation by 2 pi / 3 about (1, 1, 1), trace 0
_CYCLE = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
_EYE = np.eye(3).ravel()


def _with_diagonal(a, value):
    a = np.array(a)
    a[[0, 4, 8]] = value
    return a


def _zeros_negative(a):
    return np.where(a == 0.0, -0.0, a)


@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("p,q,dot", [
    (_EYE, _CYCLE, 0.0),
    # every product is -0.0, but numpy's 9-wide sum starts from +0.0
    (_zeros_negative(_EYE), _with_diagonal(_CYCLE, -0.0), 0.0),
    (_EYE, _with_diagonal(_CYCLE, [TINY, 0.0, 0.0]), TINY),
    (_EYE, _with_diagonal(_CYCLE, [-TINY, 0.0, 0.0]), -TINY),
], ids=["+0", "-0-products", "+ulp", "-ulp"])
def test_so3_trace_zero_step_is_accepted(domain, p, q, dot):
    c = _so3_pair_curve(q, domain, p)
    d = row_dot(p, q)
    assert d.tobytes() == np.float64(dot).tobytes()
    # tr(p^T q) >= 0 bounds the rotation angle by 2 pi / 3, so validation
    # leaves the distances to their first use
    assert ("step_dists" in c.__dict__) == (d < 0)
    assert c.step_dists.tobytes() == _so3_dists(c.samples, domain).tobytes()
    assert np.max(c.step_dists) < SO3.injectivity_radius - CUT_LOCUS_TOL


@pytest.mark.parametrize("mid", ["euclidean:2", "sphere:2", "torus:2", "so3"])
@pytest.mark.parametrize("domain", ["interval", "circle"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(mid, domain, bad):
    m = make_manifold(mid)
    x = np.array(_random_curve(m, np.random.default_rng(2), 8).samples)
    if domain == "circle":
        x = x[:-1]
    x[5, -1] = bad
    with pytest.raises(UsageError, match="sample 5 is not finite"):
        DiscreteCurve(m, domain, x)


def test_parse_curve_rejects_nan_row():
    m = make_manifold("euclidean:1")
    text = dump_curve(DiscreteCurve(m, "interval", np.zeros((5, 1))))
    lines = text.splitlines()
    lines[3] = "0.5,nan"
    with pytest.raises(UsageError, match="sample 2 is not finite"):
        parse_curve("\n".join(lines) + "\n")


def _curve_file_lines():
    m = make_manifold("euclidean:1")
    return dump_curve(DiscreteCurve(m, "interval", np.zeros((5, 1)))).splitlines()


@pytest.mark.parametrize("line,text,match", [
    (0, '{"manifold": "euclidean:1",', "header is not JSON"),
    (0, '{"domain_kind": "interval", "n_samples": 5}', "header has no 'manifold'"),
    (2, "0.25,abc", "non-numeric cell: could not convert string to float: 'abc'"),
    (2, "0.25,0,0", "rows have different numbers of columns"),
    (0, '{"domain_kind": "interval", "manifold": "euclidean:1", "n_samples": "x"}',
     "n_samples must be an integer, got 'x'"),
    (0, '["euclidean:1", "interval", 5]', "header must be a JSON object"),
    (0, '{"domain_kind": "interval", "manifold": "euclidean:1", "n_samples": 5.9}',
     "n_samples must be an integer, got 5.9"),
    (0, '{"domain_kind": "interval", "manifold": "euclidean:1", "n_samples": true}',
     "n_samples must be an integer, got True"),
    (0, '{"domain_kind": "interval", "manifold": "euclidean:1", "n_samples": "5"}',
     "n_samples must be an integer, got '5'"),
    (0, '{"domain_kind": "interval", "manifold": "klein:2", "n_samples": 5}',
     "curve file manifold: unknown manifold id 'klein:2'"),
], ids=["header-not-json", "header-no-manifold", "non-numeric-cell", "ragged-rows",
        "n_samples-str", "header-list", "n_samples-fraction", "n_samples-bool",
        "n_samples-numeric-str", "unknown-manifold"])
def test_parse_curve_rejects_malformed_file(line, text, match):
    lines = _curve_file_lines()
    lines[line] = text
    with pytest.raises(UsageError, match=re.escape(match)):
        parse_curve("\n".join(lines) + "\n")


def test_parse_curve_reads_an_integral_float_n_samples():
    lines = _curve_file_lines()
    lines[0] = '{"domain_kind": "interval", "manifold": "euclidean:1", "n_samples": 5.0}'
    assert parse_curve("\n".join(lines) + "\n").n_samples == 5


def test_load_curve_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "bad.curve"
    path.write_bytes(b"\xff\xfe" + "\n".join(_curve_file_lines()).encode("utf-16-le"))
    with pytest.raises(UsageError, match="curve file is not UTF-8 text"):
        load_curve(path)


# -- file round trip ----------------------------------------------------------------------

@pytest.mark.parametrize("mid,domain", [("euclidean:2", "interval"), ("sphere:2", "interval"),
                                        ("torus:1", "circle"), ("so3", "interval")])
def test_curve_file_bit_exact_roundtrip(mid, domain):
    rng = np.random.default_rng(4)
    m = make_manifold(mid)
    if domain == "circle":
        n = 16
        theta = (2 * np.pi * np.arange(n) / n)[:, None]
        c = DiscreteCurve(m, "circle", theta)
    else:
        c = _random_curve(m, rng)
    text = dump_curve(c)
    back = parse_curve(text)
    assert back.domain == c.domain
    assert back.manifold.name == c.manifold.name
    assert np.array_equal(back.samples, c.samples)
    assert dump_curve(back) == text


def test_dump_curve_matches_per_value_format():
    # each value written as f"{v:.17g}", also for -0.0, subnormals and huge values
    edge = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0, 2.0**-1074 * 3]
    x = np.tile(np.array(edge)[:, None], (1, 3))
    x[:, 1] = np.roll(edge, 1)
    x[:, 2] = np.roll(edge, 2)
    c = DiscreteCurve(make_manifold("euclidean:3"), "interval", x)
    lines = dump_curve(c).split("\n")
    assert lines[1:] == [",".join(f"{v:.17g}" for v in (t, *row))
                         for t, row in zip(c.times, c.samples)] + [""]
    cells = {v for line in lines[1:] for v in line.split(",")}
    assert {"-0", "4.9406564584124654e-324", "1.0000000000000001e+300"} <= cells


def _plain_table(curve):
    """The curve file body written value by value, each %.17g."""
    table = np.column_stack([curve.times, curve.samples])
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


@pytest.mark.parametrize("dim", [1, 3])
def test_dump_curve_equals_the_plain_table_on_every_grid(dim):
    # the time column is formatted once per grid: interval N = 15 and circle
    # N = 16 have 16 samples each but different times, and each grid is
    # written twice, with different samples
    edge = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0 / 3.0, 5e-324])
    m = make_manifold(f"euclidean:{dim}")
    for domain, n in (("interval", 15), ("circle", 16), ("interval", 4), ("circle", 1000),
                      ("interval", 15), ("circle", 16)):
        ns = n + 1 if domain == "interval" else n
        x = np.resize(np.roll(edge, n), (ns, dim))
        c = DiscreteCurve(m, domain, x)
        header, body = dump_curve(c).split("\n", 1)
        assert json.loads(header)["n_samples"] == ns
        assert body == _plain_table(c)
