"""The exact Hessian band of the solver's curved model.

The oracle is the complex step of the Riemannian gradient formula,
Im g(x + i h v) / h with h = 1e-30 (Martins, Sturdza & Alonso, ACM TOMS 29,
2003), along colored frame directions: samples j = c mod 5 share a
direction, so one step gives the blocks H(a, j) of every sample a within
two of j.  It has no subtraction, so it is exact to rounding at N = 1000,
where central differences of the gradient are biased.  The gradient
formula is written out below for complex samples, and checked against
functionals.gradient on real ones.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import varcurves.optimize as opt

from varcurves import (ConstraintSet, DiscreteCurve, FunctionalSpec, SolveOptions, make_manifold,
                       minimize, seed)
from varcurves.curves import stencil_operators
from varcurves.errors import FactorizationError
from varcurves.fields import KINDS, PriorField
from varcurves.functionals import gradient

N = 1000
H = 1e-30
KNOT_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def _geometry(mid):
    """The tangent projection and the gradient in p of <u, P(p) w>, for
    complex arrays (the formulas of Manifold.project_tangent and
    Manifold.dproj_bilinear)."""
    if mid == "so3":
        def mat(a):
            return a.reshape(a.shape[:-1] + (3, 3))

        def vec(a):
            return a.reshape(a.shape[:-2] + (9,))

        def tr(a):
            return np.swapaxes(a, -1, -2)

        def project(p, a):
            b = tr(mat(p)) @ mat(a)
            return vec(mat(p) @ (0.5 * (b - tr(b))))

        def dproj(p, u, w):
            pt = tr(mat(p))
            return vec(-0.5 * (mat(u) @ pt @ mat(w) + mat(w) @ pt @ mat(u)))
    else:
        def project(p, a):
            return a - _dot(a, p)[..., None] * p

        def dproj(p, u, w):
            return -(_dot(p, w)[..., None] * u + _dot(p, u)[..., None] * w)
    return project, dproj


def _cross(u, a):
    """Each 3-wide row block of u crossed with a."""
    v = u.reshape(u.shape[:-1] + (-1, 3))
    out = np.stack([v[..., 1] * a[2] - v[..., 2] * a[1], v[..., 2] * a[0] - v[..., 0] * a[2],
                    v[..., 0] * a[1] - v[..., 1] * a[0]], axis=-1)
    return out.reshape(u.shape)


def _riemannian_gradient(spec, mid, domain, n, z):
    """functionals.gradient on every sample, for complex samples z."""
    project, dproj = _geometry(mid)
    steps = z[1:] - z[:-1] if domain == "interval" else np.roll(z, -1, axis=0) - z
    idx = np.arange(z.shape[0])
    g = np.zeros_like(z)
    for term in spec.terms:
        st = stencil_operators(n, domain)[term.order - 1]
        raw = st.steps_to_nodes @ steps
        r = project(z, raw)
        w = term.coef * st.weights[:, None]
        g = g + 0.5 * w * dproj(z, raw, raw)
        f = term.field
        if f is not None:
            mod = np.ones((len(idx), 1)) if f.modulation is None else f.modulation[idx][:, None]
            cross = KINDS[f.kind].cross
            if cross:
                a = cross * f.params
                field, inner, sq = _cross(z, a), -_cross(raw, a), -2.0 * _cross(_cross(z, a), a)
            else:
                b = np.broadcast_to(f.params, z.shape)
                field, inner, sq = project(z, b), dproj(z, raw, b), dproj(z, b, b)
            r = r - mod * field
            g = g + 0.5 * w * (-2.0 * mod * inner + mod ** 2 * sq)
        g = g + st.adjoint @ (w * r)
    return project(z, g)


def _oracle_blocks(spec, curve):
    """The blocks H(a, a + s) in [s, a] and H(a + s, a) in [3 + s, a],
    s = 0..2, in the frames of tangent_frame, by the complex step."""
    m, x, ns = curve.manifold, curve.samples, curve.n_samples
    frame = m.tangent_frame(x)
    k = frame.shape[1]
    out = np.zeros((6, ns, k, k))
    a = np.arange(ns)
    for c in range(5):
        for r in range(k):
            v = np.zeros_like(x)
            v[c::5] = frame[c::5, r]
            hv = _riemannian_gradient(spec, m.name, curve.domain, curve.grid_n,
                                      x + 1j * H * v).imag / H
            hv = np.einsum("jrm,jm->jr", frame, hv)   # row a: E_a H v
            for s in range(3):
                for lo, j in ((0, a + s), (3, a - s)):
                    j = j % ns if curve.domain == "circle" else j
                    ok = (j >= 0) & (j < ns) & (j % 5 == c)
                    out[lo + s, a[ok], :, r] = hv[a[ok]]
    return out


def _bent_curve(mid, domain, n=N, s=0):
    """A five-knot seed (interval) or a closed loop of winding hint 1
    (circle), bent off its critical point by a smooth and a rough part."""
    m = make_manifold(mid)
    rng = np.random.default_rng(s)
    if domain == "interval":
        c = ConstraintSet.interpolation(list(zip(KNOT_TIMES, m.random_point(rng, 5))))
        x = seed(c, m, n).samples
    else:
        x = seed(ConstraintSet.periodic(), m, n, "circle", 1).samples
    bump = np.sin(2 * np.pi * np.arange(len(x)) / n)[:, None] * rng.normal(size=m.ambient_dim)
    v = m.project_tangent(x, 0.2 * bump + 0.01 * rng.normal(size=x.shape))
    return DiscreteCurve(m, domain, m.exp(x, v))


def _modulation(n):
    return 1.0 + 0.5 * np.sin(3.0 * np.arange(n + 1) / n)


def _specs():
    """(manifold, spec) covering every term order and every field kind of
    S^2 and SO(3), modulated and not."""
    s2, so3 = make_manifold("sphere:2"), make_manifold("so3")
    axis, b9 = np.array([0.3, -0.5, 1.2]), np.arange(9.0) / 5.0
    return [
        ("sphere:2", FunctionalSpec.tension_cost(0.7)),
        ("sphere:2", FunctionalSpec.energy(1)),
        ("sphere:2", FunctionalSpec.conditional(2, PriorField(s2, "sphere_rotation", axis))),
        ("sphere:2", FunctionalSpec.conditional(
            1, PriorField(s2, "sphere_rotation", axis, _modulation(N)))),
        ("sphere:2", FunctionalSpec.conditional(
            2, PriorField(s2, "constant_ambient", axis, _modulation(N)))),
        ("sphere:2", FunctionalSpec.conditional(1, PriorField(s2, "constant_ambient", axis))),
        ("so3", FunctionalSpec.tension_cost(0.7)),
        ("so3", FunctionalSpec.conditional(2, PriorField(so3, "so3_left_invariant", axis))),
        ("so3", FunctionalSpec.conditional(
            1, PriorField(so3, "so3_left_invariant", axis, _modulation(N)))),
        ("so3", FunctionalSpec.conditional(
            2, PriorField(so3, "constant_ambient", b9, _modulation(N)))),
    ]


_CASES = [(mid, spec, domain) for mid, spec in _specs() for domain in ("interval", "circle")]
_IDS = ["-".join([mid, spec.describe()]
                 + ["modulated"] * (spec.field is not None and spec.field.modulation is not None)
                 + [domain]) for mid, spec, domain in _CASES]


@pytest.fixture(scope="module")
def oracle():
    """Each case's curve, its exact and Gauss-Newton bands, and the oracle."""
    out = {}
    for case, (mid, spec, domain) in zip(_IDS, _CASES):
        curve = _bent_curve(mid, domain)
        frame = curve.manifold.tangent_frame(curve.samples)
        exact = opt._model_blocks(spec, curve, frame, exact=True).copy()
        gn = opt._model_blocks(spec, curve, frame).copy()
        out[case] = curve, exact, gn, _oracle_blocks(spec, curve)
    return out


@pytest.mark.parametrize("mid,spec,domain", _CASES, ids=_IDS)
def test_gradient_formula_is_the_solvers(mid, spec, domain):
    # the oracle differentiates the formula that functionals.gradient computes
    curve = _bent_curve(mid, domain)
    want = gradient(spec, curve, np.arange(curve.n_samples))
    got = _riemannian_gradient(spec, mid, domain, curve.grid_n, curve.samples)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", _IDS)
def test_exact_band_matches_the_complex_step(oracle, case):
    # every block of the band, the end rows included, to rounding of the
    # second-order part (the band minus today's Gauss-Newton model), which
    # is about 1e-3 of the whole at N = 1000 and holds every sign error
    curve, exact, gn, want = oracle[case]
    want = want[:3]
    if curve.domain == "interval":   # blocks past the last sample are zero
        for s in range(1, 3):
            exact[s, -s:] = gn[s, -s:] = 0.0
    scale = np.max(np.abs(want - gn))
    assert scale > 1e-4 * np.max(np.abs(want))
    assert np.max(np.abs(exact - want)) <= 1e-10 * scale


@pytest.mark.parametrize("case", _IDS)
def test_exact_band_is_symmetric(oracle, case):
    # the band stores H(a, a + s) only; the oracle's H(a + s, a) is its
    # transpose, and each diagonal block is symmetric
    curve, exact, _, want = oracle[case]
    scale = np.max(np.abs(want))
    ns = curve.n_samples
    for s in range(1, 3):
        rows = np.arange(ns) if curve.domain == "circle" else np.arange(ns - s)
        lower = want[3 + s, (rows + s) % ns]
        assert np.max(np.abs(lower - want[s, rows].swapaxes(1, 2))) <= 1e-13 * scale
    assert np.max(np.abs(exact[0] - exact[0].swapaxes(1, 2))) <= 1e-13 * scale


@pytest.mark.parametrize("mid", ["euclidean:2", "torus:2"])
@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_flat_exact_model_is_todays_bytewise(mid, domain):
    # on a flat manifold the Gauss-Newton model is the exact Hessian, so the
    # exact build is today's model byte for byte
    m = make_manifold(mid)
    rng = np.random.default_rng(7)
    n = 60
    x = m.canonicalize(np.cumsum(rng.normal(scale=0.05, size=(n + (domain == "interval"), 2)),
                                 axis=0))
    curve = DiscreteCurve(m, domain, x)
    field = PriorField(m, "constant_ambient" if mid.startswith("euclidean") else "torus_constant",
                       np.array([0.4, -0.3]))
    free = np.arange(1, curve.n_samples - 1)
    b = rng.normal(size=x.shape)
    b[[0, -1]] = 0.0
    for spec in (FunctionalSpec.tension_cost(0.7), FunctionalSpec.conditional(2, field)):
        assert (opt._model_blocks(spec, curve, None, exact=True).tobytes()
                == opt._model_blocks(spec, curve, None).tobytes())
        got = opt._flat_model_factor(spec, curve, free, exact=True).solve(b)
        assert got.tobytes() == opt._flat_model_factor(spec, curve, free).solve(b).tobytes()


# The first sphere-solve and so3-solve cases of the benchmark pools: five
# knots at t = k/4, tension, N = 1000.  The Gauss-Newton model took 7 and 8
# iterations on them.
_SPHERE_KNOTS = [[0.03830617341529756, -0.9912647343802764, 0.12620167769200735],
                 [-0.24486803191522838, -0.8689137428146498, -0.43014945599616805],
                 [-0.35425356030157784, -0.8681140148938375, 0.34768156718261406],
                 [0.10467371078166046, -0.5452845235053186, 0.8316899678947527],
                 [0.6068578240915757, -0.6121371263919817, 0.5069632332146045]]
_SO3_KNOTS = [
    [-0.7805166187124777, 0.5911671819412351, 0.20326133648409264, -0.4476501850264399,
     -0.7555042313651537, 0.47835412430033875, 0.4363520594192664, 0.28237336876024366,
     0.8543197064656514],
    [-0.9332153626638231, -0.3353238041958796, 0.12910086455106554, 0.3572188691941657,
     -0.9045884456313663, 0.23262507070793073, 0.03877842673279513, 0.26320655457231984,
     0.9639598245001176],
    [-0.763596112642474, 0.6351172399579548, -0.1163918737090006, -0.6456703079309126,
     -0.7526101707782902, 0.12918120721480222, -0.005552496168634258, 0.17379304459403122,
     0.9847665446373747],
    [-0.03894296308856361, 0.9875086962655304, -0.15267619469267443, -0.8202066586919053,
     0.055680609412484317, 0.5693511278402068, 0.5707402935340594, 0.14739825146658625,
     0.8077928402760507],
    [0.7118604507273307, 0.6639763324651593, 0.22888890015987928, -0.6120987007953517,
     0.42673987741222935, 0.6657539016114279, 0.34436881272107955, -0.6140264708889286,
     0.710198291938781]]


@pytest.mark.parametrize("mid,knots,tau", [("sphere:2", _SPHERE_KNOTS, 2.4826954893044917),
                                           ("so3", _SO3_KNOTS, 0.0)])
def test_first_pool_cases_certify_in_few_iterations(mid, knots, tau):
    m = make_manifold(mid)
    c = ConstraintSet.interpolation(list(zip(KNOT_TIMES, knots)))
    rep = minimize(FunctionalSpec.tension_cost(tau), c, seed(c, m, N))
    assert rep.verdict == "converged"
    assert rep.final_residual <= SolveOptions().grad_tol
    assert rep.iterations <= 5


def test_definite_lu_refuses_an_indefinite_matrix():
    rng = np.random.default_rng(3)
    a = sp.random(40, 40, density=0.1, random_state=rng)
    spd = sp.csc_matrix(a @ a.T + sp.identity(40))
    lu = opt._definite_lu(spd)
    b = rng.normal(size=40)
    assert np.allclose(spd @ lu.solve(b), b)
    with pytest.raises(FactorizationError):
        opt._definite_lu(sp.csc_matrix(spd - 2.0 * sp.identity(40) * spd.diagonal().max()))
