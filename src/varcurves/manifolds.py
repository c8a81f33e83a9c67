"""Riemannian manifolds embedded in an ambient inner-product space.

Provided manifolds: Euclidean d-space, the unit sphere S^d in R^{d+1}, the flat
torus T^d = R^d mod 2*pi (the circle at d = 1), and the rotation group SO(3)
stored as 3x3 matrices flattened row-major to 9-vectors with the Frobenius
ambient metric.

All metrics are induced by the ambient dot product, so tangent projection is an
orthogonal projection and the covariant derivative of a field along a curve is
the projected ambient derivative.  Array-level operations broadcast over leading
axes: points and vectors are arrays whose last axis is the ambient dimension.

Metric normalisation note: on SO(3) the Frobenius metric gives geodesic
distance sqrt(2) * (rotation angle); functional values on SO(3) scale
accordingly relative to conventions that use angle directly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, CutLocusError

# Refuse log this close (in angle) to the cut locus instead of silently
# picking a branch.
CUT_LOCUS_TOL = 1e-8

# Largest entry of |m^T m - I| at which SO3.canonicalize projects a sample m
# by one Newton-Schulz polar step instead of the SVD.
POLAR_STEP_TOL = 1e-8

# numpy adds the rows of np.sum(u * v, axis=-1) left to right while they are
# narrower than 8 columns, and pairwise from 8 columns up
_FOLD_MAX_WIDTH = 7


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, with broadcasting.

    Bit for bit np.sum(u * v, axis=-1): rows narrower than 8 columns are
    summed as the same left fold over the columns, without the reduction
    machinery; wider rows go to np.sum.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    w = u.shape[-1]
    if not 0 < w <= _FOLD_MAX_WIDTH or v.shape[-1] != w:
        return np.sum(u * v, axis=-1)
    out = u[..., 0] * v[..., 0]
    for i in range(1, w):
        out += u[..., i] * v[..., i]
    return out


def row_norm(u: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis; bit for bit np.linalg.norm(u, axis=-1)."""
    return np.sqrt(row_dot(u, u))


def row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of 3-vectors along the last axis, with broadcasting.

    The arithmetic of np.cross (so bit for bit its result) without its axis
    moves and broadcast copies.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


class Manifold:
    """Base class: the array-level flat geometry of the ambient space.

    Euclidean uses it whole; Torus adds its point handling, wrapped
    relative_step and cut-locus check in log.  A curved manifold sets
    curved and overrides canonicalize, constraint_residual, project_tangent,
    tangent_frame, dproj_bilinear, proj_derivatives, weingarten,
    exp_ambient, log, dist and, where it can, may_reach_cut_locus.
    Instances are immutable and safe to share across concurrent solves.
    """

    name: str
    ambient_dim: int
    compact: bool
    injectivity_radius: float  # in geodesic distance
    # True where dproj_bilinear is not identically zero; gradient skips the
    # curvature term where it is False
    curved = False

    # -- point handling ----------------------------------------------------

    def canonicalize(self, x: np.ndarray) -> np.ndarray:
        """Return the canonical representative of x (renormalisation)."""
        return np.asarray(x, float)

    def constraint_residual(self, x: np.ndarray) -> np.ndarray:
        """Distance of x from satisfying the defining constraint (0 on-manifold)."""
        return np.zeros(np.shape(x)[:-1])

    def random_point(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        raise NotImplementedError

    # -- tangent structure --------------------------------------------------

    def project_tangent(self, p: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ambient vector a onto the tangent space at p
        (a copy of a here)."""
        return np.array(a, float, copy=True)

    def tangent_frame(self, p: np.ndarray):
        """An orthonormal basis of the tangent space at each sample p_j of
        the (n, ambient_dim) array p, with the samples last: frame[r, :, j]
        is the r-th vector at p_j, shape (dim, ambient_dim, n), as the model
        build reads it (proj_derivatives takes the same layout); None here,
        where the tangent space is the whole ambient space at every point."""
        return None

    def dproj_bilinear(self, p: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Ambient gradient in p of <u, P(p) w> with u, w held fixed.

        Zero for flat manifolds; the curved-manifold contribution to exact
        gradients of projected-stencil objectives.
        """
        return np.zeros_like(np.broadcast_arrays(p, u)[0])

    def dproj_quad(self, p: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Ambient gradient in p of <c, P(p) c> with c held fixed."""
        return self.dproj_bilinear(p, c, c)

    # -- exponential geometry ------------------------------------------------

    def exp_ambient(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The exponential's ambient formula, before canonicalize.

        p + v here, which is the whole exponential of the flat manifolds;
        curved manifolds override it.  Acts row by row.
        """
        return np.asarray(p, float) + np.asarray(v, float)

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Riemannian exponential: canonicalize(exp_ambient(p, v)).

        The one definition of the retraction; subclasses override its two
        parts, never exp itself.
        """
        return self.canonicalize(self.exp_ambient(p, v))

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Inverse of exp (relative_step here); raises CutLocusError within
        CUT_LOCUS_TOL of the cut locus."""
        return self.relative_step(p, q)

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Geodesic distance (the norm of relative_step here).  Total (defined
        at the cut locus, where it is unambiguous)."""
        return row_norm(self.relative_step(p, q))

    def may_reach_cut_locus(self, p: np.ndarray, q: np.ndarray) -> bool:
        """False only if no pair (p, q) is within CUT_LOCUS_TOL of the cut locus.

        A cheap screen in front of the exact test on dist(p, q); True (run the
        exact test) unless a manifold knows better, as the sphere and SO(3)
        do from the sign of the row-wise dot product.
        """
        return True

    def relative_step(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Ambient displacement of q relative to p used by difference stencils.

        Plain q - p except on the torus, where the minimal (wrapped)
        representative is taken so stencils act on a local lift.
        """
        return np.asarray(q, float) - np.asarray(p, float)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Euclidean(Manifold):
    """R^d with the standard metric."""

    compact = False
    injectivity_radius = np.inf

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError("euclidean dimension must be >= 1")
        self.dim = dim
        self.ambient_dim = dim
        self.name = f"euclidean:{dim}"

    def random_point(self, rng, n=1):
        return rng.normal(size=(n, self.dim))


class Sphere(Manifold):
    """Unit sphere S^d embedded in R^{d+1}."""

    compact = True
    curved = True
    injectivity_radius = np.pi

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError("sphere dimension must be >= 1")
        self.dim = dim
        self.ambient_dim = dim + 1
        self.name = f"sphere:{dim}"

    def canonicalize(self, x):
        x = np.asarray(x, float)
        return x / row_norm(x)[..., None]

    def constraint_residual(self, x):
        return np.abs(row_norm(x) - 1.0)

    def random_point(self, rng, n=1):
        return self.canonicalize(rng.normal(size=(n, self.ambient_dim)))

    def project_tangent(self, p, a):
        p = np.asarray(p, float)
        a = np.asarray(a, float)
        return a - row_dot(a, p)[..., None] * p

    def tangent_frame(self, p):
        """The rows l != i of the Householder reflection H = I - 2 v v^T / v.v,
        v = p + sign(p_i) e_i, with i the largest coordinate of p: H p is
        -sign(p_i) e_i, so those rows are orthonormal and orthogonal to p.
        Built one ambient coordinate at a time over every sample: entries
        are picked by the masks of i, without index arithmetic."""
        pt = np.asarray(p, float).T
        m, n = pt.shape
        pivot = np.argmax(np.abs(pt), axis=0) == np.arange(m)[:, None]   # [c, j]: c is i at p_j

        def picked(shift):
            # coordinate (i + shift) mod m of each sample
            out = pt[(m - 1 + shift) % m]
            for c in range(m - 2, -1, -1):
                out = np.where(pivot[c], pt[(c + shift) % m], out)
            return out

        pi = picked(0)
        v = np.where(pivot, pi + np.where(pi < 0.0, -1.0, 1.0), pt)
        # v.v of each sample as row_dot sums the rows of an (n, m) array in C
        # order; its wide rows (numpy's pairwise sum) need that order
        vt = v.T if m <= _FOLD_MAX_WIDTH else np.ascontiguousarray(v.T)
        scale = 2.0 / row_dot(vt, vt)
        frame = np.empty((m - 1, m, n))
        for r in range(m - 1):
            # row l = (i + r + 1) mod m of H, where v_l = p_l
            coef = scale * picked(r + 1)
            for c in range(m):
                np.subtract(pivot[(c - r - 1) % m], coef * v[c], out=frame[r, c])
        return frame

    def dproj_bilinear(self, p, u, w):
        p = np.asarray(p, float)
        u = np.asarray(u, float)
        w = np.asarray(w, float)
        pu = row_dot(p, u)[..., None]
        pw = row_dot(p, w)[..., None]
        return -(pw * u + pu * w)

    def dproj_quad(self, p, c):
        # dproj_bilinear(p, c, c) with its two equal terms computed once
        p = np.asarray(p, float)
        c = np.asarray(c, float)
        half = row_dot(p, c)[..., None] * c
        return -(half + half)

    def proj_derivatives(self, p, frame, c):
        """DP(p)[e] c = -(e (p.c) + p (e.c)) for each frame vector e, and
        1/2 <c, D^2P(p)[e_r, e_s] c> = -(e_r.c)(e_s.c) for each pair, with
        P(p) = I - p p^T as in dproj_bilinear.  The samples are on the last
        axis: p and c of shape (ambient_dim, n), frame and the first result
        of shape (dim, ambient_dim, n), frame[r, :, j] the r-th vector at
        p_j, and the second result of shape (dim, dim, n)."""
        ec = np.einsum("rmj,mj->rj", frame, c)
        dp = -(np.einsum("mj,mj->j", p, c) * frame + ec[:, None] * p)
        return dp, -(ec[:, None] * ec[None])

    def weingarten(self, p, g):
        """<e_r, DP(p)[e_s] g> = -(p.g) delta_rs in any orthonormal tangent
        frame, shape (dim, dim, n); laid out as in proj_derivatives."""
        return -np.einsum("mj,mj->j", p, g) * np.eye(self.dim)[:, :, None]

    def exp_ambient(self, p, v):
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        theta = row_norm(v)[..., None]
        # sin(theta)/theta via sinc, exact at theta = 0
        return np.cos(theta) * p + np.sinc(theta / np.pi) * v

    def _angle(self, p, q):
        # atan2 form: well-conditioned at angle 0 (arccos loses half the digits there)
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        c = row_dot(p, q)
        s = row_norm(q - c[..., None] * p)
        return np.arctan2(s, c)

    def log(self, p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        theta = self._angle(p, q)
        if np.any(theta >= np.pi - CUT_LOCUS_TOL):
            raise CutLocusError("sphere log: points are (nearly) antipodal")
        u = self.project_tangent(p, q - p)
        nu = row_norm(u)[..., None]
        scale = np.where(nu > 1e-300, theta[..., None] / np.where(nu > 1e-300, nu, 1.0), 0.0)
        return scale * u

    def dist(self, p, q):
        return self._angle(p, q)

    def may_reach_cut_locus(self, p, q):
        # the angle exceeds pi/2 only where p . q < 0, and the cut locus
        # is at pi
        return bool(np.any(row_dot(p, q) < 0.0))


class Torus(Manifold):
    """Flat torus R^d mod 2*pi; coordinates canonical in [0, 2*pi)."""

    compact = True
    injectivity_radius = np.pi

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError("torus dimension must be >= 1")
        self.dim = dim
        self.ambient_dim = dim
        self.name = f"torus:{dim}"

    @staticmethod
    def _mod_two_pi(x):
        # np.mod(x, 2 * pi) bit for bit, in fewer passes: a negative fmod
        # remainder moves up by 2*pi, and adding 0.0 elsewhere turns -0.0
        # into np.mod's +0.0.  A remainder in (-4.4e-16, 0) rounds up to
        # exactly 2*pi, as in np.mod.
        x = np.asarray(np.fmod(np.asarray(x, float), 2 * np.pi))   # 0-d stays an array
        x += np.where(x < 0, 2 * np.pi, 0.0)
        return x

    @staticmethod
    def wrap(delta: np.ndarray) -> np.ndarray:
        """Map each coordinate of a displacement to the minimal representative in (-pi, pi]."""
        d = Torus._mod_two_pi(np.asarray(delta, float) + np.pi)
        d -= np.pi
        np.copyto(d, np.pi, where=d == -np.pi)
        return d

    def canonicalize(self, x):
        # the remainder 2*pi maps to 0.0
        x = self._mod_two_pi(x)
        np.copyto(x, 0.0, where=x == 2 * np.pi)
        return x

    def constraint_residual(self, x):
        x = np.asarray(x, float)
        # canonicalize leaves a coordinate in [0, 2*pi) as it is, so the
        # residual is 0 there; NaN fails the test and gets the formula's NaN
        if np.all((x >= 0.0) & (x < 2 * np.pi)):
            return np.zeros(x.shape[:-1])
        return np.max(np.abs(x - self.canonicalize(x)), axis=-1)

    def random_point(self, rng, n=1):
        return rng.uniform(0.0, 2 * np.pi, size=(n, self.dim))

    def log(self, p, q):
        d = self.relative_step(p, q)
        if np.any(np.abs(d) >= np.pi - CUT_LOCUS_TOL):
            raise CutLocusError("torus log: a coordinate is (nearly) at the cut locus")
        return d

    def relative_step(self, p, q):
        return self.wrap(np.asarray(q, float) - np.asarray(p, float))


class SO3(Manifold):
    """Rotation group SO(3): 3x3 matrices, row-major 9-vectors, Frobenius metric.

    Geodesic distance is sqrt(2) times the rotation angle; the injectivity
    radius is therefore sqrt(2)*pi.
    """

    compact = True
    curved = True
    injectivity_radius = np.sqrt(2.0) * np.pi

    def __init__(self):
        self.dim = 3
        self.ambient_dim = 9
        self.name = "so3"

    @staticmethod
    def _mat(x):
        return np.asarray(x, float).reshape(np.shape(x)[:-1] + (3, 3))

    @staticmethod
    def _vec(m):
        return np.asarray(m, float).reshape(np.shape(m)[:-2] + (9,))

    def canonicalize(self, x):
        """The rotation nearest each sample m: the orthogonal polar factor of m.

        A sample with max |m^T m - I| <= POLAR_STEP_TOL and a positive triple
        product r0 . (r1 x r2) of its rows (that is, det(m) > 0) gets one
        Newton-Schulz polar step m (3I - m^T m) / 2 (Higham, Functions of
        Matrices, SIAM 2008, sec. 8.3).  Its singular values 1 + d, with
        |d| <= 1.5 * POLAR_STEP_TOL, become 1 - 1.5 d^2 - 0.5 d^3: the polar
        factor to rounding.  Every other sample (far off the group, a
        reflection, NaN) goes through the SVD m = u s vt and gets u vt, with
        the last column of u flipped where u vt reflects; a NaN raises
        LinAlgError there.
        """
        x = np.asarray(x, float)
        m = x.reshape(-1, 3, 3)
        with np.errstate(invalid="ignore"):   # an infinite sample fails the screen
            # not m^T @ m: numpy sends a product of a buffer with its own
            # transpose to BLAS syrk one matrix at a time, about 2.5 times
            # the cost of gemm on a copy, with the same bytes
            mtm = np.swapaxes(m, -1, -2) @ m.copy()
            out = m @ (1.5 * np.eye(3) - 0.5 * mtm)
            # max |m^T m - I| of each sample, down the columns of the (9, n)
            # transpose: numpy's max over the last two axes of (n, 3, 3) runs
            # one short reduction per sample.  The max is exact, and NaN
            # propagates into it
            dev = mtm.reshape(-1, 9).T.copy()
            dev[::4] -= 1.0
            near = np.max(np.abs(dev, out=dev), axis=0) <= POLAR_STEP_TOL
            near &= row_dot(m[:, 0], row_cross(m[:, 1], m[:, 2])) > 0.0
        if not np.all(near):
            far = ~near
            u, _, vt = np.linalg.svd(m[far])
            det = np.linalg.det(u @ vt)
            u[..., 2] *= det[..., None]   # flip the last column where u @ vt reflects
            out[far] = u @ vt
        return out.reshape(x.shape)

    def constraint_residual(self, x):
        """max(||m^T m - I||_F, |det(m) - 1|) of each sample m, from its rows r_i.

        ||m^T m - I||_F = ||m m^T - I||_F, and the entries of m m^T - I are
        e_ij = r_i . r_j - delta_ij, so the first part is
        sqrt(sum_i e_ii^2 + 2 sum_{i<j} e_ij^2); det(m) is the triple
        product r0 . (r1 x r2).  A NaN sample gives a NaN residual.
        """
        x = np.asarray(x, float)
        r = [x[..., 3 * i:3 * i + 3] for i in range(3)]
        diag = sum((row_dot(r[i], r[i]) - 1.0) ** 2 for i in range(3))
        off = sum(row_dot(r[i], r[j]) ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
        det = row_dot(r[0], row_cross(r[1], r[2]))
        return np.maximum(np.sqrt(diag + 2.0 * off), np.abs(det - 1.0))

    def random_point(self, rng, n=1):
        return self.canonicalize(rng.normal(size=(n, 9)))

    def project_tangent(self, p, a):
        pm, am = self._mat(p), self._mat(a)
        # tangent space at p is p * {skew}; project via skew(p^T a)
        b = np.swapaxes(pm, -1, -2) @ am
        skew = 0.5 * (b - np.swapaxes(b, -1, -2))
        return self._vec(pm @ skew)

    def tangent_frame(self, p):
        """The body frame p [e_i]_x / sqrt(2), i = 0, 1, 2: p^T times it is
        skew, and the [e_i]_x are orthogonal with Frobenius norm sqrt(2).
        Column c of p [e_i]_x is p (e_i x e_c), a column of p, its negative
        or zero, so each entry is one entry of p / sqrt(2), negated or not,
        or zero."""
        q = np.asarray(p, float).T / np.sqrt(2.0)   # q[3 a + c, j] = p_j[a, c] / sqrt(2)
        frame = np.zeros((3, 9, q.shape[1]))
        for i, c, sign, col in ((0, 1, 1.0, 2), (0, 2, -1.0, 1), (1, 0, -1.0, 2),
                                (1, 2, 1.0, 0), (2, 0, 1.0, 1), (2, 1, -1.0, 0)):
            # entry (a, c) of p [e_i]_x is sign * p[a, col]
            frame[i, c::3] = q[col::3] if sign > 0 else -q[col::3]
        return frame

    @classmethod
    def _mat_t(cls, p):
        # p^T as a copy: numpy multiplies by a transposed view as the right
        # operand through a slower BLAS path, with the same bytes
        return np.swapaxes(cls._mat(p), -1, -2).copy()

    def dproj_bilinear(self, p, u, w):
        pt, um, wm = self._mat_t(p), self._mat(u), self._mat(w)
        # <u, P(p) w>_F = (<u, w> - tr(u^T p w^T p)) / 2
        g = um @ pt @ wm + wm @ pt @ um
        return self._vec(-0.5 * g)

    def dproj_quad(self, p, c):
        # dproj_bilinear(p, c, c) with its two equal terms computed once:
        # -0.5 * (h + h) is -h, and -1.0 * h keeps the NaN of h as it was
        cm = self._mat(c)
        h = cm @ self._mat_t(p) @ cm
        h *= -1.0
        return self._vec(h)

    def proj_derivatives(self, p, frame, c):
        """DP(p)[e] c = -(e c^T p + p c^T e) / 2 for each frame vector e,
        and 1/2 <c, D^2P(p)[e_r, e_s] c> = -tr(c^T e_r c^T e_s) / 2 for each
        pair, with P(p) w = (w - p w^T p) / 2 as in dproj_bilinear.  The
        samples are on the last axis: p and c of shape (9, n), frame and the
        first result of shape (3, 9, n), frame[r, :, j] the r-th vector at
        p_j, and the second result of shape (3, 3, n)."""
        pm, cm, em = p.reshape(3, 3, -1), c.reshape(3, 3, -1), frame.reshape(3, 3, 3, -1)
        cte = np.einsum("baj,rbcj->racj", cm, em)
        dp = np.einsum("rabj,bcj->racj", em, np.einsum("baj,bcj->acj", cm, pm))
        dp += np.einsum("abj,rbcj->racj", pm, cte)
        dp *= -0.5
        return dp.reshape(frame.shape), -0.5 * np.einsum("rabj,sbaj->rsj", cte, cte)

    def weingarten(self, p, g):
        """<E_r, DP(p)[E_s] g> in the body frame E_r = p [e_r]_x / sqrt(2)
        of tangent_frame: -(tr(S) delta_rs - S_rs) / 2 with S the symmetric
        part of p^T g, the normal part of g in body coordinates; shape
        (3, 3, n), laid out as in proj_derivatives."""
        b = np.einsum("baj,bcj->acj", p.reshape(3, 3, -1), g.reshape(3, 3, -1))
        b += b.swapaxes(0, 1)
        b *= 0.25
        b -= (b[0, 0] + b[1, 1] + b[2, 2]) * np.eye(3)[:, :, None]
        return b

    @staticmethod
    def _expm_skew(omega):
        """Rodrigues formula I + a omega + b omega^2 for batched 3x3 skew matrices."""
        t = np.linalg.norm(omega, axis=(-2, -1)) / np.sqrt(2.0)
        tt = t * t
        big = t > 1e-8
        # the quotients are kept only where t > 1e-8, so they need no guard
        # against t = 0
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(big, np.sin(t) / t, 1.0 - tt / 6.0)[..., None, None]
            b = np.where(big, (1.0 - np.cos(t)) / tt, 0.5 - tt / 24.0)[..., None, None]
        # a omega + I is I + a omega bit for bit: addition commutes
        out = a * omega
        out += np.eye(3)
        out += b * (omega @ omega)
        return out

    def exp_ambient(self, p, v):
        pm = self._mat(p)
        om = np.swapaxes(pm, -1, -2) @ self._mat(v)
        om = 0.5 * (om - np.swapaxes(om, -1, -2))
        return self._vec(pm @ self._expm_skew(om))

    @staticmethod
    def _rotation_angle(r):
        """Rotation angle of relative rotations r, atan2-stable near 0."""
        cos = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
        s = 0.5 * (r - np.swapaxes(r, -1, -2))
        sin = np.linalg.norm(s, axis=(-2, -1)) / np.sqrt(2.0)
        return np.arctan2(np.minimum(sin, 1.0), np.clip(cos, -1.0, 1.0))

    def _rel_rotation_log(self, p, q):
        """Skew matrix Omega with p expm(Omega) = q; raises near the cut locus."""
        pm, qm = self._mat(p), self._mat(q)
        r = np.swapaxes(pm, -1, -2) @ qm
        theta = self._rotation_angle(r)
        if np.any(theta >= np.pi - CUT_LOCUS_TOL):
            raise CutLocusError("so3 log: rotation angle is (nearly) pi")
        s = 0.5 * (r - np.swapaxes(r, -1, -2))
        t = theta[..., None, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(t > 1e-8, t / np.where(t > 0, np.sin(t), 1.0), 1.0 + t * t / 6.0)
        return scale * s, theta

    def log(self, p, q):
        om, _ = self._rel_rotation_log(p, q)
        return self._vec(self._mat(p) @ om)

    def dist(self, p, q):
        pm, qm = self._mat(p), self._mat(q)
        r = np.swapaxes(pm, -1, -2) @ qm
        return np.sqrt(2.0) * self._rotation_angle(r)

    def may_reach_cut_locus(self, p, q):
        # the row-wise dot product of the 9-vectors is tr(p^T q) =
        # 1 + 2 cos(angle), negative only beyond an angle of 2 pi / 3; the
        # cut locus is at pi.  einsum rounds the dot product differently
        # from row_dot, which can flip its sign only near 2 pi / 3
        return bool(np.any(np.einsum("...i,...i->...", p, q) < 0.0))


def make_manifold(spec: str) -> Manifold:
    """Build a manifold from its string id: euclidean:d, sphere:d, torus:d, so3."""
    s = str(spec).strip().lower()
    if s == "so3":
        return SO3()
    if ":" in s:
        kind, _, d = s.partition(":")
        try:
            dim = int(d)
        except ValueError:
            raise ConfigError(f"bad manifold dimension in {spec!r}")
        if kind == "euclidean":
            return Euclidean(dim)
        if kind == "sphere":
            return Sphere(dim)
        if kind == "torus":
            return Torus(dim)
    raise ConfigError(f"unknown manifold id {spec!r} "
                      "(expected euclidean:d, sphere:d, torus:d or so3)")
