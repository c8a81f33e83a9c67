"""Constraint sets: clamped endpoint data, knot interpolation, periodicity.

Constraints are realized purely by fixing samples (no multipliers): the free
samples form a product of manifold copies, so descent steps can never violate
a constraint.  Clamped velocity data is encoded by pinning the second sample
one geodesic step along the prescribed velocity; the encoding is first-order
in the grid spacing and its measured effect is reported by the convergence
check suite.

Seeds are piecewise-geodesic interpolants through the fixed data.  Integer
winding hints select the homotopy class on multiply-connected manifolds (and,
on the sphere, the wrapped representative): the hinted wraps are inserted in
the first free segment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curves import DiscreteCurve
from .errors import ConfigError, CutLocusError
from .manifolds import SO3, Euclidean, Manifold, Sphere, Torus

_KNOT_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class ConstraintSet:
    """Tagged constraint kind: clamped | interpolation | periodic."""

    kind: str
    k: int = 1
    left_pos: Optional[np.ndarray] = field(default=None, repr=False)
    left_vel: Optional[np.ndarray] = field(default=None, repr=False)
    right_pos: Optional[np.ndarray] = field(default=None, repr=False)
    right_vel: Optional[np.ndarray] = field(default=None, repr=False)
    knot_times: Optional[np.ndarray] = field(default=None, repr=False)
    knot_points: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("left_pos", "left_vel", "right_pos", "right_vel",
                     "knot_times", "knot_points"):
            v = getattr(self, name)
            if v is not None:
                try:
                    v = np.asarray(v, float)
                except (TypeError, ValueError):
                    raise ConfigError(f"constraint data {name} must be numeric") from None
                if not np.all(np.isfinite(v)):
                    raise ConfigError(f"constraint data {name} must be finite")
                object.__setattr__(self, name, v)
        if self.kind == "clamped":
            if self.k not in (1, 2):
                raise ConfigError("clamped constraints support k in {1, 2}")
            if self.left_pos is None or self.right_pos is None:
                raise ConfigError("clamped constraints need left and right positions")
            if self.k == 2 and (self.left_vel is None or self.right_vel is None):
                raise ConfigError("clamped k=2 needs velocities at both ends")
            if self.k == 1 and (self.left_vel is not None or self.right_vel is not None):
                raise ConfigError("clamped k=1 carries positions only")
        elif self.kind == "interpolation":
            if self.knot_times is None or self.knot_points is None or \
                    len(self.knot_times) != len(self.knot_points) or len(self.knot_times) < 2:
                raise ConfigError("interpolation needs at least two (time, point) knots")
            if len(set(np.round(self.knot_times, 12))) != len(self.knot_times):
                raise ConfigError("interpolation knot times must be distinct")
            if np.any(np.diff(self.knot_times) <= 0):
                raise ConfigError("interpolation knot times must be increasing")
        elif self.kind != "periodic":
            raise ConfigError(f"unknown constraint kind {self.kind!r}")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def clamped(left_pos, right_pos, left_vel=None, right_vel=None) -> "ConstraintSet":
        k = 2 if left_vel is not None or right_vel is not None else 1
        return ConstraintSet("clamped", k=k, left_pos=left_pos, left_vel=left_vel,
                             right_pos=right_pos, right_vel=right_vel)

    @staticmethod
    def interpolation(knots) -> "ConstraintSet":
        times = [t for t, _ in knots]
        points = [p for _, p in knots]
        return ConstraintSet("interpolation", knot_times=times, knot_points=points)

    @staticmethod
    def periodic() -> "ConstraintSet":
        return ConstraintSet("periodic")

    def knot_indices(self, n_grid: int) -> np.ndarray:
        idx = self.knot_times * n_grid
        snapped = np.rint(idx)
        if np.any(np.abs(idx - snapped) > _KNOT_SNAP_TOL * n_grid):
            raise ConfigError("knot time not on grid")
        return snapped.astype(int)


def fixed_indices(c: ConstraintSet, n_grid: int, domain: str = "interval") -> np.ndarray:
    if c.kind == "periodic":
        if domain != "circle":
            raise ConfigError("periodic constraints require the circle domain")
        return np.array([], int)
    if domain != "interval":
        raise ConfigError(f"{c.kind} constraints require the interval domain")
    if c.kind == "clamped":
        if c.k == 1:
            return np.array([0, n_grid])
        return np.array([0, 1, n_grid - 1, n_grid])
    idx = c.knot_indices(n_grid)
    if np.any(idx < 0) or np.any(idx > n_grid):
        raise ConfigError("knot times must lie in [0, 1]")
    return idx


def free_mask(c: ConstraintSet, n_grid: int, domain: str = "interval") -> np.ndarray:
    """Indices of samples the optimizer may move."""
    n_samples = n_grid + 1 if domain == "interval" else n_grid
    fixed = fixed_indices(c, n_grid, domain)
    return np.setdiff1d(np.arange(n_samples), fixed)


def impose(c: ConstraintSet, curve: DiscreteCurve) -> DiscreteCurve:
    """Overwrite the fixed samples with the constraint data; idempotent."""
    m = curve.manifold
    n = curve.grid_n
    x = np.array(curve.samples)
    if c.kind == "periodic":
        fixed_indices(c, n, curve.domain)
        return curve
    fixed_indices(c, n, curve.domain)  # validates domain
    if c.kind == "clamped":
        x[0] = m.canonicalize(c.left_pos)
        x[-1] = m.canonicalize(c.right_pos)
        if c.k == 2:
            for vel in (c.left_vel, c.right_vel):
                if np.linalg.norm(vel) / n >= m.injectivity_radius:
                    raise ConfigError("clamped velocity exceeds one grid step "
                                      "(||v||/N beyond the injectivity radius)")
            x[1] = m.exp(x[0], m.project_tangent(x[0], c.left_vel) / n)
            x[-2] = m.exp(x[-1], -m.project_tangent(x[-1], c.right_vel) / n)
    else:
        idx = c.knot_indices(n)
        x[idx] = m.canonicalize(c.knot_points)
    return curve.with_samples(x)


def is_feasible(c: ConstraintSet, curve: DiscreteCurve, tol: float = 0.0) -> bool:
    imposed = impose(c, curve)
    if tol == 0.0:
        return bool(np.array_equal(imposed.samples, curve.samples))
    return bool(np.max(np.abs(imposed.samples - curve.samples)) <= tol)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def _normalize_hint(m: Manifold, hint) -> np.ndarray:
    if hint is None:
        return np.zeros(m.ambient_dim if isinstance(m, Torus) else 1, int)
    h = np.atleast_1d(np.asarray(hint))
    if not np.issubdtype(h.dtype, np.integer):
        # NaN, an infinity or a value beyond int64 would cast to a wrong integer
        if not (np.all(np.abs(h) < 2.0**63) and np.all(h == np.rint(h))):
            raise ConfigError("winding hints must be integers")
        h = np.rint(h).astype(int)
    if isinstance(m, Torus):
        if h.shape != (m.ambient_dim,):
            raise ConfigError(f"torus winding hint needs {m.ambient_dim} integers")
    else:
        if h.shape != (1,):
            raise ConfigError("winding hint must be a single integer on this manifold")
        if np.any(h != 0) and isinstance(m, Euclidean):
            raise ConfigError("winding hints are meaningless on euclidean space")
    return h


def _geodesic_segment(m: Manifold, p: np.ndarray, q: np.ndarray,
                      s: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Sample the (possibly wrapped) geodesic from p to q at parameters s in [0, 1]."""
    p = m.canonicalize(np.asarray(p, float))
    q = m.canonicalize(np.asarray(q, float))
    s = np.asarray(s, float)
    wrapped = bool(np.any(hint != 0))
    if isinstance(m, Torus):
        delta = Torus.wrap(q - p) + 2 * np.pi * hint
        return m.canonicalize(p[None, :] + s[:, None] * delta[None, :])
    if not wrapped:
        try:
            v = m.log(p, q)
        except CutLocusError as e:
            raise CutLocusError(f"{e}; seeding between (near-)cut-locus points "
                                "requires an explicit winding hint / plane") from e
        return m.exp(np.broadcast_to(p, (len(s), m.ambient_dim)), s[:, None] * v[None, :])
    w = int(hint[0])
    if isinstance(m, Sphere):
        theta = float(m.dist(p, q))
        if theta >= np.pi - 1e-8:
            raise CutLocusError("cannot wrap through antipodal points: the great-circle "
                                "plane is ambiguous")
        if theta < 1e-12:
            e = m.project_tangent(p, _any_direction(m.ambient_dim, p))
        else:
            e = m.log(p, q) / theta
            e = e / np.linalg.norm(e)
        total = theta + 2 * np.pi * w
        ang = s[:, None] * total
        return m.canonicalize(np.cos(ang) * p[None, :] + np.sin(ang) * e[None, :])
    if isinstance(m, SO3):
        pm = p.reshape(3, 3)
        om = m._rel_rotation_log(p, q)[0]
        theta = np.linalg.norm(om) / np.sqrt(2.0)
        if theta < 1e-12:
            axis = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        else:
            axis = om / theta
        total = theta + 2 * np.pi * w
        out = np.empty((len(s), 9))
        for i, si in enumerate(s):
            out[i] = (pm @ SO3._expm_skew(si * total * axis)).reshape(9)
        return m.canonicalize(out)
    raise ConfigError(f"winding hints are not supported on {m.name}")


def _any_direction(dim: int, p: np.ndarray) -> np.ndarray:
    basis = np.zeros(dim)
    basis[int(np.argmin(np.abs(p)))] = 1.0
    return basis


def seed(c: ConstraintSet, m: Manifold, n_grid: int, domain: str = "interval",
         hint=None) -> DiscreteCurve:
    """Piecewise-geodesic interpolant through the fixed data.

    The winding hint (integer vector on the torus, integer elsewhere) inserts
    full wraps in the first free segment; the result satisfies impose exactly.
    """
    h = _normalize_hint(m, hint)
    if c.kind == "periodic":
        return _seed_periodic(m, n_grid, h)
    fixed_indices(c, n_grid, domain)
    if c.kind == "clamped":
        x = np.empty((n_grid + 1, m.ambient_dim))
        left = m.canonicalize(np.asarray(c.left_pos, float))
        right = m.canonicalize(np.asarray(c.right_pos, float))
        if c.k == 1:
            s = np.arange(n_grid + 1) / n_grid
            x[:] = _geodesic_segment(m, left, right, s, h)
        else:
            x[0] = left
            x[-1] = right
            x[1] = m.exp(left, m.project_tangent(left, c.left_vel) / n_grid)
            x[-2] = m.exp(right, -m.project_tangent(right, c.right_vel) / n_grid)
            s = np.arange(n_grid - 1) / (n_grid - 2)
            x[1:-1] = _geodesic_segment(m, x[1], x[-2], s, h)
        return impose(c, DiscreteCurve(m, domain, x))
    # interpolation
    idx = c.knot_indices(n_grid)
    pts = m.canonicalize(c.knot_points)
    x = np.empty((n_grid + 1, m.ambient_dim))
    x[:idx[0] + 1] = pts[0]
    x[idx[-1]:] = pts[-1]
    zero_h = np.zeros_like(h)
    for seg in range(len(idx) - 1):
        a, b = idx[seg], idx[seg + 1]
        s = np.arange(b - a + 1) / (b - a)
        x[a:b + 1] = _geodesic_segment(m, pts[seg], pts[seg + 1], s,
                                       h if seg == 0 else zero_h)
    return impose(c, DiscreteCurve(m, domain, x))


def _seed_periodic(m: Manifold, n_grid: int, hint: np.ndarray) -> DiscreteCurve:
    t = np.arange(n_grid) / n_grid
    if isinstance(m, Torus):
        x = m.canonicalize(2 * np.pi * t[:, None] * hint[None, :].astype(float))
        return DiscreteCurve(m, "circle", x)
    w = int(hint[0])
    if isinstance(m, Euclidean):
        return DiscreteCurve(m, "circle", np.zeros((n_grid, m.ambient_dim)))
    if isinstance(m, Sphere):
        p = np.zeros(m.ambient_dim)
        p[0] = 1.0
        e = np.zeros(m.ambient_dim)
        e[1] = 1.0
        ang = 2 * np.pi * w * t[:, None]
        return DiscreteCurve(m, "circle", np.cos(ang) * p[None, :] + np.sin(ang) * e[None, :])
    if isinstance(m, SO3):
        eye = np.eye(3).reshape(9)
        if w == 0:
            return DiscreteCurve(m, "circle", np.tile(eye, (n_grid, 1)))
        axis = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        x = np.empty((n_grid, 9))
        for i, ti in enumerate(t):
            x[i] = SO3._expm_skew(2 * np.pi * w * ti * axis).reshape(9)
        return DiscreteCurve(m, "circle", x)
    raise ConfigError(f"periodic seeding is not supported on {m.name}")


def constraint_from_config(cfg: dict) -> ConstraintSet:
    """Build a ConstraintSet from its JSON description."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("constraints config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "clamped":
        k = cfg.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ConfigError(f"constraints k must be an integer, got {k!r}")
        left, right = cfg.get("left"), cfg.get("right")
        if not isinstance(left, dict) or not isinstance(right, dict):
            raise ConfigError("clamped constraints need 'left' and 'right' objects")
        lv = left.get("velocity") if k == 2 else None
        rv = right.get("velocity") if k == 2 else None
        if k == 2 and (lv is None or rv is None):
            raise ConfigError("clamped k=2 needs velocities at both ends")
        return ConstraintSet("clamped", k=k,
                             left_pos=left.get("position"), left_vel=lv,
                             right_pos=right.get("position"), right_vel=rv)
    if kind == "interpolation":
        knots = cfg.get("knots")
        if not knots or not isinstance(knots, list):
            raise ConfigError("interpolation needs a 'knots' list")
        for i, kn in enumerate(knots):
            if not isinstance(kn, dict) or "t" not in kn or "position" not in kn:
                raise ConfigError(f"knot {i} must be an object with 't' and 'position'")
            if isinstance(kn["t"], bool) or not isinstance(kn["t"], numbers.Real):
                raise ConfigError(f"knot {i} 't' must be a real number, got {kn['t']!r}")
        return ConstraintSet.interpolation([(kn["t"], kn["position"]) for kn in knots])
    if kind == "periodic":
        return ConstraintSet.periodic()
    raise ConfigError(f"unknown constraint kind {kind!r}")
