"""Constraint sets: clamped endpoint data, knot interpolation, periodicity.

Constraints are realized purely by fixing samples (no multipliers): the free
samples form a product of manifold copies, so descent steps can never violate
a constraint.  Clamped velocity data is encoded by pinning the second sample
one geodesic step along the prescribed velocity.  The convergence check suite
measures its effect: the sup distance to the exact solution falls at order
1.95 and 1.94 on its two clamped scenarios (2.96-3.01 position-only).

Seeds are piecewise-geodesic interpolants through the fixed data; impose and
seed take the fixed rows from one definition (`_pinned`), which first refuses
data that does not fit the manifold (`validate_geometry`, the check the
config applies too).  Each geodesic segment runs along one tangent vector,
and one Manifold.exp call samples every segment.  Integer winding hints
select the homotopy class on multiply-connected manifolds (and, on the
sphere and SO(3), the wrapped representative): the hinted wraps are
inserted in the first segment with a free sample.  impose returns a curve
whose fixed samples already hold the data as it is, so a solve from a seed
validates no copy of it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .curves import DiscreteCurve
from .errors import ConfigError, CutLocusError
from .manifolds import SO3, Euclidean, Manifold, Sphere, Torus

_KNOT_SNAP_TOL = 1e-9
ON_MANIFOLD_TOL = 1e-6   # largest constraint residual of a configured point
# generator of rotations about the z axis: the wrap direction of SO(3) loops
_BODY_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


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
            if self.knot_points.ndim != 2:
                raise ConfigError("constraint data knot_points must be one coordinate "
                                  "list per knot")
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
        # the times increase, so knots that share a sample are neighbours
        shared = np.flatnonzero(np.diff(snapped) == 0)
        if len(shared):
            i = int(shared[0])
            t0, t1 = float(self.knot_times[i]), float(self.knot_times[i + 1])
            raise ConfigError(f"knots {i} (t = {t0!r}) and {i + 1} (t = {t1!r}) snap to "
                              f"the same grid sample {int(snapped[i])}")
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
    keep = np.ones(n_grid + 1 if domain == "interval" else n_grid, bool)
    keep[fixed_indices(c, n_grid, domain)] = False
    return np.flatnonzero(keep)


def impose(c: ConstraintSet, curve: DiscreteCurve) -> DiscreteCurve:
    """Overwrite the fixed samples with the constraint data; idempotent.

    The curve itself is returned when its fixed samples already hold the
    data byte for byte (a seed does), as it is when nothing is fixed.
    """
    idx, rows = _pinned(c, curve.manifold, curve.grid_n, curve.domain)
    if not len(idx) or curve.samples[idx].tobytes() == rows.tobytes():
        return curve
    x = np.array(curve.samples)
    x[idx] = rows
    return curve.with_samples(x)


def validate_geometry(m: Manifold, c: ConstraintSet) -> None:
    """Refuse constraint data that does not fit m: a position or velocity of
    the wrong width, or a position farther than ON_MANIFOLD_TOL off m."""
    dim = m.ambient_dim

    def check_vec(v, what):
        if v is not None and v.shape != (dim,):
            raise ConfigError(f"{what} must have {dim} coordinates on {m.name}")

    if c.kind == "clamped":
        check_vec(c.left_pos, "left position")
        check_vec(c.right_pos, "right position")
        check_vec(c.left_vel, "left velocity")
        check_vec(c.right_vel, "right velocity")
        for p, what in ((c.left_pos, "left position"), (c.right_pos, "right position")):
            if m.constraint_residual(p) > ON_MANIFOLD_TOL:
                raise ConfigError(f"{what} is not on {m.name}")
    elif c.kind == "interpolation":
        if c.knot_points.shape[1] != dim:
            raise ConfigError(f"knot positions must have {dim} coordinates")
        res = m.constraint_residual(c.knot_points)
        if np.any(res > ON_MANIFOLD_TOL):
            raise ConfigError(f"knot {int(np.argmax(res))} is not on {m.name}")


def _pinned(c: ConstraintSet, m: Manifold, n_grid: int,
            domain: str) -> Tuple[np.ndarray, np.ndarray]:
    """The fixed sample indices, ascending, and the rows the data pins there,
    once validate_geometry has accepted the data."""
    idx = fixed_indices(c, n_grid, domain)
    validate_geometry(m, c)
    if c.kind == "periodic":
        return idx, np.empty((0, m.ambient_dim))
    if c.kind == "interpolation":
        return idx, m.canonicalize(c.knot_points)
    left = m.canonicalize(c.left_pos)
    right = m.canonicalize(c.right_pos)
    if c.k == 1:
        return idx, np.stack([left, right])
    for vel in (c.left_vel, c.right_vel):
        if np.linalg.norm(vel) / n_grid >= m.injectivity_radius:
            raise ConfigError("clamped velocity exceeds one grid step "
                              "(||v||/N beyond the injectivity radius)")
    return idx, np.stack([left, m.exp(left, m.project_tangent(left, c.left_vel) / n_grid),
                          m.exp(right, -m.project_tangent(right, c.right_vel) / n_grid),
                          right])


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def zero_hint(m: Manifold) -> np.ndarray:
    """The zero winding hint on m: one entry per coordinate on the torus, one
    elsewhere."""
    return np.zeros(m.ambient_dim if isinstance(m, Torus) else 1, int)


def _normalize_hint(m: Manifold, hint) -> np.ndarray:
    if hint is None:
        return zero_hint(m)
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


def _geodesic_vectors(m: Manifold, p: np.ndarray, q: np.ndarray, hint: np.ndarray):
    """The canonical starts p and the tangent vectors v at them of the
    (possibly wrapped) geodesics from each row of p to the same row of q,
    whose samples are m.exp(p, s*v) at parameters s in [0, 1].

    On the torus v is the wrapped displacement, plus 2*pi*hint in the first
    row.  Elsewhere v is log(p, q), and a nonzero hint w stretches the first
    row's by w closed geodesics, each of length 2 * injectivity_radius.
    Every operation acts row by row, so a row's bytes do not depend on the
    other rows.
    """
    p = m.canonicalize(np.asarray(p, float))
    q = m.canonicalize(np.asarray(q, float))
    if isinstance(m, Torus):
        wraps = np.zeros(p.shape, hint.dtype)
        wraps[0] = hint
        return p, Torus.wrap(q - p) + 2 * np.pi * wraps
    try:
        v = m.log(p, q)
    except CutLocusError as e:
        raise CutLocusError(f"{e}; the geodesic between (near-)cut-locus points "
                            "is ambiguous, so the seed needs a knot between them") from e
    w = int(hint[0])
    if w:
        r = float(np.linalg.norm(v[0]))
        e = v[0] / r if r >= 1e-12 else _any_direction(m, p[0])
        v[0] = (r + w * 2 * m.injectivity_radius) * e
    return p, v


def _any_direction(m: Manifold, p: np.ndarray) -> np.ndarray:
    """A unit tangent vector at p: the body-z rotation on SO(3), elsewhere the
    projection of the coordinate axis along which p is smallest."""
    if isinstance(m, SO3):
        d = (p.reshape(3, 3) @ _BODY_Z).reshape(9)
    else:
        d = np.zeros(m.ambient_dim)
        d[int(np.argmin(np.abs(p)))] = 1.0
        d = m.project_tangent(p, d)
    return d / np.linalg.norm(d)


def seed(c: ConstraintSet, m: Manifold, n_grid: int, domain: str = "interval",
         hint=None) -> DiscreteCurve:
    """Piecewise-geodesic interpolant through the fixed data.

    The pinned samples hold the rows impose writes, so the result satisfies
    impose exactly.  Each stretch between consecutive pinned samples that
    holds a free sample is a geodesic segment; free samples before the first
    or after the last pinned one repeat its row.  The winding hint (integer
    vector on the torus, integer elsewhere) adds its full wraps to the first
    such segment; a hint with no segment to wrap is a ConfigError.  A closed
    seed is one segment from a base point (0, e_0 or I) back to itself.
    """
    h = _normalize_hint(m, hint)
    idx, rows = _pinned(c, m, n_grid, domain)
    if c.kind == "periodic":
        base = np.eye(3).reshape(9) if isinstance(m, SO3) else np.zeros(m.ambient_dim)
        if isinstance(m, Sphere):
            base[0] = 1.0
        p, v = _geodesic_vectors(m, base[None], base[None], h)
        s = np.arange(n_grid) / n_grid
        return DiscreteCurve(m, domain, m.exp(np.broadcast_to(p, (n_grid, m.ambient_dim)),
                                              s[:, None] * v))
    x = np.empty((n_grid + 1, m.ambient_dim))
    x[:idx[0]] = rows[0]
    x[idx[-1]:] = rows[-1]
    x[idx] = rows
    seg = np.flatnonzero(np.diff(idx) > 1)   # the stretches that hold a free sample
    if len(seg):
        # every segment's free samples in one exp: sample a + j of the
        # segment from a to b is at s = j / (b - a)
        p, v = _geodesic_vectors(m, rows[seg], rows[seg + 1], h)
        a, b = idx[seg], idx[seg + 1]
        which = np.repeat(np.arange(len(seg)), b - a - 1)   # each free sample's segment
        at = np.concatenate([np.arange(lo + 1, hi) for lo, hi in zip(a, b)])
        s = (at - a[which]) / (b - a)[which]
        x[at] = m.exp(p[which], s[:, None] * v[which])
    elif np.any(h != 0):
        raise ConfigError("a winding hint needs a free sample between two pinned ones")
    return DiscreteCurve(m, domain, x)


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
