"""Prior vector fields A(t, x) used by the conditional-extremal functionals.

Every field kind carries an analytic sup bound; construction spot-checks the
bound on random samples so the boundedness hypothesis behind the existence
diagnostics is machine-checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, UsageError
from .manifolds import SO3, Manifold, Sphere, Torus, row_cross, row_norm

_SPOT_CHECK_DRAWS = 10_000
_SPOT_CHECK_SEED = 20260810


def _cross_matrix(w: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


@dataclass(frozen=True)
class PriorField:
    """Tangent-valued field on a manifold, optionally modulated in time.

    kind: zero | constant_ambient | sphere_rotation | so3_left_invariant |
    torus_constant.  params is the kind's parameter vector (rotation axis,
    ambient vector, skew-generator axis, ...).  modulation, when given, is a
    scalar sample per grid node; eval reads it at grid times only.
    """

    manifold: Manifold
    kind: str
    params: np.ndarray = field(default=None, repr=False)
    modulation: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        p = None if self.params is None else np.asarray(self.params, float)
        object.__setattr__(self, "params", p)
        if self.modulation is not None:
            object.__setattr__(self, "modulation", np.asarray(self.modulation, float))
        self._validate()
        self._spot_check_bound()

    def _validate(self):
        m, k = self.manifold, self.kind
        if k == "zero":
            return
        if k == "constant_ambient":
            if self.params is None or self.params.shape != (m.ambient_dim,):
                raise ConfigError("constant_ambient needs an ambient-dimension vector")
        elif k == "sphere_rotation":
            if not (isinstance(m, Sphere) and m.ambient_dim == 3):
                raise ConfigError("sphere_rotation requires sphere:2")
            if self.params is None or self.params.shape != (3,):
                raise ConfigError("sphere_rotation needs a 3-vector axis")
        elif k == "so3_left_invariant":
            if not isinstance(m, SO3):
                raise ConfigError("so3_left_invariant requires the so3 manifold")
            if self.params is None or self.params.shape != (3,):
                raise ConfigError("so3_left_invariant needs a 3-vector (skew generator axis)")
        elif k == "torus_constant":
            if not isinstance(m, Torus):
                raise ConfigError("torus_constant requires a torus manifold")
            if self.params is None or self.params.shape != (m.ambient_dim,):
                raise ConfigError("torus_constant needs a torus-dimension vector")
        else:
            raise ConfigError(f"unknown field kind {self.kind!r}")

    # -- evaluation ---------------------------------------------------------

    def _modulation_at(self, t: np.ndarray) -> Optional[np.ndarray]:
        """Modulation at grid times t, shape (..., 1); None when unmodulated.

        Unmodulated values are returned as they are: 1.0 * v == v bit for bit.
        """
        if self.modulation is None:
            return None
        n = self.modulation.shape[0] - 1
        idx = np.rint(np.asarray(t, float) * n).astype(int)
        if np.any(np.abs(np.asarray(t) * n - idx) > 1e-9):
            raise UsageError("modulated fields are defined at grid times only")
        return self.modulation[idx][..., None]

    def eval(self, t: float, point) -> "TangentVector":
        """Field value at a single (t, p) as a typed tangent vector."""
        from .manifolds import ManifoldPoint, TangentVector
        if not isinstance(point, ManifoldPoint):
            point = ManifoldPoint(self.manifold, np.asarray(point, float))
        v = self.eval_many(np.array([float(t)]), point.coords[None, :])[0]
        return TangentVector(point, v)

    def eval_many(self, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Field values at (t_j, x_j); rows of points are manifold points."""
        points = np.asarray(points, float)
        m = self._modulation_at(t)
        if self.kind == "zero":
            return np.zeros_like(points)
        if self.kind == "constant_ambient":
            v = self.manifold.project_tangent(points, np.broadcast_to(self.params, points.shape))
        elif self.kind == "sphere_rotation":
            v = row_cross(self.params, points)
        elif self.kind == "so3_left_invariant":
            omega = _cross_matrix(self.params)
            mats = points.reshape(points.shape[:-1] + (3, 3))
            v = (mats @ omega).reshape(points.shape)
        elif self.kind == "torus_constant":
            v = np.broadcast_to(self.params, points.shape).copy()   # not a view of params
        return v if m is None else m * v

    def grad_inner(self, c: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Ambient gradient in x of <c, A(t, x)> with c held fixed."""
        points = np.asarray(points, float)
        c = np.asarray(c, float)
        m = self._modulation_at(t)
        if self.kind in ("zero", "torus_constant"):
            return np.zeros_like(points)
        if self.kind == "constant_ambient":
            v = np.broadcast_to(self.params, points.shape)
            g = self.manifold.dproj_bilinear(points, c, v)
        elif self.kind == "sphere_rotation":
            g = -row_cross(self.params, c)
        elif self.kind == "so3_left_invariant":
            omega = _cross_matrix(self.params)
            cm = c.reshape(c.shape[:-1] + (3, 3))
            g = (cm @ omega.T).reshape(points.shape)
        return g if m is None else m * g

    def grad_sq(self, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Ambient gradient in x of ||A(t, x)||^2."""
        points = np.asarray(points, float)
        m = self._modulation_at(t)
        if self.kind in ("zero", "torus_constant"):
            return np.zeros_like(points)
        if self.kind == "constant_ambient":
            v = np.broadcast_to(self.params, points.shape)
            g = self.manifold.dproj_bilinear(points, v, v)
        elif self.kind == "sphere_rotation":
            g = -2.0 * row_cross(self.params, row_cross(self.params, points))
        elif self.kind == "so3_left_invariant":
            omega = _cross_matrix(self.params)
            mats = points.reshape(points.shape[:-1] + (3, 3))
            g = (2.0 * mats @ omega @ omega.T).reshape(points.shape)
        return g if m is None else m**2 * g

    # -- boundedness ----------------------------------------------------------

    def bound(self) -> float:
        """Analytic sup bound for ||A(t, x)|| over all t and x."""
        msup = 1.0 if self.modulation is None else float(np.max(np.abs(self.modulation)))
        if self.kind == "zero":
            return 0.0
        if self.kind == "so3_left_invariant":
            return msup * float(np.linalg.norm(_cross_matrix(self.params)))
        return msup * float(np.linalg.norm(self.params))

    def _spot_check_bound(self):
        if self.kind == "zero":
            return
        rng = np.random.default_rng(_SPOT_CHECK_SEED)
        pts = self.manifold.random_point(rng, _SPOT_CHECK_DRAWS)
        if self.modulation is None:
            t = np.zeros(_SPOT_CHECK_DRAWS)
        else:
            n = self.modulation.shape[0] - 1
            t = rng.integers(0, n + 1, size=_SPOT_CHECK_DRAWS) / n
        norms = row_norm(self.eval_many(t, pts))
        b = self.bound()
        if np.max(norms) > b * (1.0 + 1e-12) + 1e-15:
            raise ConfigError(f"field bound() = {b} violated by random sample "
                              f"({np.max(norms)})")


def zero_field(manifold: Manifold) -> PriorField:
    return PriorField(manifold, "zero")


def field_from_config(manifold: Manifold, cfg: dict) -> PriorField:
    """Build a field from {"kind": ..., "params": [...], "modulation": [...]}."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("field config must be an object with a 'kind'")
    arrays = {}
    for key in ("params", "modulation"):
        if cfg.get(key) is not None:
            try:
                arrays[key] = np.asarray(cfg[key], float)
            except (TypeError, ValueError):
                raise ConfigError(f"field {key} must be a list of numbers") from None
    return PriorField(manifold, cfg["kind"], arrays.get("params"), arrays.get("modulation"))
