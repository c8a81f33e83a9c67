"""Prior vector fields A(t, x) used by the conditional-extremal functionals.

Every kind compiles at construction to the parts of one affine map

    A(t, x) = m(t) (P_x b + x ⊠ a),

with P_x the tangent projection, x ⊠ a the cross product of each 3-wide row
block of x with a fixed 3-vector a, and m the optional modulation.  No kind
has both parts.  Every kind carries an analytic sup bound that holds by the
geometry of its manifold (see KINDS); the test suite checks it on random
samples of every kind, so the boundedness hypothesis behind the existence
diagnostics is machine-checked, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, UsageError
from .manifolds import SO3, Manifold, Sphere, Torus, row_cross


class _Kind(NamedTuple):
    manifold: type                # the kind is defined on this manifold class
    ambient_dim: Optional[int]    # of this ambient dimension (None: any)
    cross: float                  # 0: b = params, an ambient vector; else a = cross * params
    bound_factor: float           # bound() = sup|m| * |params| * bound_factor


# |P_x b| <= |b|; omega x x = x x (-omega), at most |omega| for unit x; row i of
# X [xi]_x is r_i x xi, and |X [xi]_x|_F = |[xi]_x|_F = sqrt(2) |xi| for orthogonal X.
# The zero kind, the one with bound factor 0, takes no params: b = 0.
KINDS = {
    "zero": _Kind(Manifold, None, 0.0, 0.0),
    "constant_ambient": _Kind(Manifold, None, 0.0, 1.0),
    "torus_constant": _Kind(Torus, None, 0.0, 1.0),
    "sphere_rotation": _Kind(Sphere, 3, -1.0, 1.0),
    "so3_left_invariant": _Kind(SO3, 9, 1.0, math.sqrt(2.0)),
}


@dataclass(frozen=True)
class PriorField:
    """Tangent-valued field on a manifold, optionally modulated in time.

    kind is a key of KINDS.  params is the kind's parameter vector (ambient
    vector, rotation axis, skew-generator axis); the zero kind has none.
    modulation, when given, is a scalar sample per grid node (at least two),
    read at grid times only; check_grid says which grids it fits.
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
        spec = self._validate()
        if not spec.bound_factor:
            p = np.zeros(self.manifold.ambient_dim)
        object.__setattr__(self, "_a", spec.cross * p if spec.cross else None)
        object.__setattr__(self, "_b", None if spec.cross else p)
        object.__setattr__(self, "_sup", float(np.linalg.norm(p)) * spec.bound_factor)

    def _validate(self) -> _Kind:
        m, spec = self.manifold, KINDS.get(self.kind)
        # a NaN or an infinity would make bound() NaN or inf
        for key in ("params", "modulation"):
            value = getattr(self, key)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"field {key} must be finite")
        if self.modulation is not None and self.modulation.ndim != 1:
            raise ConfigError("field modulation must be a list of numbers")
        # one entry per grid time j/n needs n >= 1
        if self.modulation is not None and len(self.modulation) < 2:
            raise ConfigError("field modulation needs at least 2 entries")
        if spec is None:
            raise ConfigError(f"unknown field kind {self.kind!r}")
        if not isinstance(m, spec.manifold) or spec.ambient_dim not in (None, m.ambient_dim):
            raise ConfigError(f"{self.kind} is not defined on {m.name}")
        n = 3 if spec.cross else m.ambient_dim
        if spec.bound_factor and (self.params is None or self.params.shape != (n,)):
            raise ConfigError(f"{self.kind} needs a vector of {n} params")
        return spec

    def to_config(self) -> dict:
        """The config field_from_config reads back; modulation only when set."""
        cfg = {"kind": self.kind,
               "params": None if self.params is None else list(self.params)}
        if self.modulation is not None:
            cfg["modulation"] = list(self.modulation)
        return cfg

    def check_grid(self, grid_n: int) -> None:
        """Raise UsageError unless the field is defined on a grid of grid_n
        steps: a modulation has one entry per grid time j/grid_n, j = 0..grid_n,
        on both domains."""
        if self.modulation is not None and len(self.modulation) != grid_n + 1:
            raise UsageError(f"field modulation has {len(self.modulation)} entries, "
                             f"but grid_n = {grid_n} needs {grid_n + 1}")

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

    def _cross_a(self, u: np.ndarray) -> np.ndarray:
        """u ⊠ a: each 3-wide row block of u crossed with a."""
        return row_cross(u.reshape(u.shape[:-1] + (-1, 3)), self._a).reshape(u.shape)

    def eval_many(self, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Field values at (t_j, x_j); rows of points are manifold points."""
        points = np.asarray(points, float)
        m = self._modulation_at(t)
        if self._a is None:
            v = self.manifold.project_tangent(points, np.broadcast_to(self._b, points.shape))
        else:
            v = self._cross_a(points)
        return v if m is None else m * v

    def grad_inner(self, c: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Ambient gradient in x of <c, A(t, x)> with c held fixed; a x c = -(c ⊠ a)."""
        points = np.asarray(points, float)
        c = np.asarray(c, float)
        m = self._modulation_at(t)
        if self._a is None:
            g = self.manifold.dproj_bilinear(points, c, np.broadcast_to(self._b, points.shape))
        else:
            g = -self._cross_a(c)
        return g if m is None else m * g

    def grad_sq(self, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Ambient gradient in x of ||A(t, x)||^2; 2 a x (x ⊠ a) = -2 (x ⊠ a) ⊠ a."""
        points = np.asarray(points, float)
        m = self._modulation_at(t)
        if self._a is None:
            b = np.broadcast_to(self._b, points.shape)
            g = self.manifold.dproj_bilinear(points, b, b)
        else:
            g = -2.0 * self._cross_a(self._cross_a(points))
        return g if m is None else m**2 * g

    def offset(self, t: np.ndarray) -> Optional[np.ndarray]:
        """m(t) b, one row per time, for a kind whose A(t, x) is P_x of it
        (each kind but the cross kinds, the zero kind with b = 0); None for
        a cross kind.  Such a term's objective is a function of the raw
        stencil value minus this offset, so that difference carries its
        second derivatives (optimize._add_curvature)."""
        if self._a is not None:
            return None
        m = self._modulation_at(t)
        b = np.broadcast_to(self._b, (len(t), len(self._b)))
        return b if m is None else m * b

    def jacobian(self, t: np.ndarray):
        """(S, m(t)) for a cross kind, whose A(t, x) = m(t) S x is linear
        in x: S the ambient_dim-square matrix of x -> x ⊠ a, and m(t) one
        modulation entry per time, or None when unmodulated.  None for the
        other kinds (see offset)."""
        if self._a is None:
            return None
        k = self._cross_a(np.eye(self.manifold.ambient_dim)).T   # column i is e_i ⊠ a
        m = self._modulation_at(t)
        return k, None if m is None else m[:, 0]

    # -- boundedness ----------------------------------------------------------

    def bound(self) -> float:
        """Analytic sup bound for ||A(t, x)|| over all t and x."""
        msup = 1.0 if self.modulation is None else float(np.max(np.abs(self.modulation)))
        return msup * self._sup


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
