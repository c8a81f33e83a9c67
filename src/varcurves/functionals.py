"""Action functionals on discrete curves and their exact gradients.

Three families share one discretization:

* tension(tau):      1/2 (||accel||_L2^2 + tau^2 ||velocity||_L2^2)
* conditional(k, A): 1/2 ||D^{k-1} velocity - A(t, x)||_L2^2   for k in {1, 2}
* energy(k):         1/2 sum_{i<k} ||D^i velocity||_L2^2

The discrete objective is differentiated exactly (discretize-then-optimize):
gradients are ambient derivatives of the discrete sums, projected to the
tangent spaces of the free samples.  This makes every finite-difference
directional-derivative check exact up to roundoff, independent of the
discretization error of the underlying stencils.

tension(0) and conditional(2, zero field) follow the same arithmetic and agree
bitwise on every curve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import DiscreteCurve, TangentField, interior_weights, node_weights
from .errors import ConfigError, UsageError
from .fields import PriorField, field_from_config
from .manifolds import row_dot

_VALID_KINDS = ("tension", "conditional", "energy")


@dataclass(frozen=True)
class FunctionalSpec:
    """Tagged choice of action functional."""

    kind: str
    tau: float = 0.0
    k: int = 0
    field: Optional[PriorField] = None

    def __post_init__(self):
        if self.kind == "tension":
            tau = self.tau
            if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
                raise ConfigError(f"tau must be a real number, got {tau!r}")
            tau = float(tau)
            # NaN passes tau < 0, and an infinite tau**2 makes the model
            # Hessian singular
            if not math.isfinite(tau * tau):
                raise ConfigError(f"tau must be finite with a finite square, got {tau!r}")
            if tau < 0:
                raise ConfigError("tension parameter must be >= 0")
            object.__setattr__(self, "tau", tau)
        elif self.kind in ("conditional", "energy"):
            if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
                raise ConfigError(f"k must be an integer, got {self.k!r}")
            if self.k not in (1, 2):
                raise ConfigError("conditional extremals support k in {1, 2}"
                                  if self.kind == "conditional" else
                                  "energy order must be 1 or 2")
            object.__setattr__(self, "k", int(self.k))
        else:
            raise ConfigError(f"unknown functional kind {self.kind!r}")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def tension_cost(tau: float) -> "FunctionalSpec":
        return FunctionalSpec("tension", tau=tau)

    @staticmethod
    def conditional(k: int, field: Optional[PriorField] = None) -> "FunctionalSpec":
        return FunctionalSpec("conditional", k=k, field=field)

    @staticmethod
    def energy(k: int) -> "FunctionalSpec":
        return FunctionalSpec("energy", k=k)

    @staticmethod
    def from_config(cfg: dict, manifold=None) -> "FunctionalSpec":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise ConfigError("functional config must be an object with a 'kind'")
        kind = cfg["kind"]
        if kind == "tension":
            return FunctionalSpec.tension_cost(cfg.get("tau", 0.0))
        if kind == "conditional":
            fld = cfg.get("field")
            field = None
            if fld is not None and not isinstance(fld, dict):
                raise ConfigError("field must be an object with a 'kind'")
            if fld is not None and fld.get("kind") != "zero":
                if manifold is None:
                    raise ConfigError("a manifold is required to build the prior field")
                field = field_from_config(manifold, fld)
            return FunctionalSpec.conditional(cfg.get("k", 1), field)
        if kind == "energy":
            return FunctionalSpec.energy(cfg.get("k", 2))
        raise ConfigError(f"unknown functional kind {kind!r}")

    def to_config(self) -> dict:
        if self.kind == "tension":
            return {"kind": "tension", "tau": self.tau}
        if self.kind == "conditional":
            fld = {"kind": "zero"} if self.field is None else {
                "kind": self.field.kind,
                "params": None if self.field.params is None else list(self.field.params),
            }
            return {"kind": "conditional", "k": self.k, "field": fld}
        return {"kind": "energy", "k": self.k}

    def describe(self) -> str:
        if self.kind == "tension":
            return f"tension(tau={self.tau:g})"
        if self.kind == "conditional":
            f = "zero" if self.field is None else self.field.kind
            return f"conditional(k={self.k}, field={f})"
        return f"energy(k={self.k})"


def _check_field(spec: FunctionalSpec, curve: DiscreteCurve) -> None:
    if spec.field is not None and spec.field.manifold.name != curve.manifold.name:
        raise UsageError("prior field and curve live on different manifolds")


def evaluate(spec: FunctionalSpec, curve: DiscreteCurve) -> float:
    """Value of the discrete action functional; always >= 0."""
    _check_field(spec, curve)
    x = curve.samples
    total = 0.0

    if spec.kind == "tension" or (spec.kind == "energy" and spec.k == 2) or \
            (spec.kind == "conditional" and spec.k == 2):
        a = curve.accel_vectors
        wa = interior_weights(curve)
        if spec.kind == "conditional" and spec.field is not None:
            a = a - spec.field.eval_many(curve.times, x)
        total += 0.5 * float(np.sum(wa * row_dot(a, a)))

    needs_vel = (spec.kind == "tension" and spec.tau != 0.0) or \
        spec.kind == "energy" or (spec.kind == "conditional" and spec.k == 1)
    if needs_vel:
        v = curve.velocity_vectors
        wv = node_weights(curve)
        if spec.kind == "conditional":
            r = v - (spec.field.eval_many(curve.times, x) if spec.field is not None
                     else np.zeros_like(v))
            total += 0.5 * float(np.sum(wv * row_dot(r, r)))
        else:
            coef = spec.tau**2 if spec.kind == "tension" else 1.0
            total += 0.5 * coef * float(np.sum(wv * row_dot(v, v)))
    return total


def _second_stencil_transpose(curve: DiscreteCurve, rows: np.ndarray) -> np.ndarray:
    """Adjoint of the second-difference stencil applied to weighted residual rows."""
    n = curve.grid_n
    n2 = float(n) * n
    if curve.domain == "circle":
        return n2 * (np.roll(rows, 1, axis=0) - 2.0 * rows + np.roll(rows, -1, axis=0))
    g = np.zeros_like(rows)
    mid = rows[1:-1]
    g[:-2] += n2 * mid
    g[1:-1] -= 2.0 * n2 * mid
    g[2:] += n2 * mid
    return g


def _first_stencil_transpose(curve: DiscreteCurve, rows: np.ndarray) -> np.ndarray:
    """Adjoint of the first-difference stencil applied to weighted residual rows."""
    n = curve.grid_n
    h = float(n) / 2.0
    if curve.domain == "circle":
        return h * (np.roll(rows, 1, axis=0) - np.roll(rows, -1, axis=0))
    g = np.zeros_like(rows)
    mid = rows[1:-1]
    g[2:] += h * mid
    g[:-2] -= h * mid
    # one-sided endpoint rows
    g[0] += -3.0 * h * rows[0]
    g[1] += 4.0 * h * rows[0]
    g[2] += -h * rows[0]
    g[-1] += 3.0 * h * rows[-1]
    g[-2] += -4.0 * h * rows[-1]
    g[-3] += h * rows[-1]
    return g


def gradient(spec: FunctionalSpec, curve: DiscreteCurve, free) -> TangentField:
    """Exact Riemannian gradient of the discrete objective over the free samples.

    free is an index array (or boolean mask) of samples allowed to move; the
    returned field is zero on all other samples.
    """
    _check_field(spec, curve)
    m = curve.manifold
    x = curve.samples
    t = curve.times
    g = np.zeros_like(x)

    use_accel = spec.kind == "tension" or (spec.kind == "energy" and spec.k == 2) or \
        (spec.kind == "conditional" and spec.k == 2)
    if use_accel:
        c = curve.second_diff
        a = curve.accel_vectors
        wa = interior_weights(curve)[:, None]
        if spec.kind == "conditional":
            r = a - (spec.field.eval_many(t, x) if spec.field is not None
                     else np.zeros_like(a))
            g += _second_stencil_transpose(curve, wa * r)
            g += 0.5 * wa * m.dproj_quad(x, c)
            if spec.field is not None:
                g += 0.5 * wa * (-2.0 * spec.field.grad_inner(c, t, x)
                                 + spec.field.grad_sq(t, x))
        else:
            g += _second_stencil_transpose(curve, wa * a)
            g += 0.5 * wa * m.dproj_quad(x, c)

    use_vel = (spec.kind == "tension" and spec.tau != 0.0) or spec.kind == "energy" or \
        (spec.kind == "conditional" and spec.k == 1)
    if use_vel:
        d = curve.first_diff
        v = curve.velocity_vectors
        wv = node_weights(curve)[:, None]
        if spec.kind == "conditional":
            r = v - (spec.field.eval_many(t, x) if spec.field is not None
                     else np.zeros_like(v))
            g += _first_stencil_transpose(curve, wv * r)
            g += 0.5 * wv * m.dproj_quad(x, d)
            if spec.field is not None:
                g += 0.5 * wv * (-2.0 * spec.field.grad_inner(d, t, x)
                                 + spec.field.grad_sq(t, x))
        else:
            coef = spec.tau**2 if spec.kind == "tension" else 1.0
            g += _first_stencil_transpose(curve, coef * wv * v)
            g += 0.5 * coef * wv * m.dproj_quad(x, d)

    g = m.project_tangent(x, g)
    mask = np.zeros(curve.n_samples, bool)
    mask[np.asarray(free)] = True
    g[~mask] = 0.0
    return TangentField(curve, g)


def el_residual(spec: FunctionalSpec, curve: DiscreteCurve, free) -> float:
    """Discrete L2 norm of the gradient over free samples: zero exactly at
    discrete critical points; the convergence certificate of the solver."""
    g = gradient(spec, curve, free).vectors
    w = node_weights(curve)
    return float(np.sqrt(np.sum(w * row_dot(g, g))))
