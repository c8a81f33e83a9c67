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

Each spec compiles to a tuple of terms (order, coefficient, prior field), one
weighted squared derivative each, and evaluate, gradient and the solver's
preconditioner all loop over that tuple; a term with coefficient 0 is dropped.
tension(0) and conditional(2, zero field) compile to the same single term, so
they agree bitwise on every curve by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .curves import DiscreteCurve, node_weights
from .errors import ConfigError, UsageError
from .fields import PriorField, field_from_config
from .manifolds import row_dot


class Term(NamedTuple):
    """coef/2 times the squared L2 norm of the order-th derivative minus field."""

    order: int                      # 1: velocity, 2: covariant acceleration
    coef: float
    field: Optional[PriorField]


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
        if self.field is not None and self.field.kind == "zero":
            object.__setattr__(self, "field", None)   # the same term as no field

    @cached_property
    def terms(self) -> Tuple[Term, ...]:
        """The functional as a sum of terms; terms with coefficient 0 drop out."""
        if self.kind == "tension":
            terms = (Term(2, 1.0, None), Term(1, self.tau**2, None))
        elif self.kind == "conditional":
            terms = (Term(self.k, 1.0, self.field),)
        else:
            terms = ((Term(2, 1.0, None),) if self.k == 2 else ()) + (Term(1, 1.0, None),)
        return tuple(t for t in terms if t.coef != 0.0)

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
            if fld is not None and not (isinstance(fld, dict) and fld.get("kind") == "zero"):
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
            fld = {"kind": "zero"} if self.field is None else self.field.to_config()
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
    if spec.field is None:
        return
    if spec.field.manifold.name != curve.manifold.name:
        raise UsageError("prior field and curve live on different manifolds")
    spec.field.check_grid(curve.grid_n)


def evaluate(spec: FunctionalSpec, curve: DiscreteCurve) -> float:
    """Value of the discrete action functional; always >= 0."""
    _check_field(spec, curve)
    total = 0.0
    for term in spec.terms:
        _, r = curve.derivative(term.order)
        w = curve.stencil(term.order).weights
        if term.field is not None:
            r = r - term.field.eval_many(curve.times, curve.samples)
        total += 0.5 * term.coef * float(np.sum(w * row_dot(r, r)))
    return total


def gradient(spec: FunctionalSpec, curve: DiscreteCurve, free) -> np.ndarray:
    """Exact Riemannian gradient of the discrete objective over the free samples.

    free is an index array (or boolean mask) of samples allowed to move.  The
    result is the ambient (n_samples, ambient_dim) array, projected onto the
    tangent space at each sample and zero on all other samples.
    """
    x = curve.samples
    g = curve.manifold.project_tangent(x, ambient_gradient(spec, curve))
    mask = np.zeros(curve.n_samples, bool)
    mask[np.asarray(free)] = True
    g[~mask] = 0.0
    return g


def ambient_gradient(spec: FunctionalSpec, curve: DiscreteCurve) -> np.ndarray:
    """The ambient gradient g-bar, on every sample, that gradient projects.

    It is the gradient of the objective's extension off the manifold in
    which every projection P(x) has the formula of Manifold.dproj_bilinear
    and a field the parts of PriorField.grad_inner and grad_sq.  Its normal
    part enters the solver's exact model (optimize._add_curvature).
    """
    _check_field(spec, curve)
    m = curve.manifold
    x = curve.samples
    t = curve.times
    g = np.zeros_like(x)
    for term in spec.terms:
        stencil = curve.stencil(term.order)
        raw, r = curve.derivative(term.order)
        w = term.coef * stencil.weights[:, None]
        if term.field is not None:
            r = r - term.field.eval_many(t, x)
        g += stencil.adjoint @ (w * r)
        # a flat manifold's term is +0.0, which changes no entry of g: a sum
        # that starts at +0.0 is never -0.0
        if m.curved:
            g += 0.5 * w * m.dproj_quad(x, raw)
        if term.field is not None:
            g += 0.5 * w * (-2.0 * term.field.grad_inner(raw, t, x)
                            + term.field.grad_sq(t, x))
    return g


def gradient_norm(curve: DiscreteCurve, g: np.ndarray) -> float:
    """Discrete L2 norm sqrt(sum_j w_j |g_j|^2) of a gradient array g, with
    w the node weights of the curve's grid."""
    return float(np.sqrt(np.sum(node_weights(curve) * row_dot(g, g))))


def el_residual(spec: FunctionalSpec, curve: DiscreteCurve, free) -> float:
    """gradient_norm of the gradient over free samples: zero exactly at
    discrete critical points; the convergence certificate of the solver."""
    return gradient_norm(curve, gradient(spec, curve, free))
