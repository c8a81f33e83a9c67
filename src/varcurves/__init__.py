"""Variationally defined curves on Riemannian manifolds.

Computes minimizers of bending-type action functionals (cubic energy, cubics
in tension, conditional extremals) over discrete curves on embedded manifolds
— Euclidean space, spheres, flat tori, SO(3) — under clamped endpoint data or
knot-interpolation constraints, with homotopy-class (winding) control and
compactness diagnostics.
"""

from .errors import (ConfigError, CutLocusError, DegenerateCurveError,
                     FactorizationError, UsageError, VarcurvesError)
from .manifolds import SO3, Euclidean, Manifold, Sphere, Torus, make_manifold
from .curves import (DiscreteCurve, TangentField, dump_curve, equicontinuity_ratio,
                     length, load_curve, parse_curve, quadrature_length, save_curve,
                     winding_vector)
from .fields import PriorField, field_from_config
from .functionals import FunctionalSpec, el_residual, evaluate, gradient
from .constraints import (ConstraintSet, constraint_from_config, free_mask, impose,
                          seed)
from .optimize import (MultistartResult, PSSummary, SolveOptions, SolveReport,
                       evaluate_family, minimize, multistart, ps_diagnostics,
                       sup_distance)
from .oracles import (ClosedFormCurve, conditional_line, geodesic, hermite_cubic,
                      tension_1d, tension_value)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CutLocusError", "DegenerateCurveError", "FactorizationError",
    "UsageError", "VarcurvesError",
    "Manifold", "Euclidean", "Sphere", "Torus", "SO3", "make_manifold",
    "DiscreteCurve", "TangentField", "length", "quadrature_length",
    "winding_vector", "equicontinuity_ratio", "save_curve", "load_curve",
    "dump_curve", "parse_curve",
    "PriorField", "field_from_config",
    "FunctionalSpec", "evaluate", "gradient", "el_residual",
    "ConstraintSet", "free_mask", "impose", "seed", "constraint_from_config",
    "SolveOptions", "SolveReport", "minimize", "multistart", "MultistartResult",
    "ps_diagnostics", "PSSummary", "evaluate_family", "sup_distance",
    "ClosedFormCurve", "hermite_cubic", "tension_1d", "conditional_line",
    "geodesic", "tension_value",
    "RunConfig", "parse_config", "load_config",
]
