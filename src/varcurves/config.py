"""Run configuration: JSON in, validated objects out."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .constraints import (ConstraintSet, constraint_from_config, free_mask, seed,
                          validate_geometry)
from .curves import MIN_GRID
from .errors import ConfigError, UsageError
from .functionals import FunctionalSpec
from .manifolds import Manifold, make_manifold
from .optimize import SolveOptions

_SOLVE_KEYS = {f.name for f in fields(SolveOptions)}
_TOP_KEYS = {"manifold", "grid_n", "domain", "functional", "constraints",
             "winding_hint", "winding_hints", "solve"}


@dataclass(frozen=True)
class RunConfig:
    manifold: Manifold
    domain: str
    n_grid: int
    spec: FunctionalSpec
    constraint: ConstraintSet
    hints: Optional[List[np.ndarray]]   # None, or one hint per multistart seed
    options: SolveOptions

    @property
    def multistart(self) -> bool:
        """Whether the run solves from more than one seed."""
        return self.hints is not None and len(self.hints) > 1

    def seed_list(self):
        """Labelled seeds: one per hint (a single unlabelled seed when no hints)."""
        hints = [None] if self.hints is None else self.hints
        return [(seed(self.constraint, self.manifold, self.n_grid, self.domain, h),
                 "seed" if h is None else "w=" + ",".join(str(int(v)) for v in np.atleast_1d(h)))
                for h in hints]


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("manifold", "grid_n", "functional", "constraints"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")

    manifold = make_manifold(data["manifold"])
    domain = data.get("domain", "interval")
    if domain not in ("interval", "circle"):
        raise ConfigError(f"unknown domain {domain!r}")
    n_grid = data["grid_n"]
    if isinstance(n_grid, bool) or not isinstance(n_grid, numbers.Integral):
        raise ConfigError(f"grid_n must be an integer, got {n_grid!r}")
    n_grid = int(n_grid)
    if n_grid < MIN_GRID:
        raise ConfigError(f"grid_n must be at least {MIN_GRID}")

    spec = FunctionalSpec.from_config(data["functional"], manifold)
    if spec.field is not None:
        try:
            spec.field.check_grid(n_grid)
        except UsageError as e:
            raise ConfigError(str(e)) from e
    constraint = constraint_from_config(data["constraints"])
    free_mask(constraint, n_grid, domain)  # validates domain fit and knot snapping
    validate_geometry(manifold, constraint)

    hints = None
    if "winding_hints" in data and "winding_hint" in data:
        raise ConfigError("give either winding_hint or winding_hints, not both")
    if "winding_hints" in data:
        raw = data["winding_hints"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("winding_hints must be a non-empty list")
        hints = [_hint(h, "winding_hints") for h in raw]
    elif "winding_hint" in data:
        hints = [_hint(data["winding_hint"], "winding_hint")]

    opts_cfg = data.get("solve", {})
    if not isinstance(opts_cfg, dict):
        raise ConfigError("solve options must be an object")
    unknown = set(opts_cfg) - _SOLVE_KEYS
    if unknown:
        raise ConfigError(f"unknown solve options: {sorted(unknown)}")
    try:
        options = SolveOptions(**opts_cfg)
    except (UsageError, TypeError) as e:
        raise ConfigError(f"invalid solve options: {e}") from e

    return RunConfig(manifold, domain, n_grid, spec, constraint, hints, options)


def _hint(value, key: str) -> np.ndarray:
    """One winding hint as a 1-d numeric array; whether it is integral is
    checked when the seed is built."""
    try:
        h = np.atleast_1d(np.asarray(value))
    except ValueError:   # a ragged list
        h = None
    if h is None or not (np.issubdtype(h.dtype, np.integer) or
                         np.issubdtype(h.dtype, np.floating)):
        raise ConfigError(f"{key} must be an integer or a list of integers, got {value!r}")
    return h


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8 text: {e}") from e
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    return parse_config(data)
