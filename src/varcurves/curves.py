"""Discrete curves on a uniform grid and their derived fields.

A curve is a list of manifold samples at times t_j = j/N, either on the unit
interval (N+1 samples) or on the circle (N samples, index arithmetic mod N).
Velocities and covariant accelerations, `curve.derivative(1)` and
`curve.derivative(2)`, are projected difference stencils: central
second-order differences at interior samples, one-sided second-order
velocity stencils at interval endpoints.  Covariant acceleration is only
defined at interior samples on the interval; the endpoint entries of the field
are zero and are never read by functionals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateCurveError, UsageError
from .manifolds import CUT_LOCUS_TOL, Manifold, Torus, make_manifold, row_dot, row_norm

_SAMPLE_TOL = 1e-8   # allowed constraint residual for curve samples
MIN_GRID = 4

# The difference stencils, by derivative order: (first, inner, last) rows of
# (step offsets, coefficients in units of N^order) over the forward steps
# d_j = x_{j+1} - x_j (wrapped on the torus); node j reads the steps
# j + offset.  On the interval node 0 takes the first row, node N the last
# and the others the inner one; on the circle every node takes the inner row,
# with step indices mod N.  Interval endpoints have no second difference.
STENCILS = {
    1: (((0, 1), (1.5, -0.5)), ((-1, 0), (0.5, 0.5)), ((-2, -1), (-0.5, 1.5))),
    2: (((), ()), ((-1, 0), (-1.0, 1.0)), ((), ())),
}


class Stencil(NamedTuple):
    """One order's stencil on one grid, all read-only: CSR matrices, the
    quadrature weights of the order's derivative field, and D_k by its
    diagonals, D_k[j, j + p] in [p + 2, j] for p = -2..2 (j + p mod
    n_samples): a row spans at most 3 consecutive samples, so these are
    all its entries, and rows 5 and 6 are zero."""

    steps_to_nodes: sp.csr_matrix   # P_k, (n_samples, N): acts on forward steps
    matrix: sp.csr_matrix           # D_k = P_k Delta: acts on samples
    adjoint: sp.csr_matrix          # D_k^T
    weights: np.ndarray             # W_k, one per sample
    diagonals: np.ndarray           # shape (7, n_samples)


def _csr(shape, rows) -> sp.csr_matrix:
    """CSR matrix of stencil rows, each (nodes, (offsets, coefficients)),
    with the column indices taken mod shape[1]."""
    r, c, v = [], [], []
    for nodes, (offsets, coeffs) in rows:
        r.append(np.repeat(nodes, len(offsets)))
        c.append((nodes[:, None] + np.asarray(offsets, np.intp)).ravel() % shape[1])
        v.append(np.tile(np.asarray(coeffs, float), len(nodes)))
    return sp.csr_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                         shape=shape)


class GridStencils(tuple):
    """The Stencil of every order on one grid, indexed by order - 1, and in
    derived what other modules compile from the grid alone (the solver's
    model plans, optimize._stencil_matrices), by key, so that it is cached
    and evicted with the stencils."""

    def __new__(cls, stencils):
        self = super().__new__(cls, stencils)
        self.derived = {}
        return self


@lru_cache(maxsize=8)
def stencil_operators(n: int, domain: str) -> GridStencils:
    """The stencils of every order on the grid of size n, indexed by order - 1.

    D_k is P_k after the step matrix Delta, with the zeros that cancel in the
    product dropped; its diagonals are read from its CSR entries.
    """
    ns = n + 1 if domain == "interval" else n
    nodes = np.arange(ns)
    delta = _csr((n, ns), [(np.arange(n), ((0, 1), (-1.0, 1.0)))])
    out = []
    for order, (first, inner, last) in sorted(STENCILS.items()):
        if domain == "circle":
            first = last = inner
        p = _csr((ns, n), [(nodes[:1], first), (nodes[1:-1], inner), (nodes[-1:], last)])
        p *= float(n) ** order
        d = p @ delta
        d.eliminate_zeros()
        d.sort_indices()
        j = np.repeat(nodes, np.diff(d.indptr))
        e = np.zeros((7, ns))
        e[(d.indices - j + 2) % ns, j] = d.data
        s = Stencil(p, d, d.T.tocsr(), _read_only(_weights(order, n, ns, domain)), _read_only(e))
        for a in (s.steps_to_nodes, s.matrix, s.adjoint):
            for arr in (a.data, a.indices, a.indptr):
                _read_only(arr)
        out.append(s)
    return GridStencils(out)


def _weights(order: int, n: int, ns: int, domain: str) -> np.ndarray:
    """W_k, uniform on the circle.  On the interval: the trapezoid rule for
    velocities; for accelerations, known at interior samples only, the
    trapezoid on the interior subgrid plus linearly-extrapolated end strips
    (boundary weights 2 and 1/2), exact for affine integrands and second-order
    for smooth ones, with zero endpoint entries."""
    w = np.full(ns, 1.0 / n)
    if domain == "circle":
        return w
    if order == 1:
        w[0] = w[-1] = 0.5 / n
        return w
    w[0] = w[-1] = 0.0
    w[1] = w[-2] = 2.0 / n
    if ns >= 7:
        w[2] = w[-3] = 0.5 / n
    else:
        # N = 4,5: the two Gregory corrections overlap; fall back to mass-
        # preserving absorbed weights
        w[1] = w[-2] = 1.5 / n
    return w


@dataclass(frozen=True)
class DiscreteCurve:
    """Uniformly sampled path on a manifold.

    samples has shape (n, ambient_dim): n = N+1 on the interval, n = N on the
    circle.  Immutable; all operations return new curves.

    The derived arrays below form a memo: the forward steps, the segment
    distances and `derivative(order)`, each order's raw stencil values with
    their tangent projection, and one array made for one functional spec
    (`spec_memo`, which holds the ambient gradient).  Each is computed on
    first use, made read-only and kept until `clear_memo`, so validation,
    functionals, the model build and the curve statistics of a solve's start
    and minimizer share one computation; the order's matrices and weights
    are the grid's, in `stencil(order)`.
    Validation reads the segment distances only where a step may be near the
    cut locus (`Manifold.may_reach_cut_locus`); on the sphere and on SO(3)
    that is a pair with a negative row-wise dot product, so there they are
    usually computed on first use instead.
    """

    manifold: Manifold
    domain: str  # "interval" | "circle"
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.domain not in ("interval", "circle"):
            raise UsageError(f"unknown domain kind {self.domain!r}")
        x = np.array(self.samples, float)
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)
        if x.ndim != 2 or x.shape[1] != self.manifold.ambient_dim:
            raise UsageError("samples must have shape (n, ambient_dim)")
        if self.grid_n < MIN_GRID:
            raise UsageError(f"grid too coarse: N = {self.grid_n} < {MIN_GRID}")
        if not np.isfinite(x).all():   # a NaN would pass the residual test below
            j = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise UsageError(f"sample {j} is not finite")
        m = self.manifold
        res = m.constraint_residual(x)
        if np.any(res > _SAMPLE_TOL):
            j = int(np.argmax(res))
            raise UsageError(f"sample {j} is off the manifold (residual {res[j]:.2e})")
        if m.compact:
            if isinstance(m, Torus):
                bad = np.any(np.abs(self.steps) >= np.pi - CUT_LOCUS_TOL, axis=-1)
            elif m.may_reach_cut_locus(*_consecutive(x, self.domain)):
                bad = self.step_dists >= m.injectivity_radius - CUT_LOCUS_TOL
            else:
                bad = False
            if np.any(bad):
                raise DegenerateCurveError(int(np.argmax(bad)))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def grid_n(self) -> int:
        """Grid size N (number of subintervals; equals sample count on the circle)."""
        return self.n_samples - 1 if self.domain == "interval" else self.n_samples

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.grid_n

    def with_samples(self, samples: np.ndarray) -> "DiscreteCurve":
        return DiscreteCurve(self.manifold, self.domain, samples)

    def stencil(self, order: int) -> Stencil:
        """The order's difference stencil on this curve's grid."""
        return stencil_operators(self.grid_n, self.domain)[order - 1]

    # -- memo of derived arrays ---------------------------------------------

    @cached_property
    def steps(self) -> np.ndarray:
        """Forward steps, shape (N, m): row j is the displacement of sample j+1
        relative to sample j (mod N on the circle), wrapped on the torus."""
        p, q = _consecutive(self.samples, self.domain)
        return _read_only(self.manifold.relative_step(p, q))

    @cached_property
    def step_dists(self) -> np.ndarray:
        """Geodesic distances between consecutive samples, shape (N,)."""
        if isinstance(self.manifold, Torus):   # Torus.dist is the norm of the wrapped step
            return _read_only(row_norm(self.steps))
        p, q = _consecutive(self.samples, self.domain)
        return _read_only(self.manifold.dist(p, q))

    @cached_property
    def _derivatives(self) -> dict:
        return {}

    def derivative(self, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """The order's raw stencil values (ambient, one row per sample; zero
        at interval endpoints for order 2) and their tangent projection."""
        d = self._derivatives.get(order)
        if d is None:
            raw = _read_only(self.stencil(order).steps_to_nodes @ self.steps)
            d = raw, _read_only(self.manifold.project_tangent(self.samples, raw))
            self._derivatives[order] = d
        return d

    def spec_memo(self, spec, make) -> np.ndarray:
        """make(), memoized for spec alone: the memo holds one array and the
        spec it was made for, and a call with any other spec object makes
        its own array and takes the slot."""
        held = self.__dict__.get("_spec_memo")
        if held is None or held[0] is not spec:
            held = spec, _read_only(make())
            self.__dict__["_spec_memo"] = held
        return held[1]

    def clear_memo(self) -> None:
        """Drop the memoized arrays; they are recomputed on next use."""
        for name in _MEMO:
            self.__dict__.pop(name, None)

    def memo_state(self) -> dict:
        """The memoized arrays held now, for restore_memo."""
        state = {name: self.__dict__[name] for name in _MEMO if name in self.__dict__}
        if "_derivatives" in state:
            state["_derivatives"] = dict(state["_derivatives"])
        return state

    def restore_memo(self, state: dict) -> None:
        """Keep only the memoized arrays of state, from memo_state."""
        self.clear_memo()
        self.__dict__.update(state)


_MEMO = ("steps", "step_dists", "_derivatives", "_spec_memo")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TangentField:
    """One tangent vector per curve sample, based at the corresponding sample."""

    curve: DiscreteCurve
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.vectors, float)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        if v.shape != self.curve.samples.shape:
            raise UsageError("field shape does not match curve samples")
        proj = self.curve.manifold.project_tangent(self.curve.samples, v)
        scale = 1.0 + np.max(np.abs(v)) if v.size else 1.0
        if np.max(np.abs(proj - v)) > 1e-8 * scale:
            raise UsageError("field vectors are not tangent at their base samples")


def _consecutive(x: np.ndarray, domain: str):
    if domain == "interval":
        return x[:-1], x[1:]
    return x, np.roll(x, -1, axis=0)


def node_weights(curve: DiscreteCurve) -> np.ndarray:
    """Trapezoid quadrature weights at the curve samples (uniform on the
    circle); read-only and shared by every curve on the grid."""
    return curve.stencil(1).weights


def length(curve: DiscreteCurve) -> float:
    """Geodesic segment length: sum of distances between consecutive samples."""
    return float(np.sum(curve.step_dists))


def quadrature_length(curve: DiscreteCurve) -> float:
    """Quadrature of the discrete speed (trapezoid of nodal velocity norms).

    The weights sum to 1, so by the Cauchy-Schwarz inequality this length
    satisfies quadrature_length(x)^2 <= sum_j W_j |v_j|^2 exactly, with
    v = x.derivative(1)[1] and W = node_weights(x): the discrete form of the
    length-domination bound used by the diagnostics.
    """
    w = node_weights(curve)
    return float(np.sum(w * row_norm(curve.derivative(1)[1])))


def winding_vector(curve: DiscreteCurve) -> np.ndarray:
    """Sum of wrapped angular increments divided by 2*pi (torus/circle curves).

    Integer-valued on closed loops; on open curves the value is the lifted
    endpoint displacement over 2*pi, which is locally constant under small
    deformations that fix the endpoints.
    """
    if not isinstance(curve.manifold, Torus):
        raise UsageError("winding_vector is defined for torus/circle curves only")
    return np.sum(curve.steps, axis=0) / (2 * np.pi)


def equicontinuity_ratio(curve: DiscreteCurve, pairs: np.ndarray) -> float:
    """Max over index pairs of dist(x_a, x_b) / (sqrt|t_a - t_b| * ||velocity||_L2).

    Ratios <= 1 witness the discrete Hoelder/equicontinuity bound tying
    pointwise distances to the velocity norm.  pairs is an (m, 2) array of
    sample indices; pairs with equal indices are skipped, and no pairs give
    0.0.
    """
    bad = UsageError(f"pairs must be an (m, 2) array of sample indices in [0, {curve.n_samples})")
    try:
        pairs = np.asarray(pairs)
    except ValueError:   # a ragged list
        raise bad from None
    if pairs.shape in ((0,), (0, 2)):   # [] too
        return 0.0
    if (pairs.ndim != 2 or pairs.shape[1] != 2 or not np.issubdtype(pairs.dtype, np.integer)
            or np.any(pairs < 0) or np.any(pairs >= curve.n_samples)):
        raise bad
    a, b = pairs[pairs[:, 0] != pairs[:, 1]].T
    if not len(a):
        return 0.0
    d = curve.manifold.dist(curve.samples[a], curve.samples[b])
    v = curve.derivative(1)[1]
    vnorm = np.sqrt(np.sum(node_weights(curve) * row_dot(v, v)))
    if vnorm == 0.0:
        return 0.0 if np.all(d == 0) else np.inf
    t = curve.times
    return float(np.max(d / (np.sqrt(np.abs(t[a] - t[b])) * vnorm)))


# ---------------------------------------------------------------------------
# Curve file format: one JSON header line + CSV rows "t,c0,c1,..."
# ---------------------------------------------------------------------------

def dump_curve(curve: DiscreteCurve) -> str:
    header = json.dumps({
        "manifold": curve.manifold.name,
        "domain_kind": curve.domain,
        "n_samples": curve.n_samples,
    }, sort_keys=True)
    rows = _row_formats(curve.n_samples, curve.grid_n, curve.manifold.ambient_dim)
    return header + "\n" + rows % tuple(curve.samples.ravel().tolist())


@lru_cache(maxsize=8)
def _row_formats(n_samples: int, grid_n: int, dim: int) -> str:
    """The body of a curve file as one format string: every row's time
    written %.17g, then dim %.17g fields for its sample."""
    fields = ",%.17g" * dim + "\n"
    return "".join("%.17g" % t + fields for t in (np.arange(n_samples) / grid_n).tolist())


def save_curve(curve: DiscreteCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_curve(curve))


def parse_curve(text: str) -> DiscreteCurve:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise UsageError("empty curve file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise UsageError(f"curve file header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise UsageError("curve file header must be a JSON object")
    for key in ("manifold", "domain_kind", "n_samples"):
        if key not in header:
            raise UsageError(f"curve file header has no {key!r}")
    try:
        manifold = make_manifold(header["manifold"])
    except ConfigError as e:
        raise UsageError(f"curve file manifold: {e}") from None
    n = header["n_samples"]
    if isinstance(n, bool) or not (isinstance(n, int) or isinstance(n, float) and n.is_integer()):
        raise UsageError(f"curve file n_samples must be an integer, got {n!r}")
    n = int(n)
    if len(lines) - 1 != n:
        raise UsageError(f"curve file declares {n} samples but has {len(lines) - 1} rows")
    rows = [ln.split(",") for ln in lines[1:]]
    if len({len(r) for r in rows}) > 1:
        raise UsageError("curve file rows have different numbers of columns")
    try:
        data = np.array([[float(v) for v in r] for r in rows])
    except ValueError as e:   # float() names the cell
        raise UsageError(f"curve file has a non-numeric cell: {e}") from None
    if data.ndim != 2 or data.shape[1] != manifold.ambient_dim + 1:
        raise UsageError("curve file rows have the wrong number of columns")
    return DiscreteCurve(manifold, header["domain_kind"], data[:, 1:])


def load_curve(path) -> DiscreteCurve:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise UsageError(f"curve file is not UTF-8 text: {e}") from None
    return parse_curve(text)
