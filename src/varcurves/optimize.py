"""Riemannian descent over the free samples, with compactness diagnostics.

The search direction is a limited-memory BFGS direction (the two-loop
recursion of Nocedal & Wright, Numerical Optimization, ch. 7) whose initial
inverse Hessian comes from the model Hessian of the same discrete
functional: a sparse SPD matrix on every sample, each fixed one
decoupled, factorized at the start of a solve (by banded Cholesky on the
interval and by sparse LU on the circle, where the periodic wrap leaves it
no band), applied to every row and followed by the tangent projection.
Preconditioning is essential here: the fourth-order objectives have Hessian condition numbers growing like N^4, which makes
unpreconditioned steepest descent hopeless at the tolerances the
acceptance suite demands.

The model starts as the projected flat model in orthonormal tangent
frames E (Manifold.tangent_frame; the embedded-submanifold Hessian of
Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
2008, ch. 5.5 and 8): H = sum c (Q D E)^T W (Q D E), with Q applying each
stencil row's own frame E_j^T.  It is the Gauss-Newton part of the
Hessian.  It keeps the projection r_j = P_{x_j} (D x)_j of every stencil
value at its node; F = sum c D^T W D leaves that projection out, and with F
the L-BFGS solves on S^2 and SO(3) take about twice the iterations and
stall far above the roundoff floor on most two-knot arcs.  A flat manifold
(R^d, T^d) has no frame and is the case of 1 x 1 identity frames, where
H = F is the exact Hessian, and there the model is never rebuilt.

On S^d and SO(3) the model is rebuilt as the exact Riemannian Hessian
(_add_curvature): the Gauss-Newton blocks plus, from the same term list,
each term's second-order parts and the manifold's Weingarten term, in the
same band.  It is built at the first accepted iterate, where it replaces
the start's Gauss-Newton model, and again after every accepted step that
leaves some sample more than REBUILD_DIST (ambient norm) from where the
model was built.  Where it is not positive definite (dpbtrf fails on the
interval, a non-positive pivot of the symmetric sparse LU on the circle),
the solve keeps its Gauss-Newton model, or rebuilds that one at a
REBUILD_DIST rebuild; saddles do this (the two-knot arcs at tau = 8), and
so do closed loops, whose exact model has the null modes of rigid rotation.
On the benchmark pools at N = 1000 the exact model halves the iterations
(sphere-solve 208 -> 116, so3-solve 56 -> 28).  Tried and measured worse:
the exact model from the start (167 and 44 iterations), at every iterate
(86 and 24, at 3.6 and 3.0 exact builds per solve), and a Gauss-Newton
rebuild at the first iterate (199 and 56).  On S^d every frame vector e has
x.e <= 1/2 at any iterate x within REBUILD_DIST of the build, so it keeps
at least 3/4 of its squared norm in the tangent space.  F^-1 below stands
for E H^-1 E^T, with H the model in use.

A build follows a plan of its grid (_ModelPlan, made by
_stencil_matrices): each stencil D by its diagonals, D[j, j + p] for
p = -2..2, the (p, s) pairs of the Gauss-Newton loop and the offsets of
the curvature sums with their row spans, and the indices of the
interval's end-row overlaps at offsets +-2.  It depends on the grid and
the term orders alone, so it is compiled once per (N, domain, orders),
read-only and without any coefficient, and kept with the grid's
curves.Stencil records in the one cache of curves.stencil_operators.  What
depends on the coefficients too (the row products c w D D) or on the free
samples is made once per solve, at its first build, and shared by the
solve's later builds (_solve_data); nothing of it outlives the solve.

Manifold.tangent_frame gives the frames with the samples last, shape
(k, ambient dimension, n), the layout of every product of the build, where
numpy's elementwise loops run long.  On the interval the blocks are added
straight into LAPACK's band storage, through a strided view of it
(_accumulator); on the circle into an array that the sparse LU reads.  A
build keeps its large working arrays in its thread's workspace
(_Workspace, a threading.local): the band storage or block array, the
overlaps E_j^T E_(j+1), the curvature's sums Z_j and their products, made
on the first build of a shape (sample count, frame size k, ambient
dimension) and reused by the next, for the WORKSPACE_SHAPES shapes used
last, least recently used first out, as in curves.stencil_operators.  No
factor keeps a view into it.  Made afresh, these arrays went back to the
allocator after each build, which trimmed the heap, and the next build
page-faulted them in again: on the benchmark pools at N = 1000, warm
solves took about 230 minor faults each on S^2 and 770 on SO(3), and now
take none.  The exact build reads the ambient gradient that gradient
summed at the iterate, memoized on the curve for that spec object
(functionals.ambient_gradient), and a rebuild whose exact model is refused
factorizes the Gauss-Newton blocks of the same build.  A solve builds no
model at an iterate where it stops.

On a curved manifold the memory of the last LBFGS_MEMORY accepted steps
s = -step*d and gradient changes y = g - g_prev supplies the curvature the
model leaves out; it is cleared at every exact build.  A flat manifold's
model is exact, so it forms and keeps no pairs: on the five knots of the first
benchmark winding sweep (torus:1, tension(1), N = 1000) the second step
took the residual from 886 to 84 grad_tol with them, and to 2.2 without.  A
pair is kept, as taken and in ambient coordinates and with its 1/(y.s), if
y.s > CURVATURE_TOL*|y||s|, and is never re-projected or re-tested.  The
initial inverse Hessian is P F^-1 P (P the tangent projection at the
iterate), which is symmetric and positive semidefinite, and the result is
projected once; for a tangent g, g.P r = g.r, so the flat direction has
g.d = (E^T g)^T H^-1 (E^T g) > 0 (E = I on a flat manifold) up to rounding;
should rounding make a direction non-positive, the memory is cleared and
the flat direction used.  With an empty memory, on every solve's first
step, the direction is the flat one.  Armijo backtracking thus gives strict
descent, and convergence is still certified by the plain discrete L2
gradient norm.

The line search's constants are fixed (Nocedal & Wright, ch. 3): from a
first trial step of INITIAL_STEP it multiplies the step by BACKTRACK until
the objective falls by at least ARMIJO_C1 times the predicted decrease, and
it gives up once the step is below STEP_FLOOR.

Near a minimizer the predicted decrease falls below the objective's roundoff,
and objective differences no longer tell descent from rounding.  A search
whose first step predicts less than NOISE_K*eps*|objective| therefore runs a
noise phase (after Hager & Zhang's approximate Wolfe test, SIAM J. Optim.
16(1), 2005, section 4): it tries the first NOISE_TRIALS steps of the same
halving schedule, from the capped first step, and accepts the first that
passes the Armijo test with a predicted decrease of at least eps*|objective|,
or that cuts the weighted gradient norm below NOISE_GRAD_DROP times the
current one without raising the objective by more than that noise level.
Strict descent thus holds for steps accepted by the Armijo test only.  If
no trial passes, the solve ends, stalled at the roundoff floor.
NOISE_TRIALS is 1.  Re-counted with six trials at the default grad_tol (the
benchmark pools, the two-knot great-circle arcs on S^2, five far-apart
random knots on S^2 and SO(3), and pool knots at N = 2000 and 4000), every
noise phase that accepted a step did so at its first trial, and every one
that failed its first trial failed all six, so each later trial only cost a
stall one more futile exp, validation, evaluate and gradient.  With
grad_tol = 0, four of the arc and far-apart solves pass a later trial, all
below 0.3 times the default grad_tol, and now stop there.

Per-sample displacements are capped at pi/2 on compact manifolds so homotopy
class (winding) tracking stays valid along the run.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields, asdict, replace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .constraints import ConstraintSet, fixed_indices, free_mask, impose
from .curves import (DiscreteCurve, _read_only, length, node_weights, stencil_operators,
                     winding_vector)
from .errors import DegenerateCurveError, FactorizationError, UsageError
from .functionals import (FunctionalSpec, ambient_gradient, el_residual, evaluate, gradient,
                          gradient_norm)
from .manifolds import Torus, row_dot, row_norm

STEP_CAP = np.pi / 2  # max per-sample displacement on compact manifolds
CLUSTER_TOL = 0.1     # sup-distance threshold for distinctness clustering

# the line search's noise phase (see the module docstring)
NOISE_K = 100          # objective changes below NOISE_K*eps*|obj| are roundoff
NOISE_GRAD_DROP = 0.9  # factor by which a noise-phase step cuts the gradient norm
NOISE_TRIALS = 1       # capped-then-halved steps a noise phase tries

# the Armijo line search (see the module docstring)
ARMIJO_C1 = 1e-4       # sufficient-decrease constant
BACKTRACK = 0.5        # factor by which each failed trial step shrinks
INITIAL_STEP = 1.0     # first trial step, before the compact-manifold cap
STEP_FLOOR = 1e-14     # the search fails once the step falls below this

# the quasi-Newton memory (see the module docstring)
LBFGS_MEMORY = 3       # (s, y) pairs kept
CURVATURE_TOL = 1e-12  # a pair is kept while y.s > CURVATURE_TOL*|y||s|

# on a curved manifold the model is rebuilt once a sample is this far
# (ambient norm) from where it was built (see the module docstring)
REBUILD_DIST = 0.5

# the build shapes whose working arrays each thread keeps (see _Workspace)
WORKSPACE_SHAPES = 8


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type == "int"
            kind = numbers.Integral if integral else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise UsageError(f"{f.name} must be "
                                 f"{'an integer' if integral else 'a real number'}")
            # an infinite grad_tol would certify any curve
            if not integral and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite")
        if self.max_iters < 0:
            raise UsageError("max_iters must be >= 0")
        if self.grad_tol < 0:
            raise UsageError("grad_tol must be >= 0")


@dataclass(frozen=True)
class HistoryRecord:
    """One iterate of a solve, or one curve of an evaluated family.

    A solve's curve statistics (length, quad_length, sup_velocity) are
    taken of the start (record 0) and the minimizer (the last record)
    only; the records in between carry None.  phase names the test that
    accepted the step, search whether the search that made it ran the
    noise phase; both are None for record 0 and for families.
    """

    iteration: int
    objective: float
    grad_norm: float
    length: Optional[float]
    quad_length: Optional[float]
    sup_velocity: Optional[float]
    step: float
    phase: Optional[str] = None     # armijo | noise
    search: Optional[str] = None    # armijo | noise


@dataclass(frozen=True)
class SolveReport:
    minimizer: DiscreteCurve
    spec: FunctionalSpec
    verdict: str                    # converged | iter_limit | evaluated
    iterations: int
    final_objective: float
    final_residual: float
    history: Tuple[HistoryRecord, ...]
    winding_drift: Optional[float] = None
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "iterations": self.iterations,
            "final_objective": self.final_objective,
            "final_residual": self.final_residual,
            "functional": self.spec.to_config(),
            "winding_drift": self.winding_drift,
            "message": self.message,
            "history": [asdict(h) for h in self.history],
        }


class _ModelPlan(NamedTuple):
    """What a model build on one grid reads for one tuple of term orders,
    the spec's coefficients apart: compiled once (_compile_plan), cached
    with the grid's stencils and read-only.

    Row spans are those of the structural nonzeros: the rows j where
    w_j, D[j, j + p] and D[j, j + p + s] are all nonzero for some term.  So
    they hold every row a coefficient leaves nonzero, and a row where the
    product rounds to 0 adds exact zeros, which leave a block as it was.
    """

    diagonals: Tuple[np.ndarray, ...]   # each term's D by diagonals, D[j, j + p] in [p + 2, j]
    steps: tuple       # the (j, j + 1 mod N) slices of the overlaps E_j^T E_(j+1)
    far: tuple         # (rows j, j + p mod N) of each offset +-2 overlap in use
    pairs: tuple       # (s, products' index, rows, block slice, left, right) per (p, s)
    curvature: tuple   # (p, live terms, rows, (j, j + p mod N) slices, block slice) per p


def _stencil_matrices(curve: DiscreteCurve, orders: Tuple[int, ...]) -> _ModelPlan:
    """The model plan of the curve's grid for the term orders, compiled on
    first use and kept with the grid's stencils (curves.GridStencils), in
    the one cache of curves.stencil_operators."""
    ops = stencil_operators(curve.grid_n, curve.domain)
    key = ("model plan", orders)
    plan = ops.derived.get(key)
    if plan is None:
        plan = ops.derived[key] = _compile_plan(ops, orders)
    return plan


def _compile_plan(ops, orders: Tuple[int, ...]) -> _ModelPlan:
    """The plan of the grid's stencils ops for the term orders (_ModelPlan):
    the overlaps and (p, s) pairs that _model_blocks reads and the offsets
    that _add_curvature sums, each over the span of its rows."""
    diagonals = tuple(ops[o - 1].diagonals for o in orders)
    ns = ops[0].diagonals.shape[1]
    # [term, p + 2, j]: w_j D[j, j + p] != 0
    alive = np.array([(ops[o - 1].weights != 0.0) & (e[:5] != 0.0)
                      for o, e in zip(orders, diagonals)])
    far, pairs, curvature = {}, [], []

    def overlap(p, rows):
        """Where the build finds E_j^T E_(j+p) on the rows: (overlap, slice)
        for p = +1 (0) and p = -1 (1), and a far overlap over the rows alone
        (2 on); None for p = 0."""
        if p == 0:
            return None
        if abs(p) == 1:
            return (0 if p == 1 else 1), rows
        key = p, rows.start, rows.stop
        if key not in far:
            far[key] = rows, _read_only((np.arange(rows.start, rows.stop) + p) % ns)
        return 2 + list(far).index(key), slice(None)

    # every pair (p, s) with p + s <= 2, over the span of its nonzero rows,
    # so each block sums its rows' products in the order of p
    for p in range(-2, 3):
        for s in range(min(3, 3 - p)):
            rows = _span(np.any(alive[:, p + 2] & alive[:, p + 2 + s], axis=0))
            if rows is not None:
                pairs.append((s, (p + 2, s, rows), rows,
                              slice(rows.start + p + 2, rows.stop + p + 2),
                              overlap(p, rows), overlap(p + s, rows)))
        live = tuple(i for i, a in enumerate(alive) if a[p + 2].any())
        if live:
            spans = [_span(alive[i, p + 2]) for i in live]
            rows = slice(min(s.start for s in spans), max(s.stop for s in spans))
            start = rows.start + (p if p < 0 else 0) + 2
            curvature.append((p, live, rows, tuple(_wrapped(rows, p, ns)),
                              slice(start, start + rows.stop - rows.start)))
    return _ModelPlan(diagonals, tuple(_wrapped(slice(0, ns), 1, ns)), tuple(far.values()),
                      tuple(pairs), tuple(curvature))


class _BandedCholesky:
    """Cholesky factor of an SPD band matrix, given in LAPACK's lower band
    storage (row s holds the s-th subdiagonal)."""

    def __init__(self, ab: np.ndarray):
        self._c, info = lapack.dpbtrf(ab, lower=1)
        _check_lapack("dpbtrf", info)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution for b, or for each column of b."""
        x, info = lapack.dpbtrs(self._c, b, lower=1)
        _check_lapack("dpbtrs", info)
        return x


def _check_lapack(routine: str, info: int):
    if info != 0:
        raise FactorizationError(f"LAPACK {routine} failed on the flat model (info={info})")


class _FramedModel:
    """The projected flat model in the tangent frames E of the samples:
    solve(b) is E H^-1 E^T b for the ambient rows b, given the factor of H;
    exact tells whether H is the exact Hessian (_add_curvature).

    It keeps the frame with the samples first, E_j^T in frame[j], where
    E^T b sums each sample's row in the order numpy gives a contiguous
    last axis; over the samples-last frame of the build, an einsum and a
    fold over the ambient coordinates both round otherwise."""

    def __init__(self, frame: np.ndarray, factor, exact: bool):
        self._frame = np.ascontiguousarray(frame.transpose(2, 0, 1))
        self._factor = factor
        self.exact = exact

    def solve(self, b: np.ndarray) -> np.ndarray:
        xi = np.einsum("jkm,jm->jk", self._frame, b)
        z = self._factor.solve(xi.ravel()).reshape(xi.shape)
        return np.einsum("jk,jkm->jm", z, self._frame)


class _Workspace(threading.local):
    """Each thread's scratch arrays for model builds: per build shape
    (samples, frame size k, ambient dimension; k = 1 and dimension 1 with
    no frame), a dict of arrays by name, for the WORKSPACE_SHAPES shapes
    used last (least recently used first out, as in
    curves.stencil_operators)."""

    def __init__(self):
        self.shapes = OrderedDict()

    def arrays(self, ns: int, frame) -> dict:
        key = (ns, 1, 1) if frame is None else (ns,) + frame.shape[:2]
        ws = self.shapes.pop(key, {})
        self.shapes[key] = ws
        if len(self.shapes) > WORKSPACE_SHAPES:
            self.shapes.popitem(last=False)
        return ws


_WORKSPACE = _Workspace()


def _scratch(ws: dict, name: str, shape) -> np.ndarray:
    """The workspace's array of that name, made uninitialized on first use;
    a name has one shape per build shape."""
    a = ws.get(name)
    if a is None:
        a = ws[name] = np.empty(shape)
    return a


def _row_products(spec: FunctionalSpec, curve: DiscreteCurve):
    """Each term's products c w_j D[j, j+p] D[j, j+p+s] over the rows j of
    its stencil D, in an array indexed [p + 2, s, j] for p = -2..2 and
    s = 0..2, from the grid's diagonals (curves.Stencil.diagonals)."""
    out = []
    for t in spec.terms:
        st = curve.stencil(t.order)
        e = st.diagonals
        we = t.coef * st.weights * e
        out.append(np.stack([we[:5] * e[s:s + 5] for s in range(3)], axis=1))
    return out


def _solve_data(spec: FunctionalSpec, curve: DiscreteCurve, free: np.ndarray, framed: bool,
                memo) -> dict:
    """What every build of one solve reads that depends on the spec, the
    grid and the free samples alone: the grid's plan (_stencil_matrices),
    the fixed samples, the row products (_row_products; summed over the
    terms for a framed build) and, per term, c w and c w D by diagonals for
    _add_curvature.  Kept in memo, a dict that a solve passes to each of
    its builds and drops when it ends; made afresh without one."""
    data = {} if memo is None else memo
    if not data:
        # the plan first, so that a new grid's stencils are built inside it
        data["plan"] = plan = _stencil_matrices(curve, tuple(t.order for t in spec.terms))
        fixed = np.ones(curve.n_samples, bool)
        fixed[free] = False
        data["fixed"] = np.flatnonzero(fixed)
        prods = _row_products(spec, curve)
        data["products"] = sum(prods) if framed else prods
        cw = [t.coef * curve.stencil(t.order).weights for t in spec.terms]
        data["curvature"] = [(c, c * e[:5]) for c, e in zip(cw, plan.diagonals)]
    return data


def _flat_model_factor(spec: FunctionalSpec, curve: DiscreteCurve, free: np.ndarray,
                       exact: bool = False, fallback: bool = False, memo=None):
    """Factorized model Hessian of the spec's terms on every sample,
    shifted by 1e-12*max(max diag, 1) on the diagonal; solve(b) applies its
    inverse to the ambient rows b of every sample: E H^-1 E^T b in the
    tangent frames E, and H^-1 b, column by column, on a flat manifold,
    which has no frame (the module docstring defines H).

    Each fixed sample is decoupled: its diagonal block is I and every block
    coupling it to another sample is 0.  So a row that is zero in b comes
    back zero, and the free rows are those of the model on the free samples
    alone, bit for bit on the interval, where dpbtrf and dpbtrs run
    unblocked (3k - 1 < 32): the decoupled rows add only exact zeros, and
    unit diagonals that leave the shift as it was.

    The factor depends on the domain only.  On the interval the k x k
    blocks of _model_blocks form a band of half-bandwidth 3k - 1, built in
    LAPACK's band storage (_accumulator) and factorized by banded Cholesky
    (dpbtrf).  On the circle the periodic wrap couples samples 0 and N-1,
    so H has no band in natural order; the blocks go, with wrapped indices,
    into one sparse matrix for sparse LU.  E^T g . H^-1 E^T g > 0 for any g
    with E^T g != 0.

    With exact, on a curved manifold, H is the exact Hessian
    (_add_curvature), and a build where it is not positive definite raises
    FactorizationError: dpbtrf's own failure on the interval, and on the
    circle a non-positive pivot of a sparse LU with symmetric diagonal
    pivoting (_definite_lu).  With fallback too, such a build factorizes
    the Gauss-Newton model of the same frame and blocks instead, and the
    factor's exact is False.  A flat manifold's H is exact either way.

    memo is the solve's dict of _solve_data.  The build's working arrays
    are this thread's workspace (_Workspace); the factor keeps its frame
    and the arrays LAPACK or SuperLU return, none of them a view into the
    workspace.
    """
    frame = curve.manifold.tangent_frame(curve.samples)
    exact = exact and frame is not None
    data = _solve_data(spec, curve, free, frame is not None, memo)
    blocks = _model_blocks(spec, curve, frame, exact, fallback, data)
    ws = _WORKSPACE.arrays(curve.n_samples, frame)
    store = ws[_store_name(curve.domain)]
    try:
        factor = _factor(blocks, store, data["fixed"], curve.domain, exact)
    except FactorizationError:
        if not (exact and fallback):
            raise
        exact = False
        store = ws[_store_name(curve.domain) + " gauss-newton"]
        blocks = _fold(_accumulator(store, blocks.shape[-1], curve.domain), curve.domain)
        factor = _factor(blocks, store, data["fixed"], curve.domain, False)
    return factor if frame is None else _FramedModel(frame, factor, exact)


def _factor(blocks: np.ndarray, store: np.ndarray, fixed: np.ndarray, domain: str,
            exact: bool):
    """The factor of the model with the blocks H(a, a + s) in blocks[s, a],
    a view of the build's store (_accumulator), each fixed sample decoupled
    in place; exact asks for the refusal of a model that is not positive
    definite on the circle (on the interval dpbtrf refuses it in any
    case)."""
    ns, k = blocks.shape[1], blocks.shape[-1]
    for s in range(3):   # H(a, a + s), a + s mod N, couples a fixed sample
        blocks[s, fixed] = 0.0
        blocks[s, fixed - s] = 0.0
    blocks[0, fixed] = np.eye(k)
    if domain == "interval":
        ab = store[k - 1:, 2 * k:(ns + 2) * k]
        ab[0] += 1e-12 * max(float(ab[0].max()), 1.0)
        return _BandedCholesky(ab)
    a, r = np.arange(ns)[:, None, None], np.arange(k)[:, None]
    ii, jj, vals = [], [], []
    for s in range(3):
        lo, hi = np.broadcast_arrays(a * k + r, (a + s) % ns * k + r.T)
        for i, j in ((lo, hi), (hi, lo))[:1 + (s > 0)]:   # H(a + s, a) = H(a, a + s)^T
            ii.append(i)
            jj.append(j)
            vals.append(blocks[s])
    h = sp.csc_matrix((np.concatenate([v.ravel() for v in vals]),
                       (np.concatenate([v.ravel() for v in ii]),
                        np.concatenate([v.ravel() for v in jj]))), shape=(ns * k, ns * k))
    diag_scale = max(float(h.diagonal().max()), 1.0)
    h = h + sp.identity(h.shape[0], format="csc") * (1e-12 * diag_scale)
    return _definite_lu(h) if exact else spla.splu(h)


def _definite_lu(h: sp.csc_matrix):
    """Sparse LU of the symmetric h with diagonal pivots in a symmetric
    order, P h P^T = L U, so that U = D L^T and h is positive definite
    exactly when every pivot is positive (Sylvester's law of inertia);
    raises FactorizationError otherwise."""
    lu = spla.splu(h, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise FactorizationError("sparse LU: the exact model is not positive definite")
    return lu


def _store_name(domain: str) -> str:
    """The workspace name of a build's store (_accumulator)."""
    return "band" if domain == "interval" else "blocks"


def _accumulator(store: np.ndarray, k: int, domain: str) -> np.ndarray:
    """The view acc[s, r, r2, a + 2] = H(a, a + s)[r, r2], a = -2..N + 1,
    of a build's store, into which the build adds its blocks.

    On the circle the store is that array.  On the interval it is LAPACK's
    lower band storage of the model (_factor reads it), with k - 1 rows
    above it and two samples' columns on each side: entry (r, r2) of
    H(a, a + s) lies in row s*k + r2 - r of the band, at column a*k + r, an
    affine function of (s, r, r2, a), so the blocks are a strided view of
    the store and no two of their entries share one.  The entries r2 < r of
    the diagonal blocks, which the band leaves out, fall into the rows
    above it; the side columns are where the interval's blocks a = -2, -1,
    N, N + 1 would be, which no build writes.
    """
    if domain == "circle":
        return store
    row, col = store.strides
    return np.lib.stride_tricks.as_strided(
        store[k - 1:], shape=(3, k, k, store.shape[1] // k),
        strides=(k * row, col - row, row, k * col))


def _fold(acc: np.ndarray, domain: str) -> np.ndarray:
    """The blocks H(a, a + s) in blocks[s, a], as a view, of the
    accumulator with H(a, a + s) in acc[s, :, :, a + 2] (_accumulator),
    after the circle's wrap is folded in: a = -2, -1 are N - 2, N - 1 and
    a = N, N + 1 are 0, 1 (on the interval they are not written)."""
    ns = acc.shape[-1] - 4
    if domain == "circle":
        acc[..., 2:4] += acc[..., ns + 2:]
        acc[..., ns:ns + 2] += acc[..., :2]
    return acc[..., 2:ns + 2].transpose(0, 3, 1, 2)


def _model_blocks(spec: FunctionalSpec, curve: DiscreteCurve, frame,
                  exact: bool = False, fallback: bool = False, data=None) -> np.ndarray:
    """The model's k x k blocks H(a, a + s) in blocks[s, a], s = 0..2, built
    with the samples on the last axis, where numpy's elementwise loops run
    long: a view into this thread's workspace, valid until the next build
    of the same shape on the thread.

    Block (a, b) is sum_j S_j(a, b) (E_j^T E_a)^T (E_j^T E_b), with the row
    products S_j(a, b) = sum c w_j D[j, a] D[j, b] of _row_products, over
    the pairs and row spans of the grid's plan (_stencil_matrices).  With
    no frame, k = 1 and every overlap E_j^T E_a is 1, so each block is the
    sum of its row products.  Those are added term by term, one offset at a
    time: summing the terms first, as the framed loop does, would round
    some flat entries differently (at N = 64 and tau = 0.7, for one).

    With exact, on a curved manifold, the curvature goes in too
    (_add_curvature); with fallback as well, the Gauss-Newton store is
    copied to the workspace's "<store> gauss-newton" before it does.  data
    is the solve's _solve_data, made here without it.
    """
    ns, domain = curve.n_samples, curve.domain
    if data is None:
        data = _solve_data(spec, curve, np.arange(ns), frame is not None, None)
    plan = data["plan"]
    ws = _WORKSPACE.arrays(ns, frame)
    k = 1 if frame is None else frame.shape[0]
    name = _store_name(domain)
    store = _scratch(ws, name, (4 * k - 1, (ns + 4) * k) if domain == "interval"
                     else (3, k, k, ns + 4))
    store.fill(0.0)
    acc = _accumulator(store, k, domain)
    prods = data["products"]
    if frame is None:
        scalars = acc[:, 0, 0]   # H(a, a + s) in scalars[s, a + 2]
        for term_prods in prods:
            # row j adds its products to H(a, a + s), a = j + p
            for p in range(-2, 3):
                scalars[:, p + 2:p + 2 + ns] += term_prods[p + 2]
        return _fold(acc, domain)
    step = _scratch(ws, "step", (k, k, ns))   # E_j^T E_(j+1)
    for j, jp in plan.steps:
        _row_dots(frame[:, :, j], frame[:, :, jp], step[:, :, j])
    back = _scratch(ws, "back", (k, k, ns))   # E_(j-1)^T E_j
    back[:, :, 1:] = step[:, :, :-1]
    back[:, :, 0] = step[:, :, -1]
    # E_j^T E_(j+p) for p = 1, -1 and each far offset's rows
    overlaps = [step, back.swapaxes(0, 1)] + [
        _row_dots(frame[:, :, rows], frame.take(idx, axis=2)) for rows, idx in plan.far]
    dots, block = _scratch(ws, "dots", (k, k, ns)), _scratch(ws, "block", (k, k, ns))
    eye = np.eye(k)[:, :, None]
    for s, at, rows, dest, left, right in plan.pairs:
        # row j's products into the block (a, a + s), a = j + p: left^T right
        out = block[:, :, :rows.stop - rows.start]
        right = None if right is None else overlaps[right[0]][:, :, right[1]]
        if left is None:
            term = eye if right is None else right
        else:
            left = overlaps[left[0]][:, :, left[1]].swapaxes(0, 1)
            term = left if right is None else _row_dots(left, right.swapaxes(0, 1),
                                                        dots[:, :, :out.shape[2]])
        acc[s, :, :, dest] += np.multiply(prods[at], term, out=out)
    if exact:
        if fallback:
            np.copyto(_scratch(ws, name + " gauss-newton", store.shape), store)
        _add_curvature(acc, spec, curve, frame, plan, data["curvature"], ws)
    return _fold(acc, domain)


def _span(a: np.ndarray):
    """The slice from the first to the last nonzero entry of a; None if
    there is none."""
    nz = np.flatnonzero(a)
    return slice(nz[0], nz[-1] + 1) if nz.size else None


def _wrapped(rows: slice, p: int, n: int):
    """The (j, j + p mod n) slice pairs that cover the rows j of the slice,
    one more pair at each wrap."""
    out = []
    j = rows.start
    while j < rows.stop:
        src = (j + p) % n
        end = min(rows.stop, j + n - src)
        out.append((slice(j, end), slice(src, src + end - j)))
        j = end
    return out


def _add_curvature(acc: np.ndarray, spec: FunctionalSpec, curve: DiscreteCurve,
                   frame: np.ndarray, plan: _ModelPlan, terms, ws: dict) -> None:
    """Add the second-order parts of the exact Hessian to the Gauss-Newton
    blocks in acc (H(a, a + s) in acc[s, :, :, a + 2]), with the frames of
    tangent_frame, E_j in frame[:, :, j], and per term (c w, c w D by
    diagonals) in terms (_solve_data).

    Each term is 1/2 c sum_j w_j q(x_j, u_j) in the raw stencil values
    u = D x: q = <u~, P(x) u~> on u~ = u minus the field's offset, plus
    -2 <u, m S x> + m^2 |S x|^2 for a cross field A = m S x (the extension
    that functionals.ambient_gradient differentiates).  Beyond the
    Gauss-Newton part this gives, in the frames:
    - for each row j and sample a = j + p, the mixed block
      c w_j D[j, a] E_a Y_j^T at (a, j), and its transpose at (j, a), with
      Y_j = DP(x_j)[E_j] u~_j - m_j S E_j;
    - at each node, c w_j (1/2 <u~, D^2P[E_j, E_j] u~> + m_j^2 (S E_j)(S E_j)^T)
      (the derivatives of P from Manifold.proj_derivatives);
    - at each sample, the Weingarten term E_a DP(x_a)[E_a] g-bar_a, with
      g-bar the ambient gradient (Absil, Mahony & Trumpf, "An extrinsic look
      at the Riemannian Hessian", GSI 2013; Manifold.weingarten), the one
      functionals.gradient memoized at this curve for this spec.
    The mixed blocks of every term at one offset p are summed as
    Z_j = sum c w_j D[j, j + p] Y_j before the one contraction with E_(j+p),
    over the plan's rows for p: all of them for p = 0, +-1 and the
    interval's end row for p = +-2.
    """
    m, t = curve.manifold, curve.times
    ns = curve.n_samples
    xt = np.ascontiguousarray(curve.samples.T)
    diag = acc[0, :, :, 2:ns + 2]   # the blocks (a, a)
    diag += m.weingarten(xt, np.ascontiguousarray(ambient_gradient(spec, curve).T))
    ys = []   # Y_j per term
    for term, (cw, _) in zip(spec.terms, terms):
        f = term.field
        off = None if f is None else f.offset(t)
        u = curve.derivative(term.order)[0]
        u = np.ascontiguousarray((u if off is None else u - off).T)
        y, node = m.proj_derivatives(xt, frame, u)
        jac = None if f is None else f.jacobian(t)
        if jac is not None:
            sj = jac[0] @ frame   # S E_j
            if jac[1] is not None:
                sj *= jac[1]
            y -= sj
            node += np.einsum("rmj,smj->rsj", sj, sj)
        diag += cw * node
        ys.append(y)
    z, zt = _scratch(ws, "z", frame.shape), _scratch(ws, "z_term", frame.shape)
    dots, block = ws["dots"], ws["block"]   # made by _model_blocks
    for p, live, rows, wrapped, dest in plan.curvature:
        zp = z[:, :, rows]
        for i, term in enumerate(live):
            alpha, y = terms[term][1][p + 2, rows], ys[term][:, :, rows]
            if i == 0:
                np.multiply(alpha, y, out=zp)
            else:
                zp += np.multiply(alpha, y, out=zt[:, :, rows])
        # E_(j+p) Z_j^T, the block (j + p, j) and the transpose of (j, j + p)
        for j, jp in wrapped:
            _row_dots(frame[:, :, jp], z[:, :, j], dots[:, :, j])
        blk = dots[:, :, rows]
        if p < 0:
            acc[-p, :, :, dest] += blk
        elif p > 0:
            acc[p, :, :, dest] += blk.swapaxes(0, 1)
        else:
            diag[:, :, rows] += np.add(blk, blk.swapaxes(0, 1), out=block[:, :, rows])


def _row_dots(u: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """out[r, r2, j] = sum_i u[r, i, j] v[r2, i, j]: the dot products of the
    rows of u and v, for stacks of matrices with the samples last, summed in
    the order of i."""
    return np.einsum("rij,sij->rsj", u, v, out=out)


def _curve_stats(curve: DiscreteCurve) -> Tuple[float, float, float]:
    """length, quadrature_length and sup speed, from one evaluation of the speed."""
    speed = row_norm(curve.derivative(1)[1])
    quad_length = float(np.sum(node_weights(curve) * speed))
    return length(curve), quad_length, float(np.max(speed))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def _memory_pair(s: np.ndarray, y: np.ndarray):
    """The memory's entry (s, y, 1/y.s) for a pair that passes the curvature
    test, which it meets once, on entering; None for one that fails it."""
    ys = _dot(y, s)
    if ys > CURVATURE_TOL * math.sqrt(_dot(y, y) * _dot(s, s)):
        return s, y, 1.0 / ys
    return None


def _two_loop(pairs, g: np.ndarray, flat, project) -> np.ndarray:
    """The two-loop recursion: the inverse-BFGS update of H0 = P F^-1 P
    (flat(v) = P F^-1 v, project(v) = P v) by the pairs (s, y, 1/y.s),
    oldest first, applied to the tangent g.  With no pair it returns
    flat(g)."""
    if not pairs:
        return flat(g)
    alpha = []
    q = g
    for s, y, rho in reversed(pairs):
        alpha.append(rho * _dot(s, q))
        q = q - alpha[-1] * y
    r = flat(project(q))
    for (s, y, rho), a in zip(pairs, reversed(alpha)):
        r += (a - rho * _dot(y, r)) * s
    return project(r)


def minimize(spec: FunctionalSpec, constraint: ConstraintSet, x0: DiscreteCurve,
             opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Quasi-Newton descent from a feasible start: L-BFGS directions on the
    model preconditioner of _flat_model_factor (on a curved manifold rebuilt
    as the exact Hessian at the first accepted iterate and once a sample
    moves REBUILD_DIST from where it was built), with Armijo backtracking,
    or the noise phase once objective differences are roundoff.

    The first direction, and every direction after the memory is cleared,
    is the flat one: the model solve on the rows of every sample, zero on
    the fixed rows, projected onto the tangent spaces.  Fixed samples never
    move (their coordinates are bit-identical between x0 and the
    minimizer); a step accepted by the Armijo test strictly decreases the
    objective, one accepted by the noise test raises it by at most
    NOISE_K*eps*|objective|, and each history record names the test
    ("armijo" or "noise") and the phase of its search; the converged
    verdict certifies el_residual <= grad_tol.  Curve statistics are taken
    of the start and the minimizer only (see HistoryRecord).

    impose returns x0 itself when its fixed samples hold the data, as a
    seed's do; the solve then leaves x0 the memo it came with.
    """
    x0_memo = x0.memo_state()
    x = impose(constraint, x0)
    m = x.manifold
    free = free_mask(constraint, x.grid_n, x.domain)
    fixed = fixed_indices(constraint, x.grid_n, x.domain)
    track_winding = isinstance(m, Torus)
    w_ref = winding_vector(x) if track_winding else None
    w_drift = 0.0 if track_winding else None

    # with no free sample the residual is exactly 0 and nothing is factorized.
    # The factor comes first, so a new grid's stencils are built inside
    # _stencil_matrices, the assembly step; memo keeps what the solve's
    # builds share (_solve_data)
    memo = {}
    lu = _flat_model_factor(spec, x, free, memo=memo) if len(free) else None
    built_at = x.samples if isinstance(lu, _FramedModel) else None
    obj = evaluate(spec, x)
    g = gradient(spec, x, free)

    def project(v):
        return m.project_tangent(x.samples, v)

    def flat_direction(v):
        # the model solve, zero on the fixed rows, projected at the iterate
        return project(lu.solve(v))

    # (s, y, 1/y.s), oldest first; a flat manifold's model is exact and keeps none
    pairs = deque(maxlen=LBFGS_MEMORY)
    it = 0
    verdict = "iter_limit"
    message = ""
    resid = gradient_norm(x, g)
    history = [HistoryRecord(0, obj, resid, *_curve_stats(x), 0.0)]

    while True:
        if resid <= opts.grad_tol:
            verdict = "converged"
            break
        if it >= opts.max_iters:
            message = "iteration budget exhausted"
            break
        if it and built_at is not None:
            # an accepted step that the solve goes on from: where the exact
            # model is not positive definite, the model in use stays at
            # iterate 1, and a rebuild takes the Gauss-Newton model of the
            # same build
            far = np.max(row_norm(x.samples - built_at)) > REBUILD_DIST
            if far or it == 1:
                try:
                    lu = _flat_model_factor(spec, x, free, exact=True, fallback=far, memo=memo)
                    built_at = x.samples
                    if lu.exact:
                        pairs.clear()
                except FactorizationError:
                    if far:
                        raise

        d = _two_loop(pairs, g, flat_direction, project)
        gd = _dot(g, d)
        if pairs and gd <= 0:   # rounding broke descent: start afresh
            pairs.clear()
            d = flat_direction(g)
            gd = _dot(g, d)

        step = INITIAL_STEP
        if m.compact:
            max_disp = float(np.max(row_norm(d)))   # d is zero on fixed rows
            if max_disp > 0:
                step = min(step, STEP_CAP / max_disp)

        # Each trial is one exp over the whole sample array.  d is zero on
        # the fixed rows, but exp may still round them, so they are copied
        # back and never move.  A trial meets the Armijo test first, but in
        # the noise phase only while its predicted decrease is at least one
        # rounding unit of the objective: below that, a decrease is rounding
        # luck.  A noise-phase trial that fails it and stays within the noise
        # level is given its gradient, which an accepted step keeps.
        rounding = np.finfo(float).eps * abs(obj)
        noise = NOISE_K * rounding
        noise_phase = step * gd < noise
        floor = step * BACKTRACK ** (NOISE_TRIALS - 1) if noise_phase else STEP_FLOOR
        phase = None
        while step >= floor:
            trial = m.exp(x.samples, -step * d)
            trial[fixed] = x.samples[fixed]
            try:
                x_trial = x.with_samples(trial)
            except DegenerateCurveError:
                step *= BACKTRACK
                continue
            obj_trial = evaluate(spec, x_trial)
            if (obj_trial <= obj - ARMIJO_C1 * step * gd and obj_trial < obj
                    and (not noise_phase or step * gd >= rounding)):
                phase = "armijo"
                break
            if noise_phase and obj_trial <= obj + noise:
                g_trial = gradient(spec, x_trial, free)
                resid_trial = gradient_norm(x_trial, g_trial)
                if resid_trial < NOISE_GRAD_DROP * resid:
                    phase = "noise"
                    break
            x_trial.clear_memo()   # before the next trial is built
            step *= BACKTRACK
        if phase is None:
            message = ("stalled at the roundoff floor" if noise_phase
                       else "line search step underflow")
            break

        x, obj = x_trial, obj_trial
        it += 1
        if track_winding:
            w_drift = max(w_drift, float(np.max(np.abs(winding_vector(x) - w_ref))))
        g_prev = g
        if phase == "noise":
            g, resid = g_trial, resid_trial
        else:
            g = gradient(spec, x, free)
            resid = gradient_norm(x, g)
        if m.curved:
            # the pair is kept as taken, in ambient coordinates, and never changed
            pair = _memory_pair(-step * d, g - g_prev)
            if pair is not None:
                pairs.append(pair)
        history.append(HistoryRecord(it, obj, resid, None, None, None, step, phase,
                                     "noise" if noise_phase else "armijo"))

    if it:   # record 0 has the start's statistics; the last gets the minimizer's
        ln, ql, sv = _curve_stats(x)
        history[-1] = replace(history[-1], length=ln, quad_length=ql, sup_velocity=sv)
    x.clear_memo()   # the report keeps the minimizer, not its derived arrays
    x0.restore_memo(x0_memo)
    return SolveReport(x, spec, verdict, it, obj, resid, tuple(history),
                       winding_drift=w_drift, message=message)


# ---------------------------------------------------------------------------
# Palais-Smale-style diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSSummary:
    """Discrete compactness diagnostics along a run (or evaluated family).

    The domination check pairs the objective with the quadrature length (the
    discrete integral of the speed), for which
    objective >= tau^2/2 * quad_length^2 is an exact Cauchy-Schwarz identity
    of the discretization.  Geodesic segment lengths are reported alongside
    for growth/boundedness statements.

    The check, length_max and length_to_objective read the records that
    carry curve statistics: every curve of an evaluated family, and the
    start and the minimizer of a solve.  The bound holds for every discrete
    curve, so it checks the discretization, not the path, and the two
    curves a solve reports suffice for it; n_records counts every record.
    """

    n_records: int
    objective_max: float
    objective_min: float
    length_max: float
    length_to_objective: float
    domination_checked: bool
    domination_ok: bool
    domination_violations: Tuple[int, ...]
    domination_margin_min: float


def ps_diagnostics(report: SolveReport) -> PSSummary:
    hist = report.history
    objs = np.array([h.objective for h in hist])
    obj_max = float(np.max(objs)) if len(objs) else np.nan
    obj_min = float(np.min(objs)) if len(objs) else np.nan
    stats = [i for i, h in enumerate(hist) if h.quad_length is not None]
    lens = np.array([hist[i].length for i in stats])
    qlens = np.array([hist[i].quad_length for i in stats])
    len_max = float(np.max(lens)) if len(lens) else np.nan
    ratio = len_max / obj_max if obj_max and obj_max > 0 else np.inf

    checked = report.spec.kind == "tension" and report.spec.tau > 0
    violations: Tuple[int, ...] = tuple()
    margin_min = np.inf
    if checked and stats:
        tau = report.spec.tau
        margins = objs[stats] - 0.5 * tau**2 * qlens**2
        tol = 1e-12 * np.maximum(1.0, np.abs(objs[stats]))
        violations = tuple(stats[i] for i in np.nonzero(margins < -tol)[0])
        margin_min = float(np.min(margins))
    return PSSummary(len(hist), obj_max, obj_min, len_max, ratio,
                     checked, len(violations) == 0, violations, margin_min)


def evaluate_family(spec: FunctionalSpec, constraint: ConstraintSet,
                    curves: Sequence[DiscreteCurve]) -> SolveReport:
    """Evaluate a family of curves without descending (one history record each).

    Used for divergent-minimizing-sequence demonstrations: families whose
    objectives stay bounded while their lengths grow witness the loss of
    compactness that the tension term restores.
    """
    if not curves:
        raise UsageError("evaluate_family needs at least one curve")
    records = []
    for i, curve in enumerate(curves):
        free = free_mask(constraint, curve.grid_n, curve.domain)
        obj = evaluate(spec, curve)
        resid = el_residual(spec, curve, free)
        ln, ql, sv = _curve_stats(curve)
        records.append(HistoryRecord(i, obj, resid, ln, ql, sv, 0.0))
    last = records[-1]
    return SolveReport(curves[-1], spec, "evaluated", 0, last.objective,
                       last.grad_norm, tuple(records))


# ---------------------------------------------------------------------------
# Multistart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultistartResult:
    reports: Tuple[SolveReport, ...]
    labels: Tuple[str, ...]
    sup_distance: np.ndarray = field(repr=False)
    h2_distance: np.ndarray = field(repr=False)
    clusters: Tuple[Tuple[int, ...], ...]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def sup_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Max over samples of the pointwise geodesic distance between two curves."""
    if a.n_samples != b.n_samples or a.manifold.name != b.manifold.name:
        raise UsageError("curves are not comparable")
    return float(np.max(a.manifold.dist(a.samples, b.samples)))


def _h2_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Auxiliary discrete H^2 distance, finite everywhere: b's derivative
    fields are projected onto a's tangent spaces (a copy on the flat
    manifolds) and compared with a's there."""
    m = a.manifold
    w = node_weights(a)
    d0 = m.dist(a.samples, b.samples)
    va, vb = a.derivative(1)[1], b.derivative(1)[1]
    aa, ab = a.derivative(2)[1], b.derivative(2)[1]
    dv = va - m.project_tangent(a.samples, vb)
    da = aa - m.project_tangent(a.samples, ab)
    total = np.sum(w * d0**2)
    total += np.sum(w * row_dot(dv, dv))
    total += np.sum(w * row_dot(da, da))
    return float(np.sqrt(total))


def multistart(spec: FunctionalSpec, constraint: ConstraintSet,
               seeds: Sequence[Tuple[DiscreteCurve, str]],
               opts: SolveOptions = SolveOptions()) -> MultistartResult:
    """Independent solves from labelled seeds plus a distinctness matrix.

    Minimizers closer than CLUSTER_TOL in sup-distance are clustered together
    (union-find); the number of clusters counts distinct critical points.
    """
    reports = tuple(minimize(spec, constraint, curve, opts) for curve, _ in seeds)
    labels = tuple(label for _, label in seeds)
    k = len(reports)
    supd = np.zeros((k, k))
    h2d = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            supd[i, j] = supd[j, i] = sup_distance(reports[i].minimizer,
                                                   reports[j].minimizer)
            h2d[i, j] = h2d[j, i] = _h2_distance(reports[i].minimizer,
                                                 reports[j].minimizer)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if supd[i, j] < CLUSTER_TOL:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = tuple(tuple(v) for _, v in sorted(groups.items()))
    return MultistartResult(reports, labels, supd, h2d, clusters)
