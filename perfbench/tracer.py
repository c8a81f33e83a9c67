"""Span tracer for the varcurves benchmark.

The tracer wraps, from outside the package, the module attributes and class
methods that `varcurves.optimize` and `varcurves.cli` call through.  While it
is active every call of a wrapped name records one span: name, start, end,
parent span and, for `canonicalize`, the number of rows it processed.  Spans
stay in memory; `write` saves them when the run ends.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Time spent in code that is not wrapped is charged to the nearest
wrapped caller.

A target that a later refactor removes is reported with a warning, and every
metric that depends on it is reported as null; the tracer never makes a run
fail because a name is gone.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute) for module-level functions.  The wrapper
# replaces the function wherever a varcurves module references it, so calls
# through `optimize.evaluate` and `functionals.evaluate` are both seen.
FUNCTION_TARGETS = (
    ("optimize.minimize", "varcurves.optimize", "minimize"),
    ("optimize.multistart", "varcurves.optimize", "multistart"),
    ("optimize.precond_setup", "varcurves.optimize", "_flat_model_factor"),
    ("optimize.assembly", "varcurves.optimize", "_stencil_matrices"),
    ("optimize.history", "varcurves.optimize", "_curve_stats"),
    ("optimize.multistart_distance", "varcurves.optimize", "sup_distance"),
    ("optimize.multistart_distance", "varcurves.optimize", "_h2_distance"),
    ("functionals.evaluate", "varcurves.functionals", "evaluate"),
    ("functionals.gradient", "varcurves.functionals", "gradient"),
    ("constraints.seed", "varcurves.constraints", "seed"),
    ("config.load", "varcurves.config", "load_config"),
    ("curves.save", "varcurves.curves", "save_curve"),
    ("cli.main", "varcurves.cli", "main"),
)

# (span name, module, class names, method) for methods; each class that
# defines the method itself gets the wrapper.
METHOD_TARGETS = (
    ("manifolds.canonicalize", "varcurves.manifolds",
     ("Manifold", "Euclidean", "Sphere", "Torus", "SO3"), "canonicalize"),
    ("manifolds.exp", "varcurves.manifolds",
     ("Manifold", "Euclidean", "Sphere", "Torus", "SO3"), "exp"),
    ("manifolds.project_tangent", "varcurves.manifolds",
     ("Manifold", "Euclidean", "Sphere", "Torus", "SO3"), "project_tangent"),
    ("manifolds.dproj_quad", "varcurves.manifolds",
     ("Manifold", "Euclidean", "Sphere", "Torus", "SO3"), "dproj_quad"),
    ("manifolds.constraint_residual", "varcurves.manifolds",
     ("Manifold", "Euclidean", "Sphere", "Torus", "SO3"), "constraint_residual"),
    ("curves.validate", "varcurves.curves", ("DiscreteCurve",), "__post_init__"),
    ("curves.tangent_field", "varcurves.curves", ("TangentField",), "__post_init__"),
    ("fields.eval", "varcurves.fields", ("PriorField",), "eval_many"),
    ("fields.eval", "varcurves.fields", ("PriorField",), "grad_inner"),
    ("fields.eval", "varcurves.fields", ("PriorField",), "grad_sq"),
)

# The LU factorization is reached through the `spla` module alias in
# optimize; a proxy module times `splu` and the `solve` of what it returns.
SPLU_MODULE = "varcurves.optimize"
FACTORIZE_SPAN = "optimize.factorize"
PRECOND_SOLVE_SPAN = "optimize.precond_solve"

ROWS_COUNTED = {"manifolds.canonicalize"}
ROOT_SPAN = "bench.op"


class _ModuleProxy:
    """Stands in for a module, overriding some attributes and delegating the rest."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class _TracedFactor:
    """Wraps a factorization object so that its `solve` records a span."""

    def __init__(self, real, solve):
        self._real = real
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, rows)
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []   # (owner, attribute, original, replacement)
        self.present: set[str] = {ROOT_SPAN}
        self._id(ROOT_SPAN)
        self._build()

    # -- set-up ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, count_rows: bool = False):
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows = 0
                if count_rows:   # canonicalize(self, x): rows of x
                    shape = np.shape(args[1] if len(args) > 1 else kwargs.get("x"))
                    rows = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
                spans[idx] = (nid, start, end, parent, rows)

        return traced

    def _warn(self, what: str) -> None:
        print(f"perfbench: warning: {what} not found; its layer is reported as null",
              file=sys.stderr)

    def _build(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "varcurves" or n.startswith("varcurves.")) and m is not None]
        for name, modname, attr in FUNCTION_TARGETS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if not callable(fn):
                self._warn(f"{modname}.{attr}")
                continue
            self.present.add(name)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is fn:
                        self._patches.append((mod, key, fn, wrapper))
        for name, modname, classes, meth in METHOD_TARGETS:
            mod = sys.modules.get(modname)
            found = False
            for cname in classes:
                cls = getattr(mod, cname, None)
                fn = None if cls is None else vars(cls).get(meth)
                if callable(fn):
                    found = True
                    wrapper = self._wrap(name, fn, count_rows=name in ROWS_COUNTED)
                    self._patches.append((cls, meth, fn, wrapper))
            if found:
                self.present.add(name)
            else:
                self._warn(f"{modname}.{meth} on {', '.join(classes)}")
        mod = sys.modules.get(SPLU_MODULE)
        spla = getattr(mod, "spla", None)
        if spla is None or not callable(getattr(spla, "splu", None)):
            self._warn(f"{SPLU_MODULE}.spla.splu")
            return
        self.present.update((FACTORIZE_SPAN, PRECOND_SOLVE_SPAN))
        factorize = self._wrap(FACTORIZE_SPAN, spla.splu)

        def splu(*args, **kwargs):
            lu = factorize(*args, **kwargs)
            solve = self._wrap(PRECOND_SOLVE_SPAN, lu.solve)
            return _TracedFactor(lu, solve)

        self._patches.append((mod, "spla", spla, _ModuleProxy(spla, splu=splu)))

    # -- recording ------------------------------------------------------------

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block, then restore."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    @contextmanager
    def root(self):
        """Record the block as the root span of one op."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self._ids[ROOT_SPAN], start, end, -1, 0)

    def summarize(self, first: int) -> dict:
        """Per-name totals over spans[first:]: self ns, calls, rows, calls in minimize."""
        spans = self.spans[first:]
        n = len(spans)
        names = np.array([s[0] for s in spans], int)
        dur = np.array([s[2] - s[1] for s in spans], np.int64)
        parent = np.array([s[3] - first if s[3] >= 0 else -1 for s in spans], int)
        rows = np.array([s[4] for s in spans], np.int64)
        child = np.zeros(n, np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        # parents precede their children, so one forward pass marks every
        # span that runs inside a minimize call
        minimize_id = self._ids.get("optimize.minimize", -1)
        inside = np.zeros(n, bool)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                inside[i] = inside[p] or names[p] == minimize_id
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = {
                "self_ns": int(self_ns[sel].sum()),
                "calls": int(sel.sum()),
                "rows": int(rows[sel].sum()),
                "calls_in_minimize": int((sel & inside).sum()),
            }
        return out

    def write(self, path) -> None:
        """Save all spans as gzip CSV: op,name,start_ns,end_ns,parent,rows.

        `op` numbers the traced ops; `parent` is the row index of the parent
        span (-1 for an op's root span).
        """
        root = self._ids[ROOT_SPAN]
        op = -1
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent,rows\n")
            for nid, start, end, parent, rows in self.spans:
                op += nid == root
                fh.write(f"{op},{self.names[nid]},{start},{end},{parent},{rows}\n")
