"""Every name that the benchmark tracer wraps exists in the package.

perfbench/tracer.py only warns about a target it cannot find and reports its
layer as null, so a renamed function would silently drop a layer from the
per-layer metrics.  This test loads the tracer read-only from its path and
fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span,modname,attr", tracer.FUNCTION_TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in tracer.FUNCTION_TARGETS])
def test_function_target_is_callable(span, modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("span,modname,classes,meth", tracer.METHOD_TARGETS,
                         ids=[f"{cs[0] if len(cs) == 1 else mod.rsplit('.', 1)[1]}.{m}"
                              for _, mod, cs, m in tracer.METHOD_TARGETS])
def test_method_target_is_defined_on_a_named_class(span, modname, classes, meth):
    mod = importlib.import_module(modname)
    owners = [c for c in classes
              if callable(vars(getattr(mod, c, object)).get(meth))]
    assert owners, f"no class of {classes} defines {meth}"


def test_factorization_target_is_reachable():
    mod = importlib.import_module(tracer.SPLU_MODULE)
    assert callable(getattr(getattr(mod, "spla", None), "splu", None))


def test_assembly_is_reached_only_from_precond_setup():
    # the assembly layer is the per-solve `_stencil_matrices`; evaluate and
    # gradient must never reach it, or the benchmark charges their stencil
    # work to assembly
    from varcurves import ConstraintSet, FunctionalSpec, make_manifold, optimize, seed

    c = ConstraintSet.clamped([0.0], [1.0], [0.0], [0.0])
    x0 = seed(c, make_manifold("euclidean:1"), 40)
    t = tracer.Tracer()
    with t.active(), t.root():   # optimize.minimize is looked up while wrapped
        rep = optimize.minimize(FunctionalSpec.tension_cost(1.0), c, x0)
    assert rep.iterations > 0
    ids = {name: i for i, name in enumerate(t.names)}
    assembly = [s for s in t.spans if s[0] == ids["optimize.assembly"]]
    assert assembly
    assert all(t.spans[s[3]][0] == ids["optimize.precond_setup"] for s in assembly)
    assert any(s[0] == ids["functionals.gradient"] for s in t.spans)
