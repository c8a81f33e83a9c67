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
