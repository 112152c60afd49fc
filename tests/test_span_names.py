"""The names the benchmark's span tracer wraps must exist in the package.

gfbench/spans.py looks functions and methods up by name when `--trace 1` is
given; a rename or deletion would only show in a traced benchmark run.  The
file imports the standard library alone, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "gfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("gfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,name", spans.FUNCTIONS,
                         ids=["%s.%s" % pair for pair in spans.FUNCTIONS])
def test_traced_function_exists(module, name):
    mod = importlib.import_module("%s.%s" % (spans.PACKAGE, module))
    assert callable(getattr(mod, name, None))


@pytest.mark.parametrize("module,cls,method,span", spans.METHODS,
                         ids=[m[3] for m in spans.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, method, span):
    mod = importlib.import_module("%s.%s" % (spans.PACKAGE, module))
    assert method in vars(getattr(mod, cls))
