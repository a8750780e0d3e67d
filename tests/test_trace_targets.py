"""The benchmark's tracer patches library functions by name; every name it
patches must exist, or a rename breaks traced runs only."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracing = tracing_module()
    return ([t[1:3] for t in tracing.SPAN_TARGETS]
            + [t[1:3] for t in tracing.COUNT_TARGETS])


@pytest.mark.parametrize("module,attr", targets())
def test_trace_target_resolves(module, attr):
    mod = importlib.import_module("stemhc." + module)
    if "." in attr:
        # patched on the class that defines it, as the tracer does
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))
