"""The benchmark's tracer wraps names it looks up on the package modules;
a name pruned from the package would stop a traced run partway through."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr", [(m.__name__, a) for m, a, _ in load_spans().BINDINGS]
)
def test_traced_binding_is_callable(module, attr):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"
