"""The benchmark's tracer names rainbowpath functions by string; a refactor
that renames or stops importing one would break `perfbench/run.py --trace 1`
without failing any library test, so those names are checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
TRACED = sorted({attr for layers in (_spans.LAYERS, _spans.ITER_LAYERS)
                 for attrs in layers.values() for attr in attrs})


@pytest.mark.parametrize("attr", TRACED)
def test_traced_name_resolves(attr):
    module_name, name = attr.rsplit(".", 1)
    module = importlib.import_module(f"rainbowpath.{module_name}")
    assert callable(getattr(module, name, None)), f"rainbowpath.{attr} is gone"
