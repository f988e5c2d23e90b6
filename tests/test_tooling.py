"""The benchmark's tracer names rainbowpath functions by string; a refactor
that renames or stops importing one would break `perfbench/run.py --trace 1`
without failing any library test, so those names are checked here. So is
the pytest configuration's warning filter, which decides whether a failing
test lets the rest of the session run."""

import importlib
import importlib.util
import subprocess
import sys
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


PYPROJECT = SPANS.parent.parent / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """pyproject.toml turns warnings into errors. Hypothesis's failure report
    emits a DeprecationWarning from mypy_extensions, which must stay ignored:
    raised, it becomes a pytest INTERNALERROR that stops the session at the
    first failing @given test, so the tests after it never run."""
    (tmp_path / "test_two.py").write_text(FAILING_GIVEN, encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
