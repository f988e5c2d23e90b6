"""The benchmark's tracer names rainbowpath functions by string; a refactor
that renames or stops importing one would break `perfbench/run.py --trace 1`
without failing any library test, so those names are checked here, and so
is that each is still used where it is traced. So are the bytes of the
reports of the benchmark's three workloads, that one benchmark iteration
runs in a fresh interpreter as the benchmark starts it, the pytest
configuration's warning filter, which decides whether a failing test lets
the rest of the session run, that the package defines nothing that only
tests use, that every test helper has a test that uses it, and that the
committed benchmark history holds no raw samples."""

import ast
import importlib
import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowpath import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_spans = _load("spans")
TRACED = sorted({attr for layers in (_spans.LAYERS, _spans.ITER_LAYERS)
                 for attrs in layers.values() for attr in attrs})


@pytest.mark.parametrize("attr", TRACED)
def test_traced_name_resolves(attr):
    module_name, name = attr.rsplit(".", 1)
    module = importlib.import_module(f"rainbowpath.{module_name}")
    assert callable(getattr(module, name, None)), f"rainbowpath.{attr} is gone"


SRC = PERFBENCH.parent / "src" / "rainbowpath"


@pytest.mark.parametrize("attr", TRACED)
def test_traced_name_defined_or_called(attr):
    """A traced name is defined in its module or called there. An import
    kept alive only for the tracer still resolves, but its layer's counts
    would silently read 0."""
    module_name, name = attr.rsplit(".", 1)
    tree = ast.parse((SRC / f"{module_name}.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert name in defined | called, f"rainbowpath.{attr} is imported but never called"


_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.alias: "name"}


def _unused(trees, defined, kinds):
    """The (file, name) pairs of defined that no tree names outside that
    definition itself, through a node of one of kinds (keys of
    _NAME_FIELD: a name, an attribute, a parameter, an imported name)."""
    named = set()  # (file, top-level definition it sits in, name)
    for file, tree in trees.items():
        for node in tree.body:
            owner = getattr(node, "name", None)
            named.update((file, owner, getattr(sub, _NAME_FIELD[type(sub)]))
                         for sub in ast.walk(node) if type(sub) in kinds)
    return [(file, name) for file, name in defined
            if not any(n == name and (f, o) != (file, name) for f, o, n in named)]


def test_every_definition_is_used_or_exported():
    """Every module-level function and class of src/rainbowpath is named in
    the package outside its own definition, or exported by its __init__.
    Code that only tests call, such as a reference implementation, belongs
    in tests/helpers.py."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [f"{module}.{name}" for module, name in _unused(trees, defined, (ast.Name, ast.Attribute))
              if name not in exported]
    assert not unused, f"defined in src/rainbowpath but used only outside it: {unused}"


TESTS = Path(__file__).resolve().parent


def test_every_test_helper_is_used():
    """Every module-level function of tests/conftest.py and tests/helpers.py
    is named by the test modules outside its own definition: as a name, an
    attribute, a fixture parameter, or an import from another file."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in TESTS.glob("*.py")}
    defined = [(file, node.name) for file in ("conftest.py", "helpers.py") for node in trees[file].body
               if isinstance(node, ast.FunctionDef)]
    unused = [f"{file[:-3]}.{name}" for file, name in _unused(trees, defined, tuple(_NAME_FIELD))]
    assert not unused, f"test helpers that no test uses: {unused}"


def _reference_digest(name, seed, tmp_path):
    """Run the workload at seed, check that its validation fails no
    operation, and return its report digest with the one that
    perfbench/reference.json pins for it."""
    workload = _load("workloads").WORKLOADS[name]
    state = workload.setup(seed, tmp_path)
    validation, digest = workload.validate(state, workload.measure(state))
    assert validation.failed == 0, validation.problems
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="ascii"))
    return digest, reference["report_sha256"][name][str(seed)]


# seed 97 is the benchmark's held-out seed, whose random inputs are disjoint
# from those of seed 0
@pytest.mark.parametrize("seed", [0, 97])
def test_sweep_report_matches_reference(seed, tmp_path):
    """The mycielski-sweep workload's report, byte for byte, is the one
    pinned in perfbench/reference.json, and its validation fails no
    operation: a change to any verdict, count or digest in a sweep shows
    here, not only in a benchmark run."""
    digest, pinned = _reference_digest("mycielski-sweep", seed, tmp_path)
    assert digest == pinned


@pytest.mark.parametrize("seed", [0, 97])
def test_exact_solvers_report_matches_reference(seed, tmp_path):
    """The exact-solvers workload, the only one that runs the graded
    procedure, the induced-path and the most-colorful searches, writes the
    report pinned in perfbench/reference.json and fails no operation."""
    digest, pinned = _reference_digest("exact-solvers", seed, tmp_path)
    assert digest == pinned


@pytest.mark.parametrize("seed", [0, 97])
def test_random_thorough_report_matches_reference(seed, tmp_path):
    """The random-thorough workload, the thorough sweep that takes chi of
    many induced subgraphs through the chi cache, writes the report pinned
    in perfbench/reference.json and fails no operation."""
    digest, pinned = _reference_digest("random-thorough", seed, tmp_path)
    assert digest == pinned


@pytest.mark.parametrize("workload", ["mycielski-sweep", "exact-solvers"])
def test_child_iteration_runs(workload, tmp_path):
    """One benchmark iteration in a fresh interpreter, as perfbench/run.py
    starts it: child.py's own import path, its record fields and its
    last-line JSON. It exits 0, fails no operation and writes the pinned
    report; an iteration that exits non-zero fails the whole benchmark run,
    which the in-process reference tests above cannot see."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", workload, "--seed", "0",
         "--mode", "run", "--workdir", str(tmp_path)],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failed"] == 0, record["problems"]
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="ascii"))
    assert record["report_sha256"] == reference["report_sha256"][workload]["0"]


PYPROJECT = PERFBENCH.parent / "pyproject.toml"

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


README = PERFBENCH.parent / "README.md"


def test_readme_cli_examples_parse():
    """Every command line in the README's CLI block parses with the parser
    the `rainbowpath` command uses."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("rainbowpath ")]
    assert len(commands) == 10
    parser = cli.build_parser()
    for command in commands:
        argv = shlex.split(command)[1:]
        assert parser.parse_args(argv).command == argv[0], command


ROOT = PERFBENCH.parent


def test_bench_history_holds_no_raw_samples():
    """Each root BENCH_<pr>.json keeps its claim, summaries and per-run
    metrics; the per-iteration arrays of a run record (samples, raw,
    iterations) stay in the gitignored perfbench/out/, so the history does
    not grow by megabytes per benchmarked change."""
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    raw = [f"{path.name} runs[{i}].{key}"
           for path in files
           for i, run in enumerate(json.loads(path.read_text(encoding="ascii"))["runs"])
           if isinstance(run, dict)
           for key in ("samples", "raw", "iterations") if key in run.get("record", {})]
    assert not raw, f"raw benchmark arrays committed: {raw[:5]}"
