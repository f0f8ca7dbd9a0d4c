import ast
import importlib
import types
from pathlib import Path

import serwalk

SOURCES = sorted(Path(serwalk.__file__).parent.glob("*.py"))


def _asserts(node) -> bool:
    # `python -O` strips assert statements, and callers handle ValueError,
    # not AssertionError: invariants must be raised as ValueError
    if isinstance(node, ast.Raise) and node.exc is not None:
        return "AssertionError" in ast.unparse(node.exc)
    return isinstance(node, ast.Assert)


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if _asserts(node)]
    assert SOURCES and found == []


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps these attributes by name: one renamed or
    # removed in the library would break its traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")  # run from source: no bytecode written
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert spans.TARGETS and missing == []
