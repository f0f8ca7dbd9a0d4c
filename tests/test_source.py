import ast
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
