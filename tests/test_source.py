import ast
from pathlib import Path

import serwalk

SOURCES = sorted(Path(serwalk.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariants must be raised
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
