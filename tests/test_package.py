"""Source-level checks on the package."""

import ast
from pathlib import Path

import cellalg

PACKAGE = Path(cellalg.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements; every check raises or returns instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
