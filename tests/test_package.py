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


def test_einsum_has_at_most_two_operands():
    # numpy runs a three-operand einsum as one nested loop, about 20 times
    # slower here than two matrix products
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum"
        and len(node.args) > 3
    ]
    assert found == []
