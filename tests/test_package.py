"""Source-level checks on the package."""

import ast
import importlib
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


def _definitions(tree):
    """(name, line) of the functions and classes of a module and the
    methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def test_every_definition_is_used_by_the_package():
    # a helper only tests call belongs in the tests; a re-export in
    # __init__.py is not a use
    trees = {
        path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        f"{name}:{line} {fname}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for fname, line in _definitions(tree)
        if not (fname.startswith("__") and fname.endswith("__")) and fname not in used
    ]
    assert unused == []


def test_benchmark_trace_targets_exist():
    # the benchmark's tracer looks up each (layer, function) pair by name and
    # stops on a missing one; read the list without importing the benchmark
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    )
    assert targets
    missing = [
        f"{layer}.{name}"
        for layer, name, _ in targets
        if not callable(getattr(importlib.import_module(f"cellalg.{layer}"), name, None))
    ]
    assert missing == []
