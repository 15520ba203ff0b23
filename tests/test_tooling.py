"""Checks on the package source itself."""

import ast
import importlib
import pathlib

import planarcert

SRC = pathlib.Path(planarcert.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements: invariants must raise explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_every_traced_function_resolves():
    # perfbench's tracer patches these names by lookup, so a rename in the
    # package would break per-layer tracing; the file is read, not imported
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "layertrace.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    ]
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name, _ in traced
        if not callable(
            getattr(importlib.import_module(f"planarcert.{module}"), name, None)
        )
    ]
    assert missing == []
