"""Checks on the package source itself."""

import ast
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
