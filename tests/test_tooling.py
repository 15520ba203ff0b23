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


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package, so an import a refactor left behind
    # would linger; __init__ imports only to re-export
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_embedding_stays_below_the_kuratowski_extraction():
    # kuratowski builds on embedding's left-right test, not the other way
    # round: embedding needs only errors and graphs from the package, and
    # neither the extraction's shuffle nor its queue
    tree = ast.parse((SRC / "embedding.py").read_text(encoding="utf-8"))
    imported = set()  # dotted names: each module, and each name from one
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative, so inside the package
                base = f"planarcert.{base}".rstrip(".")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    package = {name.split(".")[1] for name in imported if name.startswith("planarcert.")}
    assert package <= {"errors", "graphs"}
    assert not {"random", "collections.deque"} & imported


def test_the_verdict_audit_never_builds_adjacency_masks():
    # Graph.adj_mask costs O(n * m / 64) to build, so the audit that certify
    # runs on 10^6-edge verdicts stays linear only if nothing it calls reads
    # it.  Calls are followed by name through every function and method of
    # the package, which over-approximates what the audit can reach
    defs: dict[str, list[tuple[str, ast.FunctionDef]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((path.name, node))

    def names_in(fn):
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    roots = ("validate_subdivision", "face_walks", "verdict_doc_is_valid")
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for _, fn in defs[name]:
            todo += names_in(fn)
    assert set(roots) <= reached
    found = [
        f"{module}:{fn.lineno} {name}"
        for name in sorted(reached)
        for module, fn in defs[name]
        if "adj_mask" in names_in(fn)
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


def _unused_definitions(public: bool) -> list[str]:
    """Module-level functions, classes, constants and type aliases, and
    methods, public or private, that nothing in the package uses outside
    their own definition; __init__'s re-export counts as a use of a
    module-level name.

    A module-level name counts as used wherever it appears.  A method is
    reached as an attribute, x.name, and the scan cannot tell which class
    x holds: a read counts only when no data attribute of the package (a
    slot, a class-level field, an attribute assigned, an argparse
    destination) shares the name, and a call x.name(...) counts even
    then, since data is not called.
    """
    tree_of = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    uses: dict[str, int] = {}
    data: set[str] = set()
    reads: list[ast.Attribute] = []
    called: set[int] = set()
    for tree in tree_of.values():
        for name in names(tree):
            uses[name] = uses.get(name, 0) + 1
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        data.add(stmt.target.id)
                    elif isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    ):
                        data.update(ast.literal_eval(stmt.value))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    data.add(node.attr)
                else:
                    reads.append(node)
            elif isinstance(node, ast.Call):
                called.add(id(node.func))
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"
                    and isinstance(node.args[0], ast.Constant)
                ):
                    data.add(node.args[0].value.lstrip("-").replace("-", "_"))

    def method_used(node):
        own = {id(sub) for sub in ast.walk(node)}
        return any(
            read.attr == node.name
            and id(read) not in own
            and (node.name not in data or id(read) in called)
            for read in reads
        )

    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            return []
        return [
            name.id
            for target in targets
            for name in (target.elts if isinstance(target, ast.Tuple) else [target])
            if isinstance(name, ast.Name)
        ]

    found = []
    for path, tree in tree_of.items():
        for node in tree.body:
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in defined(node)
                if name.startswith("_") != public
                and not name.startswith("__")
                and uses.get(name, 0) <= sum(n == name for n in names(node))
            ]
            if not isinstance(node, ast.ClassDef):
                continue
            found += [
                f"{path.name}:{method.lineno} {node.name}.{method.name}"
                for method in node.body
                if isinstance(method, ast.FunctionDef)
                and method.name.startswith("_") != public
                and not method.name.startswith("__")
                and not method_used(method)
            ]
    return found


def test_every_private_definition_is_used():
    # a _helper or _method that nothing calls any more is what a refactor
    # leaves behind; a use inside its own body does not count
    assert _unused_definitions(public=False) == []


def test_every_public_definition_is_used_or_exported():
    # code only the tests call belongs in tests/reference.py, not in the
    # package: a public function, class or method is called by the package,
    # or exported if it is module-level
    assert _unused_definitions(public=True) == []


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    (fn,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return fn


def _calls(fn: ast.FunctionDef, name: str) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def _arg_names(call: ast.Call) -> list[str | None]:
    return [arg.id if isinstance(arg, ast.Name) else None for arg in call.args]


def test_the_lifting_campaign_keeps_its_checks():
    # skipping a validation is the tempting speedup of the lifting stream:
    # the lift must check the certificate in the contracted graph and
    # refuse it there, and the campaign must check each lift in g
    lift = _function("subdivision", "lift_through_contraction")
    (unpack,) = [
        node
        for node in lift.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name)
        and node.value.id == "contraction"
    ]
    contracted = unpack.targets[0].elts[0].id
    refusals = [
        stmt.test.operand
        for stmt in lift.body
        if isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.UnaryOp)
        and isinstance(stmt.test.op, ast.Not)
        and isinstance(stmt.body[0], ast.Raise)
    ]
    assert any(
        call in refusals and _arg_names(call) == [contracted, "cert"]
        for call in _calls(lift, "validate_subdivision")
    )

    judge = _function("harness", "_lifting_judgement")
    graph = judge.args.args[0].arg
    lifted = {
        target.id
        for node in ast.walk(judge)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and node.value in _calls(judge, "lift_through_contraction")
        for target in node.targets
    }
    assert any(
        _arg_names(call)[0] == graph and _arg_names(call)[1] in lifted
        for call in _calls(judge, "validate_subdivision")
    )
    # each step by the name harness imports it under, which perfbench's
    # tracer rebinds; a local alias made inside the function would hide it
    harness = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in harness.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bound = {
        node.id
        for node in ast.walk(judge)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    steps = ("contract_edge", "find_kuratowski", "lift_through_contraction", "validate_subdivision")
    for step in steps:
        assert _calls(judge, step) and step in imported and step not in bound
