"""Every library definition is reached from the CLI, and every export resolves.

The walk is syntactic: starting from ``cli.main`` (the console entry point)
and the module-level statements of ``cli.py``, a definition is reached when
its name is read inside something already reached, directly or through a
``from .module import name`` (at module level or inside a function).
Attribute reads such as ``model.sigma`` reach methods and properties, not
top-level definitions, so a class reached counts with all of its body.
"""

import ast
import importlib
from pathlib import Path

import strangedual

PACKAGE = Path(strangedual.__file__).parent

# definitions kept although no check reaches them, each with its reason
UNREACHED_BY_DESIGN: set[str] = set()


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defs[node.target.id] = node
    return defs


def _is_definition(node):
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)
    )


def _relative_imports(tree):
    """name -> (module, name) for the module's top-level ``from .x import y``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return out


def unreached_definitions(modules):
    """(module, name) of each top-level definition the CLI does not reach."""
    defs = {name: _definitions(tree) for name, tree in modules.items()}
    imports = {name: _relative_imports(tree) for name, tree in modules.items()}
    reached = set()
    pending = []

    def mark(module, name):
        module, name = imports[module].get(name, (module, name))
        if name in defs.get(module, {}) and (module, name) not in reached:
            reached.add((module, name))
            pending.append((module, name))

    def visit(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                mark(module, sub.id)
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
                for alias in sub.names:
                    mark(sub.module or "__init__", alias.name)

    mark("cli", "main")
    for node in modules["cli"].body:
        if not _is_definition(node):
            visit("cli", node)
    while pending:
        module, name = pending.pop()
        visit(module, defs[module][name])
    return {
        (module, name)
        for module, names in defs.items()
        if module != "__init__"
        for name in names
        if not name.startswith("__") and (module, name) not in reached
    }


def test_every_definition_is_reached_from_the_cli():
    unreached = unreached_definitions(_modules())
    assert {name for _, name in unreached} == UNREACHED_BY_DESIGN, sorted(unreached)


def test_every_export_resolves():
    init = _modules()["__init__"]
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported
    missing = [name for name in exported if not hasattr(strangedual, name)]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            module = strangedual
        else:
            module = importlib.import_module(f"strangedual.{path.stem}")
        names = getattr(module, "__all__", ())
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []
