"""Every name an import binds in the package is used: in its own module, or
imported from that module by another one (`numcore` binds `blake2b` and
`sha256` for `flengine`, `config` and `cli`). And no function's local
name hides an import of its module, so each name means one thing there."""

import ast
from pathlib import Path

import fedsim

SRC = Path(fedsim.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported(tree) -> set:
    """The names the module's imports bind, but those of `from __future__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _provided(tree) -> set:
    """(module, name) for each name the module imports from a sibling module."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def _loaded(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _locals(func) -> set:
    """The names a function binds: its parameters, assignment targets and
    `except ... as` names, in its own body and in any nested scope."""
    names = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def test_every_imported_name_is_used():
    modules = _modules()
    provided = set().union(*map(_provided, modules.values()))
    assert ("numcore", "sha256") in provided
    unused = [
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in sorted(_imported(tree) - _loaded(tree))
        if (stem, name) not in provided
    ]
    assert unused == []


def test_no_local_name_hides_an_import():
    hidden = [
        f"{stem}.{node.name}: {name}"
        for stem, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in sorted(_locals(node) & _imported(tree))
    ]
    assert hidden == []
