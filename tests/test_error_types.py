"""Every exception class the package defines is one that some handler in
the package catches by name. A class that no `except` names is told apart
by nothing, so its faults belong to the class it derives from."""

import ast
import importlib
from pathlib import Path

import fedsim

SRC = Path(fedsim.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _caught_names(tree) -> set:
    """The class names of every `except` clause: `E`, `mod.E` and tuples of them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(t.id if isinstance(t, ast.Name) else t.attr for t in types)
    return names


def test_every_exception_class_is_caught_by_name():
    modules = _modules()
    caught = set().union(*map(_caught_names, modules.values()))
    defined = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(importlib.import_module(f"fedsim.{stem}"), node.name), BaseException)
    ]
    assert defined, "the package defines exception classes"
    assert [name for name in defined if name.split(".")[1] not in caught] == []
