"""Every module-level private function and class of src/uavlink is used.

A private helper that nothing in the package refers to is dead code that
still has to be read and kept right. A use is a Name, an Attribute or an
import of the helper's name anywhere in src/uavlink outside the helper's own
definition; docstrings and comments are not parsed as code, so they do not
count, and neither do the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uavlink"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def test_every_private_function_and_class_is_referenced():
    private, uses = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            if owner and owner.startswith("_") and not owner.startswith("__"):
                private.add((path.stem, owner))
            for node in ast.walk(top):
                name = _used_name(node)
                if name:
                    uses.add((name, path.stem, owner))
    unused = sorted(
        f"{module}.{name}" for module, name in private
        if not any(used == name and (where, owner) != (module, name)
                   for used, where, owner in uses)
    )
    assert unused == []
