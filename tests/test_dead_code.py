"""Every module-level private function, class and constant of src/uavlink is used.

A private helper that nothing in the package refers to is dead code that
still has to be read and kept right. A use is a Name, an Attribute or an
import of the helper's name anywhere in src/uavlink outside the statement
that defines it; docstrings and comments are not parsed as code, so they do
not count, and neither do the tests. A constant is an assignment target.

A name imported under `# noqa: F401` is used by nothing in its module; it
is kept only because a benchmark probe in bench/tracer.py looks it up there.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uavlink"
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def _defined_names(top):
    """The names a module-level statement defines, with their kind."""
    if isinstance(top, DEFINITIONS):
        return {top.name: "definition"}
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return {node.id: "constant" for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return {}


def _unused_private_names():
    """{kind: sorted 'module.name' entries} of the private names nothing uses."""
    private, uses = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = _defined_names(top)
            for name, kind in owners.items():
                if name.startswith("_") and not name.startswith("__"):
                    private[(path.stem, name)] = kind
            for node in ast.walk(top):
                name = _used_name(node)
                if name:
                    uses.add((name, path.stem, frozenset(owners)))
    unused = {"definition": [], "constant": []}
    for (module, name), kind in sorted(private.items()):
        if not any(used == name and not (where == module and name in owners)
                   for used, where, owners in uses):
            unused[kind].append(f"{module}.{name}")
    return unused


def test_every_private_function_and_class_is_referenced():
    assert _unused_private_names()["definition"] == []


def test_every_private_constant_is_referenced():
    assert _unused_private_names()["constant"] == []


def _unused_imports():
    """'uavlink.module.name' for each name imported under `# noqa: F401`."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                names.update(f"uavlink.{path.stem}.{alias.name}" for alias in node.names)
    return names


def _probe_targets():
    """'module.attr' for each Probe(module, attr, ...) in bench/tracer.py."""
    return {f"{node.args[0].value}.{node.args[1].value}"
            for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Probe"}


def test_every_unused_import_is_a_benchmark_probe_target():
    # When a probe is retargeted, this names the import to delete.
    targets = _probe_targets()
    assert targets, "found no Probe(...) in bench/tracer.py"
    assert sorted(_unused_imports() - targets) == []
