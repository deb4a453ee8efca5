"""Every module-level private function, class and constant of src/uavlink is used,
and so is every public name of uavlink.__all__ but the library-only ones named here,
and every dataclass field but those of the result types named here.

A helper that nothing in the package refers to is dead code that still has
to be read and kept right. A use is a Name, an Attribute or an import of the
helper's name anywhere in src/uavlink outside the statement that defines it;
docstrings and comments are not parsed as code, so they do not count, and
neither do the tests. A constant is an assignment target. A dataclass field is
read when an attribute of its name is loaded anywhere in src/uavlink.

A name imported under `# noqa: F401` is used by nothing in its module; it
is kept only because a benchmark probe in bench/tracer.py looks it up there,
so that import is not a use either. uavlink.cli serves two more such names,
the Monte Carlo estimators, from its module __getattr__, so that only a sweep
imports montecarlo; each must be a probe target too.
"""

import ast
import functools
from pathlib import Path

import pytest

import uavlink
import uavlink.cli
import uavlink.montecarlo

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


def _is_probe_import(node, lines):
    return isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]


@functools.cache
def _definitions_and_uses():
    """{(module, name): kind} of the module-level names, and (name, module, owners) per use."""
    defined, uses = {}, set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for top in ast.parse(text).body:
            owners = _defined_names(top)
            defined.update({(path.stem, name): kind for name, kind in owners.items()})
            if _is_probe_import(top, lines):
                continue
            for node in ast.walk(top):
                name = _used_name(node)
                if name:
                    uses.add((name, path.stem, frozenset(owners)))
    return defined, uses


def _is_used(module, name, uses):
    return any(used == name and not (where == module and name in owners)
               for used, where, owners in uses)


def _unused_private_names():
    """{kind: sorted 'module.name' entries} of the private names nothing uses."""
    defined, uses = _definitions_and_uses()
    unused = {"definition": [], "constant": []}
    for (module, name), kind in sorted(defined.items()):
        if name.startswith("_") and not name.startswith("__") and not _is_used(module, name, uses):
            unused[kind].append(f"{module}.{name}")
    return unused


def test_every_private_function_and_class_is_referenced():
    assert _unused_private_names()["definition"] == []


def test_every_private_constant_is_referenced():
    assert _unused_private_names()["constant"] == []


# Public names that nothing in the package calls, kept for library users, with the reason.
# The sweep computes all of its rows at once through the private moment and bound
# helpers; these are the one-configuration and per-SNR forms of the same numbers.
LIBRARY_ONLY = {
    "bound.aadr_lower_bound": "the Jensen lower bound of one configuration, "
                              "raising DistanceLimitError beyond d_max",
    "fbl_rate.achievable_rate": "the paper's rate R(SNR) at given SNRs",
    "fbl_rate.shannon_rate": "log2(1 + SNR) at given SNRs",
    "montecarlo.estimate_aadr": "the Monte Carlo AADR of one configuration, as an McEstimate",
    "montecarlo.estimate_shannon": "the Monte Carlo Shannon rate, as an McEstimate",
}


@pytest.mark.parametrize("name", uavlink.__all__)
def test_every_public_name_is_used_in_the_package(name):
    # A public function that only tests call is an oracle: it belongs in tests/oracles.py.
    module = uavlink._SUBMODULE[name]
    used = _is_used(module, name, _definitions_and_uses()[1])
    if f"{module}.{name}" in LIBRARY_ONLY:
        assert not used, f"{module}.{name} is used now: drop it from LIBRARY_ONLY"
    else:
        assert used, f"nothing in src/uavlink uses the public name {module}.{name}"


def test_every_library_only_exception_is_a_public_name():
    public = {f"{uavlink._SUBMODULE[name]}.{name}" for name in uavlink.__all__}
    assert sorted(LIBRARY_ONLY.keys() - public) == []


def _unused_imports():
    """'uavlink.module.name' for each name imported under `# noqa: F401`."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if _is_probe_import(node, lines):
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


@pytest.mark.parametrize("name", uavlink.cli._PROBE_ONLY)
def test_every_name_the_cli_serves_lazily_is_a_benchmark_probe_target(name):
    assert f"uavlink.cli.{name}" in _probe_targets()
    assert getattr(uavlink.cli, name) is getattr(uavlink.montecarlo, name)


def test_the_cli_serves_no_other_name():
    with pytest.raises(AttributeError, match="'uavlink.cli' has no attribute 'no_such_name'"):
        uavlink.cli.no_such_name


# Dataclasses whose fields are a returned result for library users, not read by the package.
RESULT_TYPES = {"McEstimate": "the mean and standard error that estimate_aadr and "
                              "estimate_shannon return"}


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list)


def _fields_and_reads():
    """('Class', 'field') per annotated field of a src dataclass, and every attribute name read."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _is_dataclass(node):
                fields += [(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return fields, reads


def test_every_dataclass_field_is_read_in_the_package():
    # A field that nothing reads is carried, documented and compared for nothing.
    fields, reads = _fields_and_reads()
    assert sorted(RESULT_TYPES.keys() - {cls for cls, _ in fields}) == []
    assert [f"{cls}.{name}" for cls, name in fields
            if cls not in RESULT_TYPES and name not in reads] == []
