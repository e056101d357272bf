"""Source guards on the package: no module imports random, as the README
promises that no probabilistic step enters any decision, the constructions
make their sets in one place, the catalog makes and symbol-checks its sets
in one place, and every name the package exports resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import ksets
from ksets import catalog, construct


def test_no_module_imports_random():
    offenders = []
    for path in sorted(Path(ksets.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "random" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def _calls_outside(module, function: str, names: set[str]) -> list[str]:
    """The lines of module that call one of names outside function."""
    path = Path(module.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            inside = {id(n) for n in ast.walk(node)}
    assert inside, f"{path.name}: {function} is missing"
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
        and id(node) not in inside
    ]


def test_constructions_build_sets_only_through_assemble():
    # Every construction returns through construct._assemble, which owns the
    # one SubspaceIndex that identifies equal subspaces.
    offenders = _calls_outside(construct, "_assemble", {"KSSet", "SubspaceIndex"})
    assert not offenders, offenders


def test_catalog_makes_and_checks_sets_only_in_load():
    # Every named set is parsed or built, and its symbol checked against the
    # recorded one, in catalog._load, so no load path skips the check.
    offenders = _calls_outside(catalog, "_load", {"parse", "build_chain", "symbol"})
    assert not offenders, offenders


def test_every_exported_name_resolves():
    missing = [name for name in ksets.__all__ if not hasattr(ksets, name)]
    assert not missing, missing
    assert len(set(ksets.__all__)) == len(ksets.__all__)
