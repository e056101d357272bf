"""Source guards on the package: no module imports random, as the README
promises that no probabilistic step enters any decision, the constructions
make their sets in one place, and every name the package exports
resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import ksets
from ksets import construct


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


def test_constructions_build_sets_only_through_assemble():
    # Every construction returns through construct._assemble, which owns the
    # one SubspaceIndex that identifies equal subspaces.
    tree = ast.parse(Path(construct.__file__).read_text(encoding="utf-8"))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_assemble":
            inside = {id(n) for n in ast.walk(node)}
    assert inside, "construct._assemble is missing"
    offenders = [
        f"construct.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("KSSet", "SubspaceIndex")
        and id(node) not in inside
    ]
    assert not offenders, offenders


def test_every_exported_name_resolves():
    missing = [name for name in ksets.__all__ if not hasattr(ksets, name)]
    assert not missing, missing
    assert len(set(ksets.__all__)) == len(ksets.__all__)
