"""Source guards on the package: no module imports random, as the README
promises that no probabilistic step enters any decision, and every name the
package exports resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import ksets


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


def test_every_exported_name_resolves():
    missing = [name for name in ksets.__all__ if not hasattr(ksets, name)]
    assert not missing, missing
    assert len(set(ksets.__all__)) == len(ksets.__all__)
