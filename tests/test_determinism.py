"""Source guards on the package: no module imports random, as the README
promises that no probabilistic step enters any decision, the constructions
make their sets in one place and leave them as made, a set's graph state is
written in four places, the catalog makes and symbol-checks its sets in
one place, no function calls itself, and every name the package exports
resolves."""

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


def _owners(tree: ast.AST) -> dict[int, str]:
    """The name of the outermost function holding each node of tree that
    lies inside one.  ast.walk visits outer functions first."""
    owner: dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                owner.setdefault(id(inner), node.name)
    return owner


def test_graph_state_is_written_only_where_it_is_made():
    # KSSet._orth is emptied by KSSet.__init__ and filled by
    # orthogonality_graph; no construction carries a graph into a set
    writers = set()
    for path in sorted(Path(ksets.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_orth"
                    and not isinstance(node.ctx, ast.Load)):
                writers.add((path.name, owner.get(id(node)), ast.unparse(node.value)))
            elif isinstance(node, ast.Call) and (
                    any(k.arg == "_orth" for k in node.keywords)
                    or any(isinstance(a, ast.Constant) and a.value == "_orth"
                           for a in node.args)):
                writers.add((path.name, owner.get(id(node)), ast.unparse(node.func)))
    assert writers == {
        ("model.py", "__init__", "self"),
        ("model.py", "orthogonality_graph", "s"),
    }


def test_constructions_leave_the_sets_of_assemble_as_made():
    # No function of construct.py sets an attribute of a set that _assemble
    # returned, whether held in a name or not: whatever a set carries, it
    # has from _assemble.
    path = Path(construct.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def assembled(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_assemble")

    offenders = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        built = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
            and assembled(node.value)
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)
        }

        def made(node: ast.AST) -> bool:
            return assembled(node) or isinstance(node, ast.Name) and node.id in built

        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                    and made(node.value)) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr" and made(node.args[0])):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_catalog_makes_and_checks_sets_only_in_load():
    # Every named set is parsed or built, and its symbol checked against the
    # recorded one, in catalog._load, so no load path skips the check.
    offenders = _calls_outside(catalog, "_load", {"parse", "build_chain", "symbol"})
    assert not offenders, offenders


def _calls_by_name(call: ast.AST, name: str) -> bool:
    """True when call is name(...), self.name(...) or cls.name(...)."""
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr == name and func.value.id in ("self", "cls")
    return isinstance(func, ast.Name) and func.id == name


def _self_calls(tree: ast.AST, prefix: str) -> list[str]:
    """The qualified names of the functions under tree that call themselves
    by name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            if any(_calls_by_name(call, node.name) for call in ast.walk(node)):
                found.append(name)
            found += _self_calls(node, name)
        elif isinstance(node, ast.ClassDef):
            found += _self_calls(node, f"{prefix}.{node.name}")
        else:
            found += _self_calls(node, prefix)
    return found


def test_no_function_calls_itself():
    # Recursion depth is bounded by the interpreter, and the inputs are not:
    # the colorability search runs over an explicit stack, and so must every
    # other walk whose depth an input decides.
    offenders = []
    for path in sorted(Path(ksets.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += _self_calls(tree, path.stem)
    assert not offenders, offenders


def test_every_exported_name_resolves():
    missing = [name for name in ksets.__all__ if not hasattr(ksets, name)]
    assert not missing, missing
    assert len(set(ksets.__all__)) == len(ksets.__all__)
