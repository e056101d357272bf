"""Module bindings that call-counting tracers rely on.

A tracer (such as perfbench/spans.py) replaces a public function by a
counting wrapper in every ksets module that binds it.  These tests do the
same and check that the calls still arrive: the search reaches the graph
through verify's binding, and the graph calls orthogonal once per pair of
span rays it has to compare.  CycNum methods are wrapped in the class dict,
and ray work still calls them there.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from ksets import catalog, cli, construct, model, verify
from ksets.cyclo import OMEGA3, SQRT2, ZERO, CycNum
from ksets.setfile import parse, serialize


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Rebind module.name, in every ksets module bound to it, to a wrapper
    that counts its calls."""
    original = getattr(module, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "ksets" or key.startswith("ksets."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def _fresh(name: str) -> model.KSSet:
    """An unvalidated copy of a catalog set, with no cached graph."""
    return parse(serialize(catalog.seed_set(name)))


def test_is_ks_reaches_the_graph_through_the_module_binding(monkeypatch):
    # The full-mode core of d11-40-12 is colorable in context mode, so
    # is_ks proves it KS with the full-mode search, which reads the graph.
    core = serialize(verify.reduce_critical(catalog.seed_set("d11-40-12")))
    calls = _count_calls(monkeypatch, model, "orthogonality_graph")
    assert verify.orthogonality_graph is model.orthogonality_graph
    assert verify.is_ks(_fresh("d4-18-9"))  # refuted in context mode
    assert calls[0] == 0
    s = parse(core)
    assert verify.is_ks(s)
    assert calls[0] == 1
    # the graph is cached on the set, and is still read through the binding
    assert verify.is_ks(s)
    assert calls[0] == 2
    s = parse(core)
    s.contexts.pop()  # the core is critical, so this leaves it colorable
    # compiling the search and re-checking the witness each read the graph
    assert verify.find_assignment(s) is not None
    assert calls[0] == 4


def test_reduce_critical_is_traced_through_every_binding(monkeypatch, capsys):
    # the benchmark traces reduce_critical under its construct name; the
    # function lives in verify, and construct and the CLI call that binding
    assert construct.reduce_critical is verify.reduce_critical
    calls = _count_calls(monkeypatch, verify, "reduce_critical")
    s = catalog.seed_set("d4-18-9")
    assert construct.reduce_critical(s) == s
    assert calls[0] == 1
    assert cli.main(["reduce", "d10-39-9"]) == 0
    assert calls[0] == 2
    assert parse(capsys.readouterr().out).n_contexts == 9


@pytest.mark.parametrize("argv, name", [
    (("scale", "d6-21-7", "2"), "rank_scale"),
    (("pz", "d4-18-9", "d6-21-7"), "pz_improved"),
    (("pz-basic", "d4-18-9", "d6-21-7"), "pz_basic"),
    (("ceg", "d6-21-7", "7"), "ceg"),
    (("matsuno", "d4-18-9", "5"), "matsuno"),
])
def test_cli_construct_calls_through_the_construct_module(
        monkeypatch, capsys, argv, name):
    # only the construct module's attribute is rebound: the CLI must look
    # the function up there when it runs
    original, calls = getattr(construct, name), []
    monkeypatch.setattr(construct, name,
                        lambda *args: calls.append(name) or original(*args))
    assert cli.main(["construct", *argv]) == 0
    assert calls == [name]
    assert parse(capsys.readouterr().out).n_projectors > 0


def _pairs_reaching_orthogonal(s: model.KSSet) -> int:
    """Span-ray pairs that the graph sends to orthogonal: overlapping
    supports, up to the first nonzero product of each pair of projectors
    whose supports overlap and that share no context."""
    sigs = s.signatures()
    total = 0
    for (a, p), (b, q) in itertools.combinations(s.projectors.items(), 2):
        if not p.support & q.support or sigs[a] & sigs[b]:
            continue
        for u in p.span:
            for v in q.span:
                if u.support & v.support:
                    total += 1
                    if not model.inner(u, v).is_zero():
                        break
            else:
                continue
            break
    return total


@pytest.mark.parametrize("name, expected", [("d4-18-9", 96), ("d10-30-9", 183)])
def test_graph_calls_orthogonal_once_per_pair_outside_contexts(
        monkeypatch, name, expected):
    s = _fresh(name)
    model.ensure_valid(s)
    assert _pairs_reaching_orthogonal(s) == expected
    calls = _count_calls(monkeypatch, model, "orthogonal")
    model.orthogonality_graph(s)
    assert calls[0] == expected
    model.orthogonality_graph(s)
    assert calls[0] == expected


def _count_method_calls(monkeypatch, name: str) -> list[int]:
    """Replace CycNum.name in the class dict by a counting wrapper."""
    original = CycNum.__dict__[name]
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(CycNum, name, counting)
    return calls


def test_ray_packing_reaches_conj_through_the_class(monkeypatch):
    # the benchmark counts CycNum.conj this way, so rays must call the
    # method rather than the Galois helper behind it
    conj_calls = _count_method_calls(monkeypatch, "conj")
    ray = model.Ray((ZERO, SQRT2, CycNum.from_rational(3), ZERO, OMEGA3, SQRT2))
    # one conjugate per supported entry that is not rational
    assert conj_calls[0] == 3
