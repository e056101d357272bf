"""Search-engine tests: soundness against the mode rules, completeness
against exhaustive enumeration, parity, criticality and the CNF export."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_set, census_set, make_ray
from ksets import catalog, verify
from ksets.errors import NotKSError
from ksets.model import KSSet, Projector
from ksets.verify import (
    Assignment,
    Mode,
    SearchStats,
    _check,
    _compile,
    _solve,
    export_cnf,
    find_assignment,
    is_critical,
    is_ks,
    is_parity,
)
from oracles import brute_force_witness, naive_cnf_satisfiable, reference_orth


def drop_context(s: KSSet, index: int) -> KSSet:
    contexts = [c for i, c in enumerate(s.contexts) if i != index]
    used = {pid for c in contexts for pid in c}
    projs = {pid: p for pid, p in s.projectors.items() if pid in used}
    return KSSet(s.dimension, projs, contexts, name=s.name)


def two_context_toy() -> KSSet:
    # colorable: two interlocking bases of dimension 3
    projs = {
        "1": Projector((make_ray(1, 0, 0),)),
        "2": Projector((make_ray(0, 1, 0),)),
        "3": Projector((make_ray(0, 0, 1),)),
        "4": Projector((make_ray(0, 1, 1),)),
        "5": Projector((make_ray(0, 1, -1),)),
    }
    return KSSet(3, projs, [("1", "2", "3"), ("1", "4", "5")])


def test_single_context_witness():
    s = basis_set(3)
    for mode in Mode:
        asg = find_assignment(s, mode)
        assert asg is not None
        assert sum(asg.values.values()) == 1


def test_witness_on_toy():
    s = two_context_toy()
    asg = find_assignment(s, Mode.FULL)
    assert asg is not None
    assert asg.values["1"] == 1  # the only ray all contexts share


def test_18_9_uncolorable_in_both_modes(s18):
    assert find_assignment(s18, Mode.FULL) is None
    assert find_assignment(s18, Mode.CONTEXT_ONLY) is None


def test_18_9_removal_has_witness(s18):
    sub = drop_context(s18, 0)  # context {1, 2, 17, 18}
    asg = find_assignment(sub, Mode.FULL)
    assert asg is not None
    # confirmed independently by exhaustive enumeration over all 2^18
    # valuations (see test_agrees_with_brute_force_on_removals)


def test_is_ks(s18, s21):
    assert is_ks(s18)
    assert is_ks(s21)
    assert not is_ks(basis_set(4))


def test_is_parity(s18, s21):
    assert is_parity(s18)
    assert is_parity(s21)
    assert not is_parity(basis_set(3))


def test_parity_fails_after_removal(s18):
    assert not is_parity(drop_context(s18, 0))


def test_parity_of_29_16():
    from ksets import catalog

    assert not is_parity(catalog.seed_set("d5-29-16"))  # 16 contexts is even


def test_is_critical_18_9(s18):
    report = is_critical(s18)
    assert report.overall
    assert report.n_colorable == 9
    for removed, witness in enumerate(report.removals):
        assert witness is not None
        for i, ctx in enumerate(s18.contexts):
            if i != removed:
                assert sum(witness.values[pid] for pid in ctx) == 1


def test_is_critical_rejects_colorable():
    with pytest.raises(NotKSError):
        is_critical(basis_set(3))


def two_bases_d4() -> KSSet:
    # the standard basis and a rotated one: 3 is orthogonal to 5 and 6,
    # which share no context with it
    projs = {
        "1": Projector((make_ray(1, 0, 0, 0),)),
        "2": Projector((make_ray(0, 1, 0, 0),)),
        "3": Projector((make_ray(0, 0, 1, 0),)),
        "4": Projector((make_ray(0, 0, 0, 1),)),
        "5": Projector((make_ray(1, 1, 0, 0),)),
        "6": Projector((make_ray(1, -1, 0, 0),)),
        "7": Projector((make_ray(0, 0, 1, 1),)),
        "8": Projector((make_ray(0, 0, 1, -1),)),
    }
    return KSSet(4, projs, [("1", "2", "3", "4"), ("5", "6", "7", "8")])


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("first", [
    {"1": 2, "2": -1, "3": 0, "4": 0},  # sums to 1, but not 0/1
    {"1": 1, "2": 1, "3": 0, "4": 0},   # two 1s in one context
])
def test_check_rejects_a_context_without_exactly_one_1(mode, first):
    s = two_bases_d4()
    values = {**first, "5": 1, "6": 0, "7": 0, "8": 0}
    assert not _check(s, Assignment(values), mode)
    assert _check(s, Assignment({**values, "1": 1, "2": 0}), mode)


def test_check_rejects_orthogonal_1s_outside_contexts_in_full_mode_only():
    s = two_bases_d4()
    values = {"1": 0, "2": 0, "3": 1, "4": 0, "5": 1, "6": 0, "7": 0, "8": 0}
    assert not _check(s, Assignment(values), Mode.FULL)
    assert _check(s, Assignment(values), Mode.CONTEXT_ONLY)


@pytest.mark.parametrize("mode", list(Mode))
def test_every_witness_is_rechecked(monkeypatch, s18, mode):
    # a search result that breaks every context: all projectors 0
    monkeypatch.setattr(verify, "_solve", lambda masks, *args: 0)
    with pytest.raises(AssertionError, match="invalid assignment"):
        find_assignment(s18, mode)
    # the whole set is uncolorable, every removal "colorable" with all 0s
    monkeypatch.setattr(
        verify, "_solve",
        lambda masks, *args: None if len(masks) == s18.n_contexts else 0)
    with pytest.raises(AssertionError, match="invalid removal witness"):
        is_critical(s18, mode)


def test_witnesses_are_rechecked_under_python_optimize():
    # python -O strips assert statements; the re-check must not be one
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from ksets import catalog, verify\n"
        "verify._solve = lambda masks, *args: 0\n"
        "try:\n"
        "    verify.find_assignment(catalog.seed_set('d4-18-9'))\n"
        "except AssertionError:\n"
        "    print('rechecked')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rechecked\n"


def test_criticality_context_mode_drops_removed_constraints():
    # removing a context must also remove the exclusions it contributed in
    # context-only mode
    from ksets import catalog

    s = catalog.seed_set("d3-49-36")
    assert is_critical(s, Mode.CONTEXT_ONLY).overall
    assert not is_critical(s, Mode.FULL).overall


def test_mode_monotonicity(s18):
    # a full-mode witness satisfies the context-only rules as well
    for removed in range(s18.n_contexts):
        sub = drop_context(s18, removed)
        full = find_assignment(sub, Mode.FULL)
        ctx = find_assignment(sub, Mode.CONTEXT_ONLY)
        assert full is not None and ctx is not None


def test_witness_serialization_is_sorted(s18):
    sub = drop_context(s18, 0)
    asg = find_assignment(sub, Mode.FULL)
    lines = asg.lines().splitlines()
    assert len(lines) == 18
    ids = [line.split("=")[0] for line in lines]
    assert ids == [str(i) for i in range(1, 19)]


def test_agrees_with_brute_force_on_toys():
    for s in (basis_set(2), basis_set(3), two_context_toy()):
        for mode in Mode:
            ours = find_assignment(s, mode)
            brute = brute_force_witness(s, mode)
            assert (ours is None) == (brute is None)


def test_agrees_with_brute_force_on_18_9(s18):
    for mode in Mode:
        assert brute_force_witness(s18, mode) is None
        assert find_assignment(s18, mode) is None


def test_agrees_with_brute_force_on_removals(s18):
    for removed in (0, 4):
        ours = find_assignment(drop_context(s18, removed), Mode.FULL)
        brute = brute_force_witness(s18, Mode.FULL, removed=removed)
        assert ours is not None and brute is not None


# -- search kernel ----------------------------------------------------


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


@st.composite
def census_subsets(draw) -> KSSet:
    """One to five bases of the d=4 master set in a drawn order, over at
    most 14 rays so that the oracle's 2^R enumeration stays small."""
    order = draw(st.permutations(range(census_set().n_contexts)))
    limit = draw(st.integers(min_value=1, max_value=5))
    picked: list[int] = []
    rays: set[str] = set()
    for c in order:
        members = set(census_set([c]).projectors)
        if len(rays | members) <= 14:
            picked.append(c)
            rays |= members
            if len(picked) == limit:
                break
    return census_set(picked)


@given(census_subsets(), st.sampled_from(list(Mode)), st.data())
@settings(max_examples=60, deadline=None)
def test_search_agrees_with_brute_force_on_census_subsets(s, mode, data):
    removed = data.draw(st.none() | st.integers(0, s.n_contexts - 1))
    problem = _compile(s, mode)
    masks = problem.ctx_masks
    orth, allowed = problem.orth, problem.allowed
    sub = s
    if removed is not None:
        rest = _union(1 << ci for ci in range(len(masks)) if ci != removed)
        orth, allowed = problem.drop_context(removed, rest, orth, allowed)
        masks = [m for ci, m in enumerate(masks) if ci != removed]
        sub = drop_context(s, removed)
    mask = _solve(masks, orth, allowed)
    brute = brute_force_witness(s, mode, removed=removed)
    assert (mask is None) == (brute is None)
    assert (find_assignment(sub, mode) is None) == (brute is None)
    if mask is not None:
        values = {pid: mask >> problem.index[pid] & 1 for pid in sub.projectors}
        assert _check(sub, Assignment(values), mode)


@pytest.mark.parametrize("name", ["d4-18-9", "d6-21-7", "d3-57-40", "census"])
@pytest.mark.parametrize("mode", list(Mode))
def test_drop_context_matches_rebuilt_masks(name, mode):
    s = census_set() if name == "census" else catalog.seed_set(name)
    problem = _compile(s, mode)
    n = len(problem.ctx_masks)

    def expect(active):
        return reference_orth(s, mode, active), _union(
            problem.ctx_masks[ci] for ci in active)

    def bits(active):
        return _union(1 << ci for ci in active)

    every = set(range(n))
    orth, allowed = problem.orth, problem.allowed
    assert (list(orth), allowed) == expect(every)
    for c in range(n):
        got_orth, got_allowed = problem.drop_context(
            c, bits(every - {c}), orth, allowed)
        assert (list(got_orth), got_allowed) == expect(every - {c})
    # dropping along a chain, as reduce_critical does
    order = list(range(n))
    random.Random(n).shuffle(order)
    active = set(every)
    for c in order[:-1]:
        active.discard(c)
        orth, allowed = problem.drop_context(c, bits(active), orth, allowed)
        assert (list(orth), allowed) == expect(active)


def test_criticality_removals_are_pinned():
    # Every removal witness of every catalog entry and seed, in both modes.
    # The digest was taken from the solver that rescanned every context per
    # node and rebuilt the context-mode masks per removal; an equal digest
    # shows that the search still branches the same way.
    lines = []
    for name in catalog.NAMES + catalog.SEED_NAMES:
        s = catalog.seed_set(name)
        for mode in Mode:
            try:
                report = is_critical(s, mode)
            except NotKSError as exc:
                body = type(exc).__name__
            else:
                body = ";".join(
                    "-" if w is None else w.lines().replace("\n", ",")
                    for w in report.removals)
            lines.append(f"{name} {mode.value} {body}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "551d6dd6fd612734e79bb6b04ac36c290bb38fa921f645dbe1fe2219cb8dd477")


# (nodes, propagations, conflicts, max depth), counted with the solver
# that preceded fused branch selection: the same counts mean the same tree.
SEARCH_COUNTS = {
    ("d4-18-9", Mode.FULL): (13, 32, 16, 2),
    ("d4-18-9", Mode.CONTEXT_ONLY): (19, 20, 22, 3),
    ("d6-21-7", Mode.FULL): (31, 0, 48, 2),
    ("d6-21-7", Mode.CONTEXT_ONLY): (31, 0, 48, 2),
}
CRITICAL_COUNTS = {
    ("d4-18-9", Mode.FULL): (53, 75, 31, 3),
    ("d4-18-9", Mode.CONTEXT_ONLY): (58, 32, 22, 5),
    ("d6-21-7", Mode.FULL): (73, 0, 78, 3),
    ("d6-21-7", Mode.CONTEXT_ONLY): (65, 6, 48, 5),
}


def _counts(stats: SearchStats) -> tuple[int, int, int, int]:
    return (stats.nodes, stats.propagations, stats.conflicts, stats.max_depth)


@pytest.mark.parametrize(("name", "mode"), list(SEARCH_COUNTS))
def test_search_counts_are_pinned(name, mode):
    s = catalog.seed_set(name)
    stats = SearchStats()
    assert find_assignment(s, mode, stats=stats) is None
    assert _counts(stats) == SEARCH_COUNTS[name, mode]
    find_assignment(s, mode, stats=stats)  # counts add up
    nodes, props, conflicts, depth = SEARCH_COUNTS[name, mode]
    assert _counts(stats) == (2 * nodes, 2 * props, 2 * conflicts, depth)
    assert _counts(is_critical(s, mode).stats) == CRITICAL_COUNTS[name, mode]


@pytest.mark.parametrize("mode", list(Mode))
def test_projector_in_no_context_stays_zero(s18, mode):
    # a projector that occurs in no context is not allowed from the start:
    # it is valued 0, the search runs exactly as without it, and removal
    # witnesses leave it out like every other projector no context uses
    for s in (s18, drop_context(s18, 0)):
        projs = dict(s.projectors)
        projs["19"] = Projector((make_ray(1, 2, 3, 4),))
        extended = KSSet(4, projs, list(s.contexts))
        stats, extended_stats = SearchStats(), SearchStats()
        witness = find_assignment(s, mode, stats)
        got = find_assignment(extended, mode, extended_stats)
        assert extended_stats == stats
        if witness is None:
            assert got is None
            assert is_critical(extended, mode) == is_critical(s, mode)
        else:
            assert got.values == {**witness.values, "19": 0}


def test_cnf_shape_18_9(s18):
    text = export_cnf(s18, Mode.FULL)
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    header = lines[0].split()
    assert header == ["p", "cnf", "18", "72"]  # 9 contexts + 63 edges
    positive = [l for l in lines[1:] if not l.startswith("-")]
    assert len(positive) == 9
    assert all(len(l.split()) == 5 for l in positive)  # 4 literals + 0


def test_cnf_single_context_d2():
    text = export_cnf(basis_set(2), Mode.FULL)
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    assert lines == ["p cnf 2 2", "1 2 0", "-1 -2 0"]


def test_cnf_context_mode_counts(s18):
    text = export_cnf(s18, Mode.CONTEXT_ONLY)
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    assert lines[0] == "p cnf 18 63"  # 9 contexts + 54 co-context pairs


def test_cnf_agrees_with_enumerator(s18):
    assert not naive_cnf_satisfiable(export_cnf(s18, Mode.FULL))
    assert naive_cnf_satisfiable(export_cnf(basis_set(3), Mode.FULL))
    assert naive_cnf_satisfiable(export_cnf(two_context_toy(), Mode.FULL))
    assert not naive_cnf_satisfiable(export_cnf(s18, Mode.CONTEXT_ONLY))


def test_cnf_of_every_set_in_both_modes_is_pinned():
    # Every catalog entry and seed in NAMES then SEED_NAMES order, full then
    # context mode, concatenated.  The digest was taken when context mode
    # collected its pairs from the contexts in a set of its own; both modes
    # now read them from the at-most-one masks of the search.
    digest = hashlib.sha256()
    for name in catalog.NAMES + catalog.SEED_NAMES:
        for mode in Mode:
            digest.update(export_cnf(catalog.seed_set(name), mode).encode())
    assert digest.hexdigest() == (
        "f0b8673befdaa3561572342bebce69d4478f22e5a78f47281955b03f6cc11ca0")


def test_cnf_variable_order_matches_file_order(s18):
    text = export_cnf(s18, Mode.FULL)
    comments = [l for l in text.splitlines() if l.startswith("c var")]
    assert comments[0] == "c var 1 = projector 1"
    assert comments[17] == "c var 18 = projector 18"


def test_searches_leave_no_reference_cycles(s18):
    # the first searches cache the graph and catalog data they load
    is_critical(s18, Mode.CONTEXT_ONLY)
    is_critical(s18)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            find_assignment(s18, Mode.CONTEXT_ONLY)
        for _ in range(3):
            is_critical(s18)
        assert gc.collect() == 0
    finally:
        gc.enable()
