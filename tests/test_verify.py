"""Search-engine tests: soundness against the mode rules, completeness
against exhaustive enumeration, parity, criticality and the CNF export."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_set, census_set, make_ray
from ksets import catalog, verify
from ksets.construct import build_chain, merge_rank, table_recipe
from ksets.errors import NotKSError
from ksets.model import KSSet, Projector, symbol
from ksets.verify import (
    Assignment,
    Mode,
    SearchStats,
    _check,
    _compile,
    export_cnf,
    find_assignment,
    is_critical,
    is_ks,
    is_parity,
    reduce_critical,
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
    every = (1 << len(problem.ctx_masks)) - 1
    run, sub = 0, s
    if removed is not None:
        run, sub = 1 << removed, drop_context(s, removed)
    mask, _, _ = problem.solve_without(
        run, every, problem.orth, problem.allowed, None)
    brute = brute_force_witness(s, mode, removed=removed)
    assert (mask is None) == (brute is None)
    assert (find_assignment(sub, mode) is None) == (brute is None)
    if mask is not None:
        values = {pid: mask >> problem.ids.index(pid) & 1 for pid in sub.projectors}
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

    def drop(run, active, orth, allowed):
        _, orth, allowed = problem.solve_without(
            bits(run), bits(active), orth, allowed, None)
        return list(orth), allowed

    every = set(range(n))
    assert (list(problem.orth), problem.allowed) == expect(every)
    for c in range(n):
        assert drop({c}, every, problem.orth, problem.allowed) == expect(
            every - {c})
    # dropping runs of k contexts along a chain, as reduce_critical does;
    # k = 1 drops one context at a time
    order = list(range(n))
    random.Random(n).shuffle(order)
    for k in range(1, 5):
        active = set(every)
        orth, allowed = problem.orth, problem.allowed
        for start in range(0, n - k, k):
            run = set(order[start:start + k])
            orth, allowed = drop(run, active, orth, allowed)
            active -= run
            assert (orth, allowed) == expect(active)


def test_criticality_removals_are_pinned():
    # Every removal witness of every catalog entry and seed, in both modes.
    # The first digest was taken from the solver that rescanned every
    # context per node and rebuilt the context-mode masks per removal, and
    # kept every member of a signature class; an equal digest shows that
    # the search still branches the same way.  Only d8-34-9 and d10-39-9
    # have two projectors of one signature, so only their context-mode
    # lines changed when the search kept one per class: the second digest.
    kept, quotient = [], []
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
            changed = mode is Mode.CONTEXT_ONLY and name in ("d8-34-9", "d10-39-9")
            (quotient if changed else kept).append(f"{name} {mode.value} {body}")
    assert hashlib.sha256("\n".join(kept).encode()).hexdigest() == (
        "508830daea1df38f17e033b051ac1b328601a5d12bf401deda5c43c283276932")
    assert hashlib.sha256("\n".join(quotient).encode()).hexdigest() == (
        "61942bf43d7ed54fe8e88f73acd2405aaf56c0f55d84d9f00218ea97985c18ac")


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


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _independent_bases(n: int) -> KSSet:
    """n independent d = 2 bases {(1, a), (-a, 1)}: no ray is orthogonal to
    a ray of another basis.  Both members of a basis have one signature."""
    projs, contexts = {}, []
    for a in range(n):
        projs[f"u{a}"] = Projector((make_ray(1, a),))
        projs[f"w{a}"] = Projector((make_ray(-a, 1),))
        contexts.append((f"u{a}", f"w{a}"))
    return KSSet(2, projs, contexts)


def _orthogonal_cycle(n: int) -> KSSet:
    """n d = 3 contexts (x_i, y_i, x_{i+1}) round a cycle of rays x_i, each
    orthogonal to the next, with y_i orthogonal to both: every ray has its
    own signature.  The x_i are (1, k, k^2), the cross products
    (k(k+1), -(2k+1), 1) of consecutive ones, and (0, m, -1), orthogonal
    to the last (1, m, m^2) and to the first, (1, 0, 0).  n is even."""
    m = (n - 2) // 2
    xs = []
    for k in range(m + 1):
        xs.append((1, k, k * k))
        if k < m:
            xs.append((k * (k + 1), -(2 * k + 1), 1))
    xs.append((0, m, -1))
    projs, contexts = {}, []
    for i, (u, v) in enumerate(zip(xs, xs[1:] + xs[:1])):
        projs[f"x{i}"] = Projector((make_ray(*u),))
        projs[f"y{i}"] = Projector((make_ray(
            u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]),))
        contexts.append((f"x{i}", f"y{i}", f"x{(i + 1) % n}"))
    return KSSet(3, projs, contexts)


@pytest.mark.parametrize("mode", list(Mode))
def test_search_depth_is_not_bounded_by_the_interpreter(mode):
    # Under a recursion limit only about 100 frames above this one, a
    # search that recursed once per decision would raise RecursionError.
    # Full mode decides one independent basis per level and reaches depth
    # n without a conflict.  Context mode keeps one member per signature,
    # which leaves each basis a unit, so it takes the cycle: x0 goes to 1,
    # then one y_i per level down the cycle, and the last context left is
    # a unit, at depth n - 2.
    n = 300
    if mode is Mode.FULL:
        s, counts = _independent_bases(n), (n + 1, 0, 0, n)
    else:
        s, counts = _orthogonal_cycle(n), (n - 1, 1, 0, n - 2)
        assert len(set(s.signatures().values())) == 2 * n
    stats = SearchStats()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        asg = find_assignment(s, mode, stats)
    finally:
        sys.setrecursionlimit(limit)
    assert asg is not None and _check(s, asg, mode)
    assert _counts(stats) == counts
    if mode is Mode.CONTEXT_ONLY:
        stats = SearchStats()
        assert find_assignment(_independent_bases(n), mode, stats) is not None
        assert _counts(stats) == (1, n, 0, 0)


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


# -- context mode: one projector per signature class -------------------


@lru_cache(maxsize=None)
def _table_builds() -> tuple[KSSet, ...]:
    """Every table_recipe chain for d = 3..12, built."""
    return tuple(
        build_chain(chain)
        for d in range(3, 13)
        for recipe in table_recipe(d)
        for chain in (recipe.general_chain, recipe.rank1_chain)
        if chain)


def _named_sets() -> list[KSSet]:
    return [catalog.seed_set(name)
            for name in catalog.NAMES + catalog.SEED_NAMES]


def _context_colorable(s: KSSet) -> bool:
    return find_assignment(s, Mode.CONTEXT_ONLY) is not None


def test_context_mode_colors_a_set_exactly_when_its_merge_rank_does():
    # merge_rank replaces each signature class by one projector, the sum of
    # its members; a class's members share every context, so a context
    # coloring of either set gives one of the other
    for s in _named_sets() + list(_table_builds()):
        assert _context_colorable(s) == _context_colorable(merge_rank(s))


@st.composite
def _context_subsets(draw) -> KSSet:
    """A random set of the contexts of d8-34-9, d10-39-9 (both with
    signature classes of several members) or the census master set, over
    the projectors they use."""
    name = draw(st.sampled_from(("d8-34-9", "d10-39-9", "census")))
    s = census_set() if name == "census" else catalog.seed_set(name)
    picked = draw(st.sets(st.integers(0, s.n_contexts - 1), min_size=1))
    contexts = [s.contexts[ci] for ci in sorted(picked)]
    used = {pid for ctx in contexts for pid in ctx}
    return KSSet(s.dimension, {pid: p for pid, p in s.projectors.items()
                               if pid in used}, contexts)


@given(_context_subsets())
@settings(max_examples=60, deadline=None)
def test_context_mode_agrees_with_merge_rank_on_context_subsets(s):
    assert _context_colorable(s) == _context_colorable(merge_rank(s))
    assert is_ks(s) == (find_assignment(s, Mode.FULL) is None)


def test_is_ks_is_the_full_mode_search():
    # is_ks refutes in context mode first, as it does every named set and
    # table build.  The full-mode cores of three sets that are not critical
    # in full mode are colorable in context mode, so they take the
    # full-mode search, as does a single basis.
    cores = [reduce_critical(catalog.seed_set(name))
             for name in ("d3-49-36", "d3-57-40", "d11-40-12")]
    assert [symbol(c).compact for c in cores] == ["33-20", "33-13", "40-10"]
    assert all(_context_colorable(c) for c in cores)
    for s in _named_sets() + list(_table_builds()) + cores:
        assert is_ks(s) == (find_assignment(s, Mode.FULL) is None)
    assert not is_ks(basis_set(4))


@pytest.mark.parametrize("name", ["d8-34-9", "d10-39-9"])
def test_context_witnesses_put_their_1s_on_class_representatives(name):
    # A removal witness values the projectors the other contexts use, and
    # puts each 1 on the first projector of its signature class.
    s = catalog.seed_set(name)
    sigs = s.signatures()
    first: dict[int, str] = {}
    for pid, sig in sigs.items():
        first.setdefault(sig, pid)
    assert len(first) < len(sigs)  # some class has several members
    report = is_critical(s, Mode.CONTEXT_ONLY)
    assert report.overall
    for removed, witness in enumerate(report.removals):
        rest = s.contexts[:removed] + s.contexts[removed + 1:]
        assert witness.values.keys() == {pid for ctx in rest for pid in ctx}
        assert _check(s, witness, Mode.CONTEXT_ONLY, rest)
        assert all(first[sigs[pid]] == pid
                   for pid, v in witness.values.items() if v)


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
