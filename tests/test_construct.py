"""Construction-method tests: direct sums, pairing, merging, scaling, the
padded and swapped extensions, greedy reduction, and the dimension table."""

from __future__ import annotations

import gc
import hashlib
import random
import re
import tracemalloc
from math import isqrt

import pytest

from conftest import basis_set, census_set, planar_bases_text
from ksets import catalog, construct, model, setfile
from ksets.cyclo import CycNum, ONE, ZERO
from ksets.errors import (
    BadBasisError,
    BadDimensionError,
    ChainSyntaxError,
    InvalidPairingError,
    NotKSError,
    NotParityError,
    NotScaledUnitaryError,
    UnknownNameError,
    ValidationError,
)
from ksets.model import (
    KSSet,
    Projector,
    Ray,
    inner,
    orthogonality_graph,
    projector_equal,
    symbol,
    validate,
)
from ksets.construct import (
    MAX_SCALED_ENTRIES,
    apply_transform,
    build_chain,
    ceg,
    default_pairing,
    matsuno,
    merge_rank,
    pz_basic,
    pz_improved,
    rank_scale,
    reduce_critical,
    split_ranks,
    table_recipe,
)
from ksets.verify import (
    Mode,
    SearchStats,
    export_cnf,
    find_assignment,
    is_critical,
    is_ks,
    is_parity,
)
from oracles import count_merges, optimize_pairing, reference_reduce


# -- basic direct sum ------------------------------------------------


def test_pz_basic_self(s18):
    out = pz_basic(s18, s18)
    assert out.dimension == 8
    assert out.n_projectors == 36
    assert out.n_contexts == 81
    assert is_ks(out)


def test_pz_basic_mixed_counts(s18, s21):
    out = pz_basic(s18, s21)
    assert out.dimension == 10
    assert out.n_projectors == 39
    assert out.n_contexts == 63
    for ctx in out.contexts:
        ranksum = sum(out.projectors[pid].rank for pid in ctx)
        assert ranksum == 10


def test_pz_basic_bounds_its_output_before_building_it(monkeypatch):
    # n bases in d = 2 pair into n^2 contexts of 4 members in d = 4: 512 of
    # them reach the limit, 2^20, and 600 (1.44 M) exceed it
    over = setfile.parse(planar_bases_text(600))
    assert validate(over).ok
    _raises_without_allocating("1440000 context entries", pz_basic, over, over)
    at_limit = setfile.parse(planar_bases_text(512))
    monkeypatch.setattr(construct, "_direct_sum", lambda s1, s2, pairs: len(pairs))
    assert pz_basic(at_limit, at_limit) == 512 ** 2 == MAX_SCALED_ENTRIES // 4


# -- paired direct sum -----------------------------------------------


def test_pairing_validity():
    with pytest.raises(InvalidPairingError):
        # small context 0 used twice (even)
        pz_improved(
            catalog.seed_set("d4-18-9"),
            catalog.seed_set("d6-21-7"),
            (0, 0, 1, 2, 3, 4, 5, 6, 6),
        )


def test_pairing_requires_total_map(s18, s21):
    with pytest.raises(InvalidPairingError):
        pz_improved(s18, s21, (0, 1, 2))


def test_pz_improved_requires_parity(s18):
    with pytest.raises(NotParityError):
        pz_improved(s18, basis_set(3))


def test_pz_improved_fixture(s18, s21):
    out = pz_improved(s18, s21)
    sym = symbol(out)
    assert sym.compact == "39-9"
    assert sym.detailed == "6^1_4 33^1_2 - 9^10_10"
    assert is_parity(out)
    assert is_ks(out)


def test_pz_improved_default_equals_fixture(s18, s21):
    assert default_pairing(9, 7) == (0, 1, 2, 3, 4, 5, 6, 0, 0)


def test_pz_improved_flip_mirrors_blocks(s18, s21):
    out = pz_improved(s21, s18)
    # the first set, the 21-ray block, occupies the leading six coordinates
    ray = out.projectors["a1"].span[0]
    assert not ray.entries[0].is_zero()
    assert all(ray.entries[i].is_zero() for i in range(6, 10))
    assert symbol(out).detailed == "6^1_4 33^1_2 - 9^10_10"


# -- merging and splitting -------------------------------------------


def test_merge_rank_fixture_pairs(s18, s21):
    out = merge_rank(pz_improved(s18, s21))
    sym = symbol(out)
    assert sym.compact == "30-9"
    assert sym.detailed == "9^2_2 6^1_4 15^1_2 - 6^10_7 3^10_10"
    merged = {pid for pid in out.projectors if "+" in pid}
    assert merged == {
        "a3+b7", "a15+b8", "a14+b10", "a12+b13", "a11+b15",
        "a4+b16", "a13+b17", "a16+b20", "a5+b21",
    }


def test_merge_rank_18_9_unchanged(s18):
    # brute-force co-occurrence scan: no pair shares both contexts
    sigs = {}
    for ci, ctx in enumerate(s18.contexts):
        for pid in ctx:
            sigs.setdefault(pid, set()).add(ci)
    assert len({frozenset(v) for v in sigs.values()}) == 18
    assert merge_rank(s18) == s18


def test_merge_preserves_coloring(s18, s21):
    paired = pz_improved(s18, s21)
    merged = merge_rank(paired)
    for mode in Mode:
        assert (find_assignment(paired, mode) is None) == (
            find_assignment(merged, mode) is None
        )


def test_split_inverts_merge_counts():
    s30 = catalog.seed_set("d8-30-9")
    split = split_ranks(s30)
    assert split.n_projectors == 34
    assert symbol(split).compact == "34-9"


def test_merge_rank_identifies_merged_groups_with_equal_subspaces():
    # a+b and c+d both span the whole plane: one projector, one context.
    s = setfile.parse(
        "dim 2\nray a 1 0\nray b 0 1\nray c 1 1\nray d 1 -1\n"
        "ctx a b\nctx c d\n")
    assert setfile.serialize(merge_rank(s)) == (
        "dim 2\nray a+b.1 1 0\nray a+b.2 0 1\nproj a+b a+b.1 a+b.2\n"
        "ctx a+b\n")


def test_merge_rank_primes_a_group_label_a_projector_has():
    # The group {a, b} would be labelled a+b, which projector a+b already is.
    s = setfile.parse(
        "dim 3\nray a 1 0 0\nray b 0 1 0\nray c 0 0 1\nray a+b 1 1 0\n"
        "ray q 1 -1 0\nray r 1 -1 1\nray t 1 -1 -2\n"
        "ctx a b c\nctx c a+b q\nctx a+b r t\n")
    out = merge_rank(s)
    assert list(out.projectors) == ["a+b'", "c", "a+b", "q", "r+t"]
    assert out.contexts == [("a+b'", "c"), ("c", "a+b", "q"), ("a+b", "r+t")]
    assert setfile.parse(setfile.serialize(out)) == out


def test_split_ranks_drops_a_repeated_member_set():
    # P = <e1, e2> splits into e1 and e2, which y and z already are, so
    # both contexts become {P.1, P.2, x}.
    s = setfile.parse(
        "dim 3\nray P.1 1 0 0\nray P.2 0 1 0\nproj P P.1 P.2\n"
        "ray x 0 0 1\nray y 1 0 0\nray z 0 1 0\nctx P x\nctx y z x\n")
    assert setfile.serialize(split_ranks(s)) == (
        "dim 3\nray P.1 1 0 0\nray P.2 0 1 0\nray x 0 0 1\n"
        "ctx P.1 P.2 x\n")


def test_split_ranks_names_rays_as_the_set_file_does():
    # The span rays of p cannot take the id p.1, which a rank-1 projector has.
    s = setfile.parse(
        "dim 3\nray a 1 0 0\nray b 0 1 0\nproj p a b\nray p.1 0 0 1\n"
        "ctx p p.1\n")
    out = split_ranks(s)
    assert list(out.projectors) == ["p.1'", "p.2", "p.1"]
    assert out.contexts == [("p.1'", "p.2", "p.1")]


def test_optimize_pairing_self_identity(s21):
    best = optimize_pairing(s21, s21)
    assert best == (0, 1, 2, 3, 4, 5, 6)
    assert count_merges(s21, s21, best) == 21
    merged = merge_rank(pz_improved(s21, s21, best))
    sym = symbol(merged)
    assert sym.compact == "21-7"
    assert all(r == 2 for _, r, _ in sym.ray_classes)


def test_optimize_pairing_18_21_achieves_nine(s18, s21):
    best = optimize_pairing(s18, s21)
    assert best == (0, 0, 0, 1, 2, 3, 4, 5, 6)
    assert count_merges(s18, s21, best) == 9
    out = merge_rank(pz_improved(s18, s21, best))
    assert symbol(out).compact == "30-9"


def test_optimize_pairing_refuses_beyond_nine(s18, s21):
    # a 63-context parity set is past the exhaustive search
    big = pz_basic(s18, s21)
    assert is_parity(big)
    with pytest.raises(InvalidPairingError, match="at most 9 contexts"):
        optimize_pairing(s21, big)


def test_pairing_mod_seven_merges_every_small_projector(s18, s21):
    # k -> k mod 7 pairs each 21-7 context with the 9 contexts of pz_basic
    # that extend it, so every one of the 21 small projectors merges
    big = pz_basic(s18, s21)
    pairing = tuple(k % 7 for k in range(63))
    summed = pz_improved(s21, big, pairing)
    merged = merge_rank(summed)
    assert count_merges(s21, big, pairing) == 21
    assert summed.n_projectors - merged.n_projectors == 21
    assert is_parity(merged)


@pytest.mark.parametrize("pairing", [
    (0,) * 9,                      # small contexts 1..6 used zero times
    (0, 1, 2, 3, 4, 5, 6, 0),      # covers 8 of the 9 large contexts
    (0, 1, 2, 3, 4, 5, 6, 0, 7),   # small context 7 does not exist
    (0, 1, 2, 3, 4, 5, 6, 0, -1),
])
def test_count_merges_checks_the_pairing(s18, s21, pairing):
    with pytest.raises(InvalidPairingError):
        pz_improved(s18, s21, pairing)
    with pytest.raises(InvalidPairingError):
        count_merges(s18, s21, pairing)


def test_count_merges_requires_parity(s18):
    with pytest.raises(NotParityError):
        count_merges(s18, basis_set(3), (0,) * 9)


def test_optimize_pairing_leaves_no_garbage(s21):
    # the exhaustive search must not leave a reference cycle for the
    # cyclic collector to free
    optimize_pairing(s21, s21)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            optimize_pairing(s21, s21)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_merges_skips_projectors_in_no_context(s18, s21):
    # merge_rank leaves projectors that occur in no context alone, so two
    # such rays added to the 18-ray set must not count as merged
    projs = dict(s18.projectors)
    for pid, entries in (("19", (1, 2, 3, 4)), ("20", (1, -2, 3, 5))):
        projs[pid] = Projector((Ray([CycNum.from_rational(x) for x in entries]),))
    padded = KSSet(4, projs, list(s18.contexts))
    assert is_parity(padded)
    pairing = default_pairing(9, 7)
    summed = pz_improved(padded, s21, pairing)
    removed = summed.n_projectors - merge_rank(summed).n_projectors
    assert removed == 9
    assert count_merges(padded, s21, pairing) == removed


# -- rank scaling ----------------------------------------------------


def test_rank_scale_identity(s21):
    assert rank_scale(s21, 1) == s21


def test_rank_scale_21_7(s21):
    out = rank_scale(s21, 2)
    assert out.dimension == 12
    sym = symbol(out)
    assert sym.compact == "21-7"
    assert sym.detailed == "21^2_2 - 7^12_6"
    assert is_ks(out)


@pytest.mark.parametrize("n", [2, 3])
def test_rank_scale_ks_and_context_bijection(s18, n):
    out = rank_scale(s18, n)
    assert out.n_contexts == s18.n_contexts
    assert [tuple(c) for c in out.contexts] == [tuple(c) for c in s18.contexts]
    assert is_ks(out)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", catalog.NAMES)
def test_rank_scale_keeps_the_orthogonality_graph(name, n):
    # P (x) I_n is orthogonal to Q (x) I_n exactly when P is orthogonal to Q,
    # so the products of the padded block copies give the seed's graph,
    # for the built set and for a fresh copy parsed from its set file.
    s = catalog.seed_set(name)
    scaled = rank_scale(s, n)
    fresh = setfile.parse(setfile.serialize(scaled))
    assert orthogonality_graph(fresh) == orthogonality_graph(s)
    assert orthogonality_graph(scaled) == orthogonality_graph(fresh)


def test_rank_scale_rejects_zero(s18):
    with pytest.raises(BadDimensionError):
        rank_scale(s18, 0)


def test_rank_scale_names_its_output(s21):
    assert rank_scale(s21, 2).name == "d6-21-7(scale2)"
    assert rank_scale(s21, 1) is s21


def _raises_without_allocating(match, build, *args):
    tracemalloc.start()
    try:
        with pytest.raises(BadDimensionError, match=match):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one scaled projector of d4-18-9, n rays of 4n entries, takes more, as
    # does the list of context pairs of pz_basic
    assert peak < 64 * 1024


def test_rank_scale_bounds_its_output_before_building_it(s18):
    # d4-18-9 has 18 rank-1 projectors in d = 4: 72 n^2 entries
    per_n2 = 18 * 4
    first_over = isqrt(MAX_SCALED_ENTRIES // per_n2) + 1
    assert per_n2 * (first_over - 1) ** 2 <= MAX_SCALED_ENTRIES
    assert per_n2 * first_over ** 2 > MAX_SCALED_ENTRIES
    _raises_without_allocating("ray entries", rank_scale, s18, first_over)
    _raises_without_allocating("ray entries", rank_scale, s18, 10**12)


def test_rank_scale_bound_admits_every_table_chain_to_40():
    scalings = set()
    for d in range(3, 41):
        for recipe in table_recipe(d):
            for chain in (recipe.general_chain, recipe.rank1_chain):
                scalings.update(re.findall(r"rank_scale\(([\w-]+), (\d+)\)",
                                           chain or ""))
    assert ("d3-49-36", "13") in scalings
    for name, n in scalings:
        s = catalog.seed_set(name)
        rank_sum = sum(p.rank for p in s.projectors.values())
        assert int(n) ** 2 * s.dimension * rank_sum <= MAX_SCALED_ENTRIES


# -- padded extension ------------------------------------------------


def test_ceg_21_7_counts(s21):
    out = ceg(s21, 7)
    assert out.n_projectors == 45
    assert out.n_contexts == 15
    assert is_ks(out)


def test_ceg_18_9_counts(s18):
    # the zero patterns of the 18-ray set collide under shifting: five pairs
    # of the 39 padded projectors coincide as subspaces, leaving 34
    out = ceg(s18, 5)
    assert out.n_contexts == 19
    assert out.n_projectors == 34
    assert is_ks(out)


def test_ceg_pad_context(s21):
    out = ceg(s21, 7)
    pads = out.contexts[0]
    assert {out.projectors[pid].rank for pid in pads} == {1, 5}
    assert sum(out.projectors[pid].rank for pid in pads) == 7


def test_ceg_context_count_bound(s18, s21):
    for s, d in ((s18, 5), (s18, 7), (s21, 7), (s21, 11)):
        out = ceg(s, d)
        assert out.n_contexts == 2 * s.n_contexts + 1
        assert out.n_projectors <= 2 * s.n_projectors + 3


def test_ceg_rejects_bad_dimension(s18):
    for d in (4, 8, 9):
        with pytest.raises(BadDimensionError):
            ceg(s18, d)


# -- swap extension --------------------------------------------------


def test_matsuno_18_9(s18):
    out = matsuno(s18, 5)
    assert out.n_projectors == 29
    assert out.n_contexts == 16
    assert is_ks(out)
    assert is_critical(out).overall


def test_matsuno_duplicate_counts(s18):
    # rays with zero first coordinate are fixed by the swap: seven of the
    # eighteen images collapse, 2*18 - 7 = 29
    fixed = [
        pid for pid, proj in s18.projectors.items()
        if proj.span[0].entries[0].is_zero()
    ]
    assert len(fixed) == 7
    out = matsuno(s18, 5)
    assert out.n_projectors == 2 * 18 - 7


def test_matsuno_basis_21_7(basis21):
    out7 = matsuno(basis21, 7)
    assert (out7.n_projectors, out7.n_contexts) == (32, 12)
    out9 = matsuno(basis21, 9)
    assert (out9.n_projectors, out9.n_contexts) == (39, 13)
    assert is_ks(out7) and is_ks(out9)


def test_matsuno_primes_a_copy_label_a_projector_has(basis21):
    # The swapped copy of projector 1 would be labelled 1', which projector
    # 3 is after the renaming.
    def rename(pid):
        return "1'" if pid == "3" else pid

    renamed = KSSet(6, {rename(pid): p for pid, p in basis21.projectors.items()},
                    [tuple(map(rename, ctx)) for ctx in basis21.contexts])
    out = matsuno(renamed, 7)
    assert (out.n_projectors, out.n_contexts) == (32, 12)
    assert symbol(out).detailed == symbol(matsuno(basis21, 7)).detailed
    assert is_ks(out)


@pytest.mark.parametrize(("name", "seed", "d"), [
    ("d5-29-16", "d4-18-9", 5),
    ("d7-32-12", "d6-21-7-basis", 7),
    ("d9-39-13", "d6-21-7-basis", 9),
])
def test_matsuno_reproduces_the_cataloged_swap_sets(name, seed, d):
    # Up to ids: the k-th projectors span the same subspace, and the id map
    # they give sends the contexts onto the cataloged ones.
    built, stored = matsuno(catalog.seed_set(seed), d), catalog.seed_set(name)
    assert built.n_projectors == stored.n_projectors
    ids = dict(zip(built.projectors, stored.projectors))
    for pid, sid in ids.items():
        assert projector_equal(built.projectors[pid], stored.projectors[sid])
    mapped = {frozenset(map(ids.__getitem__, ctx)) for ctx in built.contexts}
    assert built.n_contexts == stored.n_contexts
    assert mapped == {frozenset(ctx) for ctx in stored.contexts}


def test_matsuno_auto_basis(s18, basis21):
    # digests of the sets built from the axis projectors named explicitly
    # ("1"; "1"; "1", "2", "3"); the set's own axis projectors are the only
    # ones there are, so they build the same sets
    pinned = (
        (s18, 5,
         "015bc54565ab60448f3817163c9cc71981440951cfa4cdac96f443606d2208b0"),
        (basis21, 7,
         "4d53d15c30daad67b81b2f723fc6e413fcd8be0bd91435f5021ce85d838aa0e0"),
        (basis21, 9,
         "9e5087a154b97dfcdc845542fd2ef346f22afb3fd9878ca4287fdc4404bade07"),
    )
    for s, d, digest in pinned:
        text = setfile.serialize(matsuno(s, d))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_matsuno_at_least_one_duplicate(s18, basis21):
    for s, d in ((s18, 5), (basis21, 7), (basis21, 11)):
        out = matsuno(s, d)
        assert out.n_projectors <= 2 * s.n_projectors - 1
        assert out.n_contexts <= 2 * s.n_contexts - 1


def test_matsuno_splits_a_higher_rank_operand(basis21):
    # matsuno splits an operand with projectors of higher rank into its
    # span rays first, called directly and as a step of a chain
    scaled = rank_scale(basis21, 2)
    expected = _without_name(matsuno(split_ranks(scaled), 13))
    assert _without_name(matsuno(scaled, 13)) == expected
    got = build_chain("matsuno(rank_scale(d6-21-7-basis, 2), 13)")
    assert _without_name(got) == expected
    assert _without_name(build_chain(
        "matsuno(split_ranks(rank_scale(d6-21-7-basis, 2)), 13)")) == expected
    assert symbol(got).compact == "53-12"


def test_matsuno_rejects_non_axis_basis(s21):
    # the stored 21-ray set has no axis rays at all
    with pytest.raises(BadBasisError):
        matsuno(s21, 7)


def test_matsuno_rejects_bad_dimension(s18):
    with pytest.raises(BadDimensionError):
        matsuno(s18, 8)


# -- scaled unitaries ------------------------------------------------


def _identity(d):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def test_apply_transform_identity(s18):
    assert apply_transform(s18, _identity(4)) == s18


def test_apply_transform_first_context_to_axes(s21):
    # conjugated first-context rays as rows: sends that context to the
    # scaled standard basis; column norms are all 6
    rows = [
        [e.conj() for e in s21.projectors[pid].span[0].entries]
        for pid in s21.contexts[0]
    ]
    out = apply_transform(s21, rows)
    for i, pid in enumerate(s21.contexts[0]):
        ray = out.projectors[pid].span[0]
        assert ray.support == 1 << i
    assert symbol(out).detailed == symbol(s21).detailed
    assert is_ks(out)


def test_apply_transform_scales_inner_products(s21):
    rows = [
        [e.conj() for e in s21.projectors[pid].span[0].entries]
        for pid in s21.contexts[0]
    ]
    out = apply_transform(s21, rows)
    c = CycNum.from_rational(6)
    u, v = (s21.projectors[p].span[0] for p in ("7", "12"))
    tu, tv = (out.projectors[p].span[0] for p in ("7", "12"))
    assert inner(tu, tv) == c * inner(u, v)


def test_apply_transform_rejects_non_unitary(s18):
    bad = _identity(4)
    bad[0][1] = ONE
    with pytest.raises(NotScaledUnitaryError):
        apply_transform(s18, bad)
    with pytest.raises(NotScaledUnitaryError):
        # unequal column norms
        scaled = _identity(4)
        scaled[0][0] = CycNum.from_rational(2)
        apply_transform(s18, scaled)


# -- reduction -------------------------------------------------------


def test_reduce_critical_fixed_point(s21):
    assert reduce_critical(s21) == s21


def test_reduce_critical_rejects_colorable():
    with pytest.raises(NotKSError):
        reduce_critical(basis_set(3))


def test_reduce_ceg_18_9(s18):
    out = reduce_critical(ceg(s18, 5))
    assert out.dimension == 5
    assert is_ks(out)
    assert is_critical(out).overall
    # frozen regression value for this deterministic greedy reduction
    assert symbol(out).compact == "33-16"


@pytest.mark.parametrize("mode", [Mode.FULL, Mode.CONTEXT_ONLY])
def test_reduce_critical_idempotent(s18, mode):
    # one scan already leaves every kept context necessary
    once = reduce_critical(ceg(s18, 5), mode)
    twice = reduce_critical(once, mode)
    assert twice.contexts == once.contexts


def test_census_cores_are_pinned():
    # Context-mode cores of the d=4 master set from 200 seeded base orders.
    # The digest was taken from the solver that rescanned every context per
    # node and rebuilt the context-mode masks per trial removal.
    rng = random.Random(0)
    n = census_set().n_contexts
    cores = []
    for _ in range(200):
        order = list(range(n))
        rng.shuffle(order)
        core = reduce_critical(census_set(order), Mode.CONTEXT_ONLY)
        cores.append(" ".join(",".join(ctx) for ctx in core.contexts))
    digest = hashlib.sha256("\n".join(cores).encode()).hexdigest()
    assert digest == (
        "1442e2551a09e27711a4b6cc6300aa8767c67b1791def3827a9368757eb4415a")


# (kept contexts, (nodes, propagations, conflicts, max depth)).  The rows of
# the critical seeds were counted with the solver that preceded fused branch
# selection and incremental masks; a critical input runs exactly the plain
# scan's searches.  The ceg and census rows were counted again when the scan
# began to gallop: the kept contexts stayed, the searches changed.
REDUCE_COUNTS = {
    ("d4-18-9", Mode.FULL): (9, (53, 75, 31, 3)),
    ("d4-18-9", Mode.CONTEXT_ONLY): (9, (58, 32, 22, 5)),
    ("d6-21-7", Mode.FULL): (7, (73, 0, 78, 3)),
    ("d6-21-7", Mode.CONTEXT_ONLY): (7, (65, 6, 48, 5)),
    ("ceg", Mode.FULL): (16, (189, 419, 152, 4)),
    ("ceg", Mode.CONTEXT_ONLY): (18, (319, 324, 274, 5)),
    ("census", Mode.FULL): (12, (394, 2132, 357, 5)),
    ("census", Mode.CONTEXT_ONLY): (11, (394, 801, 281, 7)),
}


@pytest.mark.parametrize(("name", "mode"), list(REDUCE_COUNTS))
def test_reduce_critical_search_counts_are_pinned(name, mode):
    if name == "ceg":
        s = ceg(catalog.seed_set("d4-18-9"), 5)
    elif name == "census":
        s = census_set()
    else:
        s = catalog.seed_set(name)
    stats = SearchStats()
    out = reduce_critical(s, mode, stats=stats)
    counts = (stats.nodes, stats.propagations, stats.conflicts, stats.max_depth)
    assert (out.n_contexts, counts) == REDUCE_COUNTS[name, mode]
    # reduce_critical does not validate its core; the core must be valid
    assert validate(out).ok


def _reduce_inputs():
    rng = random.Random(0)
    n = census_set().n_contexts
    for i in range(20):
        order = list(range(n))
        rng.shuffle(order)
        yield f"census order {i}", census_set(order)
    yield "d3-57-40", catalog.seed_set("d3-57-40")
    yield "d3-49-36", catalog.seed_set("d3-49-36")
    s18 = catalog.seed_set("d4-18-9")
    yield "ceg(d4-18-9, 5)", ceg(s18, 5)
    yield "pz_basic(d4-18-9, d6-21-7)", pz_basic(s18, catalog.seed_set("d6-21-7"))


@pytest.mark.parametrize("mode", list(Mode))
def test_galloping_reduction_keeps_the_one_scan_core(mode):
    # reduce_critical drops runs of contexts with one search each; it must
    # keep exactly the contexts of the plain one-scan, in the same order
    for label, s in _reduce_inputs():
        assert reduce_critical(s, mode).contexts == reference_reduce(s, mode), label


def test_reduce_basic_sum(s18, s21):
    out = reduce_critical(pz_basic(s18, s21))
    assert out.n_contexts <= 63
    assert is_critical(out).overall
    # frozen regression value
    assert symbol(out).compact == "39-14"


# -- dimension table --------------------------------------------------


def test_table_10():
    rows = table_recipe(10)
    by_row = {r.row: r for r in rows}
    assert by_row["10n"].general_symbol == "30-9"
    assert by_row["10n"].rank1_symbol == "39-9"
    assert rows[0].row == "10n"


def test_table_7():
    rows = table_recipe(7)
    assert any(r.general_symbol == "32-12" for r in rows)


def test_table_13():
    rows = table_recipe(13)
    by_row = {r.row: r for r in rows}
    assert by_row["6m+1"].general_symbol == "43-12"
    assert by_row["6m+1"].rank1_symbol == "53-12"


def test_table_rejects_small_dimension():
    with pytest.raises(BadDimensionError):
        table_recipe(2)


def test_table_executes_d13_swap_rows():
    rows = {r.row: r for r in table_recipe(13)}
    rank1 = rows["6m+1"].build_rank1()
    assert symbol(rank1).compact == "53-12"
    general = rows["6m+1"].build_general()
    assert symbol(general).compact == "43-12"
    assert is_ks(general)


def test_table_build_graphs_are_pinned():
    # The orthogonality masks of every table build for d = 3..24, general
    # then rank-1 chain per row.  The digest was taken from the graph that
    # sent every overlapping pair to an unpacked inner product.
    chains = [
        chain
        for d in range(3, 25)
        for recipe in table_recipe(d)
        for chain in (recipe.general_chain, recipe.rank1_chain)
        if chain
    ]
    assert len(chains) == 112
    text = "\n".join(
        repr(orthogonality_graph(build_chain(chain))) for chain in chains)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6c8f0208ca7da3bf46fa3d1e93b0ce2f8059c7e409dae5b235e6991a14d0a306")


def _digest(sets) -> str:
    text = "\0".join(setfile.serialize(s) for s in sets)
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_builds_serialize_as_pinned():
    # Ids, spans and context order of every table build, in the order of
    # test_table_build_graphs_are_pinned; taken before the constructions
    # shared one assembly step.
    chains = [
        chain
        for d in range(3, 25)
        for recipe in table_recipe(d)
        for chain in (recipe.general_chain, recipe.rank1_chain)
        if chain
    ]
    assert len(chains) == 112
    assert _digest(build_chain(chain) for chain in chains) == (
        "59e85ab10aaed14f7d9b566f3ece2d2c21eb7119377f6c5e5860abab596dafb0")


def test_direct_sum_and_transform_serialize_as_pinned(s18, s21):
    rotation = [[CycNum.from_rational(x) for x in row] for row in
                ([3, -4, 0, 0], [4, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5])]
    assert _digest([pz_basic(s18, s21), apply_transform(s18, rotation)]) == (
        "2ca40ac3199e0107a7cee38bf6c51207e4053bde44b3b19e8adc59ae74048052")


def test_table_rank1_six_n_scaling():
    for d in (6, 12, 18):
        rows = {r.row: r for r in table_recipe(d)}
        r, b = rows["6n"].rank1_symbol.split("-")
        assert int(r) * 2 == 7 * d  # R = 3.5 d exactly


def test_build_chain_runs_table_chains(s18, s21):
    assert build_chain(" pz_improved ( d4-18-9 ,d6-21-7 ) ") == pz_improved(s18, s21)
    assert build_chain("d6-21-7") == s21
    out = build_chain("merge_rank(matsuno(split_ranks(rank_scale(d6-21-7-basis, 2)), 13))")
    assert symbol(out).compact == "43-12"


def test_build_chain_names_the_set_after_its_chain(s21):
    out = build_chain("split_ranks(rank_scale(d6-21-7,\n  2))")
    assert out.name == "split_ranks(rank_scale(d6-21-7, 2))"
    assert setfile.serialize(out).startswith(f"# {out.name}\n")
    assert setfile.parse(setfile.serialize(out)) == out
    assert s21.name == "d6-21-7"


def test_build_chain_never_renames_a_seed():
    for chain, name in (("d8-34-9", "d8-34-9"),
                        ("rank_scale(d4-18-9, 1)", "d4-18-9")):
        assert build_chain(chain) is catalog.seed_set(name)
        assert catalog.seed_set(name).name == name


@pytest.mark.parametrize("chain", [
    "eval(d4-18-9)",
    "__import__(1)",
    "pz_basic(d4-18-9, d4-18-9)",
    "rank_scale(d4-18-9, 2",
    "rank_scale(d4-18-9, 2))",
    "split_ranks(" * 5000 + "d4-18-9",
    "rank_scale(d4-18-9, )",
    "rank_scale(, 2)",
    "rank_scale(d4-18-9)",
    "split_ranks(d4-18-9, 2)",
    "ceg(d4-18-9, d4-18-9)",
    "merge_rank()",
    "rank_scale(d4-18-9, 2) d6-21-7",
    "d4-18-9 (2)",
    "",
    "   ",
    "7",
    "rank_scale(d4-18-9, 2.5)",
    "rank_scale(d4-18-9, -1)",
    "rank_scale(d4-18-9, 1e3)",
    "rank_scale(d4-18-9, 2x)",
    "rank_scale(d4-18-9, " + "1" * 5000 + ")",
])
def test_build_chain_rejects_malformed_chains(chain):
    with pytest.raises(ChainSyntaxError):
        build_chain(chain)


@pytest.mark.parametrize("chain", ["d4-99-9", "rank_scale(d4-18-10, 2)"])
def test_build_chain_rejects_unknown_seeds(chain):
    with pytest.raises(UnknownNameError):
        build_chain(chain)


def test_build_chain_calls_through_module_attributes(monkeypatch):
    # The benchmark's per-layer spans rebind construct and catalog module
    # attributes; a chain must reach the rebound functions.
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(construct, "rank_scale",
                        counting("rank_scale", construct.rank_scale))
    monkeypatch.setattr(catalog, "seed_set", counting("seed_set", catalog.seed_set))
    out = build_chain("split_ranks(rank_scale(d4-18-9, 2))")
    assert calls == ["seed_set", "rank_scale"]
    assert symbol(out).compact == "36-9"


def _table_chains() -> list[str]:
    return [
        chain
        for d in range(3, 25)
        for recipe in table_recipe(d)
        for chain in (recipe.general_chain, recipe.rank1_chain)
        if chain
    ]


def _step_by_step(chain: str) -> KSSet:
    """The set of chain, built by calling the public constructions one at a
    time, each on sets it is handed validated, without build_chain."""
    steps = {name: getattr(construct, name) for name in construct.OPERANDS}
    call = re.sub(r"\bd\d+-[\w-]+", lambda m: f"seed({m.group()!r})", chain)
    return eval(call, {"__builtins__": {}, "seed": catalog.seed_set, **steps})


def _without_name(s: KSSet) -> str:
    return setfile.serialize(s.copy(name=None))


@pytest.mark.parametrize("chain", _table_chains() + [
    "merge_rank(ceg(rank_scale(d6-21-7, 2), 13))",
    "split_ranks(ceg(rank_scale(d4-18-9, 2), 11))",
    "ceg(merge_rank(d8-34-9), 11)",
    "pz_improved(d4-18-9, merge_rank(pz_improved(d4-18-9, d6-21-7)))",
    "rank_scale(split_ranks(rank_scale(d3-49-36, 2)), 1)",
    "split_ranks(d10-39-9)",
])
def test_build_chain_matches_the_steps_called_one_by_one(chain):
    # build_chain validates only its output; the public steps validate
    # every set they return.  Both give the same set and the same graph.
    got, expected = build_chain(chain), _step_by_step(chain)
    assert _without_name(got) == _without_name(expected)
    assert orthogonality_graph(got) == orthogonality_graph(expected)


def _tilted(s: KSSet) -> KSSet:
    """A copy of s whose second member of the first context has its first
    span ray tilted towards the first member, which it is no longer
    orthogonal to."""
    a, b = s.contexts[0][:2]
    u, *rest = s.projectors[b].span
    tilted = Ray([x + y for x, y in zip(s.projectors[a].span[0].entries,
                                        u.entries)])
    return s.copy(projectors={**s.projectors, b: Projector((tilted, *rest))})


def test_build_chain_rejects_a_faulty_inner_step(monkeypatch):
    # A rank_scale that tilts one ray of a context member towards another
    # member.  build_chain checks no set on the way, but split_ranks keeps
    # the pair in a context, so the chain's output fails its validation.
    original = construct.rank_scale

    def faulty(s, n):
        return _tilted(original(s, n))

    monkeypatch.setattr(construct, "rank_scale", faulty)
    with pytest.raises(ValidationError, match="not orthogonal"):
        build_chain("split_ranks(rank_scale(d4-18-9, 2))")
    with pytest.raises(ValidationError, match="not orthogonal"):
        split_ranks(faulty(catalog.seed_set("d4-18-9"), 2))


def test_build_chain_leaves_its_seeds_and_output_checked():
    # no set a caller receives is deferred, a chain leaves its seeds as
    # loaded, and a construction called on its own returns its set
    # unvalidated: its first reader validates it
    seed = catalog.seed_set("d4-18-9")
    loaded = dict(vars(seed))
    out = build_chain("split_ranks(rank_scale(d4-18-9, 2))")
    assert out._validated and not out._deferred
    assert build_chain("rank_scale(d4-18-9, 1)") is seed
    assert vars(seed).keys() == loaded.keys()
    assert all(vars(seed)[k] is v for k, v in loaded.items())
    assert seed._validated and not seed._deferred
    scaled = rank_scale(seed, 2)
    assert not scaled._validated and not scaled._deferred
    steps = [split_ranks(scaled), ceg(seed, 5), merge_rank(seed),
             matsuno(seed, 5), pz_basic(seed, seed), pz_improved(seed, seed)]
    assert scaled._validated  # split_ranks's operand check read it first
    for step in steps:
        assert not step._validated and not step._deferred
        symbol(step)
        assert step._validated


@pytest.mark.parametrize("reader", [
    symbol, orthogonality_graph, is_ks, find_assignment, is_critical,
    reduce_critical, is_parity, export_cnf, setfile.serialize, split_ranks,
], ids=lambda reader: reader.__name__)
def test_every_reader_validates_a_standalone_construction(reader):
    # a construction called on its own does not validate its set, so a
    # fault planted in it must stop its first reader
    faulty = _tilted(rank_scale(catalog.seed_set("d4-18-9"), 2))
    with pytest.raises(ValidationError, match="not orthogonal"):
        reader(faulty)
    assert not faulty._validated


def test_table_build_pass_work_counts(monkeypatch):
    # One pass of the 112 table chains with is_ks, once the seeds are
    # loaded: one validate per chain that does not give a seed, its
    # products taken once per packing pair, and one key window per new
    # packing, each Ray.__init__.  Every chain output is refuted in context
    # mode, so is_ks builds no graph, and every product is validate's, which
    # tests its member pairs without projector_orthogonal.  matsuno makes
    # no copy of a ray its swap fixes, so no subspace is proved equal to
    # another.  The counts are the same on every host.
    chains = _table_chains()
    for name in (*catalog.NAMES, *catalog.SEED_NAMES):
        catalog.seed_set(name)
    counts = dict.fromkeys(
        ("validate", "projector_orthogonal", "projector_equal", "orthogonal"), 0)
    for name in counts:
        def counting(*args, name=name, original=getattr(model, name)):
            counts[name] += 1
            if name != "validate":
                return original(*args)
            before = counts["orthogonal"]
            out = original(*args)
            counts["validate's products"] += counts["orthogonal"] - before
            return out

        monkeypatch.setattr(model, name, counting)
    counts["validate's products"] = 0

    def packing(ray, entries, original=model.Ray.__init__):
        counts["windows"] += 1
        original(ray, entries)

    counts["windows"] = 0
    monkeypatch.setattr(model.Ray, "__init__", packing)
    for chain in chains:
        assert is_ks(build_chain(chain))
    assert len(chains) == 112
    assert counts["validate"] == 103
    assert counts["projector_orthogonal"] == 0
    assert counts["projector_equal"] == 0
    assert counts["orthogonal"] == counts["validate's products"] == 9744
    assert counts["windows"] == 215
