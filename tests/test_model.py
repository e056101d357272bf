"""Model-layer tests: inner products, projective equality, subspace
comparisons, validation and the symbol calculus."""

from __future__ import annotations

from math import lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import basis_set, make_ray
from ksets import catalog, model
from ksets.construct import (
    build_chain, merge_rank, rank_scale, split_ranks, table_recipe,
)
from ksets.cyclo import (
    OMEGA3, PACK_BASE, PACK_MOD, SQRT2, SQRT3, ZERO, CycNum, pack, zeta,
)
from ksets.errors import DimensionMismatch, ValidationError
from ksets.model import (
    KSSet,
    Projector,
    Ray,
    ensure_valid,
    inner,
    orthogonal,
    orthogonality_graph,
    projector_equal,
    projector_orthogonal,
    symbol,
    validate,
)
from ksets.setfile import parse, serialize
from ksets.verify import is_ks
from oracles import reference_block_graph, reference_graph


def test_inner_standard_basis():
    u = make_ray(1, 0, 0, 0)
    v = make_ray(0, 1, 0, 0)
    assert inner(u, v).is_zero()


def test_inner_rays_17_18(s18):
    # the two rays completing the first context of the 18-ray set
    u = s18.projectors["17"].span[0]
    v = s18.projectors["18"].span[0]
    assert inner(u, v).is_zero()


def test_inner_complex_conjugation(s21):
    # orthogonality of the first two kets needs w + conj(w) = -1
    u = s21.projectors["1"].span[0]
    v = s21.projectors["2"].span[0]
    assert inner(u, v).is_zero()


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(make_ray(1, 0), make_ray(1, 0, 0))


def test_pairwise_checks_dimension_mismatch():
    # disjoint supports: without the check each would answer, not raise
    u, v = make_ray(1, 0), make_ray(0, 0, 1)
    for check in (projector_orthogonal, projector_equal):
        with pytest.raises(DimensionMismatch, match="dimensions 2 != 3"):
            check(Projector((u,)), Projector((v,)))
    plane2 = Projector((u, make_ray(0, 1)))
    plane4 = Projector((make_ray(0, 0, 1, 0), make_ray(0, 0, 0, 1)))
    with pytest.raises(DimensionMismatch, match="dimensions 2 != 4"):
        projector_equal(plane2, plane4)


def test_inner_conjugate_symmetry(s21):
    u = s21.projectors["3"].span[0]
    v = s21.projectors["5"].span[0]
    assert inner(u, v) == inner(v, u).conj()


def test_inner_self_real_nonzero(s21):
    for proj in s21.projectors.values():
        n = inner(proj.span[0], proj.span[0])
        assert not n.is_zero()
        assert n.conj() == n


def _ray_equal(u: Ray, v: Ray) -> bool:
    """Ray equality: the rays compared as rank-1 projectors."""
    return projector_equal(Projector((u,)), Projector((v,)))


def test_ray_equal_scalar_multiple():
    assert _ray_equal(make_ray(1, 0, -1), make_ray(2, 0, -2))
    assert not _ray_equal(make_ray(1, 0, -1), make_ray(1, 0, 1))


def test_ray_equal_unit_modulus_scale():
    v = make_ray(1, 2, -1)
    w = Ray(tuple(zeta(4) * e for e in v.entries))
    assert _ray_equal(v, w)


def test_projector_orthogonal_rank2():
    p = Projector((make_ray(1, 0, 0, 0), make_ray(0, 1, 0, 0)))
    q = Projector((make_ray(0, 0, 1, 0), make_ray(0, 0, 0, 1)))
    assert projector_orthogonal(p, q)
    assert not projector_orthogonal(p, p)


def test_projector_equal_same_plane():
    p = Projector((make_ray(1, 0, 0), make_ray(0, 1, 0)))
    q = Projector((make_ray(1, 1, 0), make_ray(1, -1, 0)))
    assert projector_equal(p, q)


def test_projector_equal_rank_mismatch():
    p = Projector((make_ray(1, 0, 0), make_ray(0, 1, 0)))
    q = Projector((make_ray(1, 0, 0),))
    assert not projector_equal(p, q)


def test_projector_equal_different_lines():
    p = Projector((make_ray(1, 1, 0),))
    q = Projector((make_ray(1, -1, 0),))
    assert not projector_equal(p, q)


@given(st.permutations([0, 1, 2]))
@settings(max_examples=20)
def test_projector_equal_is_equivalence(perm):
    # three spanning pairs of the same plane, compared in random order
    planes = [
        Projector((make_ray(1, 0, 0), make_ray(0, 1, 0))),
        Projector((make_ray(1, 1, 0), make_ray(1, -1, 0))),
        Projector((make_ray(1, 2, 0), make_ray(2, -1, 0))),
    ]
    a, b, c = (planes[i] for i in perm)
    assert projector_equal(a, a)
    assert projector_equal(a, b) == projector_equal(b, a)
    if projector_equal(a, b) and projector_equal(b, c):
        assert projector_equal(a, c)


def test_validate_catalog_set(s18):
    assert validate(s18).ok


def test_validate_incomplete_context():
    s = basis_set(3)
    s.contexts[0] = ("1", "2")
    report = validate(s)
    assert not report.ok
    assert any("rank sum" in issue for issue in report.issues)


def test_validate_nonorthogonal_context(s18):
    # rays 4 and 5 of the 18-ray table are not orthogonal
    bad = KSSet(
        4,
        dict(s18.projectors),
        [("4", "5", "1", "2")],
    )
    report = validate(bad)
    assert any("not orthogonal" in issue for issue in report.issues)
    u = s18.projectors["4"].span[0]
    v = s18.projectors["5"].span[0]
    assert inner(u, v) == CycNum.from_rational(2)


def test_validate_duplicate_projectors():
    s = basis_set(2)
    s.projectors["dup"] = Projector((make_ray(2, 0),))
    report = validate(s)
    assert any("equal subspaces" in issue for issue in report.issues)


def test_validate_duplicate_contexts():
    s = basis_set(2)
    s.contexts.append(("2", "1"))
    report = validate(s)
    assert any("equal member sets" in issue for issue in report.issues)


def _with_projector(proj: Projector) -> KSSet:
    s = basis_set(2)
    s.projectors["x"] = proj
    return s


def _with_context(ctx: tuple[str, ...]) -> KSSet:
    s = basis_set(2)
    s.contexts.append(ctx)
    return s


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: KSSet(0, basis_set(2).projectors, []),
                 "dimension 0 < 1", id="dimension"),
    pytest.param(lambda: _with_projector(Projector(())),
                 "projector x: empty span", id="empty-span"),
    pytest.param(lambda: _with_projector(Projector((make_ray(0, 0),))),
                 "projector x: zero ray", id="zero-ray"),
    pytest.param(lambda: _with_projector(Projector((make_ray(1, 1, 0),))),
                 "projector x: ray of dimension 3 in a dimension-2 set",
                 id="ray-dimension"),
    # two span rays that share support but not a dimension take no product
    pytest.param(lambda: _with_projector(
                     Projector((make_ray(1, 1, 0), make_ray(1, 1)))),
                 "projector x: ray of dimension 3 in a dimension-2 set",
                 id="span-dimensions"),
    pytest.param(lambda: _with_context(("1", "x")),
                 "context 1: unknown members x", id="unknown-member"),
    pytest.param(lambda: _with_context(("1", "1")),
                 "context 1: repeated member", id="repeated-member"),
])
def test_validate_rejects_a_malformed_hand_built_set(make, message):
    # every entry point validates its operand before it reads the projector
    # table or the contexts, so each raises ValidationError, not KeyError
    assert validate(make()).issues == [message]
    for step in (ensure_valid, merge_rank, lambda s: rank_scale(s, 2), is_ks,
                 symbol, orthogonality_graph, serialize):
        with pytest.raises(ValidationError, match=message):
            step(make())


def test_symbol_18_9(s18):
    sym = symbol(s18)
    assert sym.compact == "18-9"
    assert sym.detailed == "18^1_2 - 9^4_4"


def test_symbol_21_7(s21):
    sym = symbol(s21)
    assert sym.compact == "21-7"
    assert sym.detailed == "21^1_2 - 7^6_6"


def test_symbol_merged_d8():
    from ksets import catalog

    sym = symbol(catalog.seed_set("d8-30-9"))
    assert sym.detailed == "4^2_2 2^1_4 24^1_2 - 8^8_7 1^8_8"


def test_symbol_class_counts(s18):
    sym = symbol(s18)
    assert sum(c for c, _, _ in sym.ray_classes) == s18.n_projectors
    assert sum(c for c, _, _ in sym.context_classes) == s18.n_contexts


def test_graph_contexts_are_cliques(s18):
    graph = orthogonality_graph(s18)
    for m in s18.members():
        for i in range(len(graph)):
            if m >> i & 1:
                assert graph[i] & m == m & ~(1 << i)


def test_graph_18_9_degrees(s18):
    # brute-force count over all 153 pairs happens inside the graph builder;
    # every vertex has two contexts x three partners, with one shared pair
    graph = orthogonality_graph(s18)
    assert all(m.bit_count() >= 6 for m in graph)
    n_edges = sum(m.bit_count() for m in graph) // 2
    assert n_edges == 63


def test_graph_single_context_d2():
    g = orthogonality_graph(basis_set(2))
    assert g == (0b10, 0b01)


def test_graph_includes_non_context_pairs(s18):
    # orthogonal rays that never share a context still get an edge: the
    # 18-ray set has 63 edges but only 54 co-context pairs
    graph = orthogonality_graph(s18)
    co = set()
    for m in s18.members():
        ids = [i for i in range(len(graph)) if m >> i & 1]
        for k, i in enumerate(ids):
            for j in ids[k + 1:]:
                co.add((i, j))
    edges = {
        (i, j) for i, m in enumerate(graph) for j in range(i + 1, len(graph))
        if m >> j & 1
    }
    assert len(co) == 54
    assert len(edges) == 63
    assert co < edges


_GRAPH_CASES = [*catalog.NAMES, *catalog.SEED_NAMES] + [
    chain
    for d in range(3, 13)
    for recipe in table_recipe(d)
    for chain in (recipe.general_chain, recipe.rank1_chain)
    if chain
]


@pytest.mark.parametrize("chain", _GRAPH_CASES)
def test_graph_matches_the_pairwise_reference(chain):
    # a fresh copy: no cached validation and no cached graph.  The graph
    # takes disjoint supports and shared contexts as orthogonal unchecked;
    # the reference checks every pair of span rays.
    s = parse(serialize(build_chain(chain)))
    masks = orthogonality_graph(s)
    assert not any(m >> i & 1 for i, m in enumerate(masks))
    assert masks == reference_graph(s)


_RANK1_NAMES = [
    name for name in catalog.NAMES
    if all(p.rank == 1 for p in catalog.seed_set(name).projectors.values())
]


# The "2n+5" and "2n+3" rows at odd d, beyond _GRAPH_CASES too, and ceg of
# sets that no row doubles.  ceg of the unrotated d4-18-9 identifies
# subspaces at d = 5, 7 and 9 (_CEG_IDENTIFYING).
_CEG_CASES = [
    recipe.general_chain
    for d in (5, 7, 9, 13, 15, 17)
    for recipe in table_recipe(d) if recipe.row in ("2n+5", "2n+3")
] + ["ceg(d4-18-9, 5)", "ceg(d4-18-9, 7)", "ceg(rank_scale(d4-18-9, 2), 9)",
     "ceg(d5-29-16, 9)", "ceg(merge_rank(d8-34-9), 11)",
     "ceg(split_ranks(rank_scale(d4-18-9, 2)), 13)"]


@pytest.mark.parametrize("chain", _GRAPH_CASES + [
    f"split_ranks(rank_scale({name}, {n}))"
    for name in _RANK1_NAMES for n in (2, 3)
] + _CEG_CASES)
def test_built_graph_matches_the_pairwise_reference(chain):
    # the built set itself, with the caches a chain leaves on it
    s = build_chain(chain)
    assert orthogonality_graph(s) == reference_graph(s)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", _RANK1_NAMES)
def test_split_block_copies_spread_the_graph_over_the_blocks(name, n):
    # ray k of projector i of rank_scale(S, n) lies in block k and is ray
    # i*n + k of the split: two rays in one block are orthogonal exactly
    # when their projectors of S are, and rays in different blocks always
    # are.  The split reads the layout from the rays, so a copy parsed
    # from its set file has the same graph.
    seed = catalog.seed_set(name)
    spread = reference_block_graph(reference_graph(seed), n)
    scaled = rank_scale(seed, n)
    assert orthogonality_graph(split_ranks(scaled)) == spread
    assert orthogonality_graph(split_ranks(parse(serialize(scaled)))) == spread


@pytest.mark.parametrize("shift", [0, 1, 5])
def test_split_graph_matches_the_reference_whatever_the_block_layout(shift):
    # rank-2 projectors of d6-21-7's rays, ray i in block 0 with ray
    # i + shift in block 1: only shift 0 is the layout of a block copy.
    # Every ray has the same support window, so only the entries tell, and
    # for shift != 0 the blocks have different graphs.
    rays = [p.span[0] for p in catalog.seed_set("d6-21-7").projectors.values()]
    s = KSSet(12, {
        f"p{i}": Projector((u.padded(0, 6), rays[(i + shift) % 21].padded(6, 0)))
        for i, u in enumerate(rays)}, [])
    split = split_ranks(s)
    assert orthogonality_graph(split) == reference_graph(split)


def test_split_of_a_rank1_set_is_the_set():
    seed = catalog.seed_set("d10-39-9")
    s = split_ranks(seed)
    assert serialize(s) == serialize(seed)
    assert orthogonality_graph(s) == orthogonality_graph(seed)


# The ceg outputs of _CEG_CASES in which _assemble identifies a subspace, so
# that fewer than 2R + 3 projectors remain.
_CEG_IDENTIFYING = {
    "ceg(d4-18-9, 5)", "ceg(d4-18-9, 7)", "ceg(rank_scale(d4-18-9, 2), 9)",
    "ceg(d5-29-16, 9)", "ceg(split_ranks(rank_scale(d4-18-9, 2)), 13)",
}


@pytest.mark.parametrize("chain", _CEG_CASES)
def test_ceg_copies_keep_the_operand_graph(chain):
    # each copy of ceg(S, d) is S shifted by 0 or by d - dim S, so unless a
    # subspace is identified, the output's graph restricted to the first R
    # or to the next R projectors is S's graph; a fresh copy parsed from
    # the set file has the same graph either way
    operand = build_chain(chain[len("ceg("):chain.rindex(",")])
    s = build_chain(chain)
    r = operand.n_projectors
    assert (s.n_projectors < 2 * r + 3) == (chain in _CEG_IDENTIFYING)
    graph = orthogonality_graph(s)
    assert graph == orthogonality_graph(parse(serialize(s)))
    if chain not in _CEG_IDENTIFYING:
        own, copy = orthogonality_graph(operand), (1 << r) - 1
        assert tuple(m & copy for m in graph[:r]) == own
        assert tuple(m >> r & copy for m in graph[r:2 * r]) == own


_entry_values = st.integers(min_value=-6, max_value=6)


@st.composite
def _random_rays(draw, dimension=4):
    values = draw(
        st.lists(_entry_values, min_size=dimension, max_size=dimension).filter(
            lambda vs: any(vs)
        )
    )
    return make_ray(*values)


@given(_random_rays(), _random_rays())
@settings(max_examples=100)
def test_inner_conjugate_symmetry_random(u, v):
    assert inner(u, v) == inner(v, u).conj()


@given(_random_rays())
@settings(max_examples=100)
def test_inner_self_real_random(u):
    n = inner(u, u)
    assert not n.is_zero()
    assert n.conj() == n


@given(_random_rays(), st.integers(min_value=1, max_value=23))
@settings(max_examples=100)
def test_ray_equal_random_unit_scale(v, k):
    scaled = Ray(tuple(zeta(k) * e for e in v.entries))
    assert _ray_equal(v, scaled)


def test_ksset_equality_ignores_context_order(s18):
    clone = KSSet(
        s18.dimension,
        dict(s18.projectors),
        [tuple(reversed(c)) for c in s18.contexts],
    )
    assert clone == s18


# -- packed inner-product kernel -------------------------------------------


def _reference_inner(u: Ray, v: Ray) -> CycNum:
    acc = ZERO
    for a, b in zip(u.entries, v.entries):
        acc = acc + a.conj() * b
    return acc


_small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_huge = st.integers(min_value=-(2**40), max_value=2**40)


def _scalars(coeffs):
    return st.lists(coeffs, min_size=8, max_size=8).map(CycNum.from_coeffs)


@st.composite
def _field_rays(draw, dimension=3):
    # rays with huge coefficients push the product of L1 norms past the
    # packing bound, so the fallback loop runs as well as the packed kernel
    coeffs = st.one_of(_small, _huge) if draw(st.booleans()) else _small
    entries = st.one_of(st.just(ZERO), _scalars(coeffs))
    return Ray(draw(st.lists(entries, min_size=dimension, max_size=dimension)))


def _reference_pack(ray: Ray) -> tuple:
    """(_vals, _conjs, _lcm, _norm1) packed from every entry, zeros too."""
    l = lcm(*(e.den for e in ray.entries))
    vals = tuple(pack(e) * (l // e.den) for e in ray.entries)
    conjs = tuple(pack(e.conj()) * (l // e.den) for e in ray.entries)
    norm1 = sum((l // e.den) * sum(map(abs, e.num)) for e in ray.entries)
    return vals, conjs, l, norm1


@given(_field_rays(dimension=6))
@settings(max_examples=100)
def test_pack_of_supported_entries_matches_packing_every_entry(ray):
    # the reference sliced to the window, first to last nonzero entry
    vals, conjs, l, norm1 = _reference_pack(ray)
    lo = min(ray.support, default=0)
    hi = max(ray.support, default=-1) + 1
    assert ray._lo == lo
    assert (ray._vals, ray._conjs, ray._lcm, ray._norm1) == (
        vals[lo:hi], conjs[lo:hi], l, norm1)


@given(_field_rays(), _field_rays())
@settings(max_examples=100)
def test_inner_matches_reference_sum(u, v):
    assert inner(u, v) == _reference_inner(u, v)


@given(_field_rays(dimension=2), _scalars(_small), _scalars(_small))
@settings(max_examples=50)
def test_inner_zero_on_constructed_orthogonal_pairs(u, c, t):
    # (x, y) is orthogonal to c (-conj(y), conj(x)); the third coordinate is
    # outside the second ray's support
    x, y = u.entries
    a = Ray((x, y, t))
    b = Ray((-c * y.conj(), c * x.conj(), ZERO))
    assert inner(a, b) == ZERO
    assert inner(b, a) == ZERO
    assert inner(a, a) == _reference_inner(a, a)


def test_inner_takes_both_sides_of_the_packing_bound():
    small = Ray((CycNum((1, 2, 0, 0, -3, 0, 0, 1), 5), SQRT2, OMEGA3))
    big = Ray((CycNum((2**31, 0, 0, 0, 0, 0, 0, -(2**31))), OMEGA3, zeta(5)))
    assert 16 * small._norm1 * small._norm1 < PACK_BASE
    assert 16 * big._norm1 * big._norm1 >= PACK_BASE
    for u in (small, big):
        for v in (small, big):
            assert inner(u, v) == _reference_inner(u, v)


# -- the orthogonality predicate -------------------------------------------


def _residue_zero_pair() -> tuple[Ray, Ray]:
    """Rays with the nonzero product X z^7 - z^4 + 1, X = 2^64, whose image
    X^8 - X^4 + 1 = N has residue 0: outside the packing bound."""
    one, big = CycNum.from_rational(1), CycNum.from_rational(2**32)
    return Ray((big, one, one)), Ray((big * zeta(7), -zeta(4), one))


@given(_field_rays(), _field_rays())
@example(*_residue_zero_pair())
@settings(max_examples=60)
def test_orthogonal_agrees_with_inner(u, v):
    assert orthogonal(u, v) == inner(u, v).is_zero()


_any_scalars = _scalars(st.one_of(_small, _huge))


@given(_field_rays(dimension=2), _any_scalars, _scalars(_small), _any_scalars)
@settings(max_examples=60)
def test_orthogonal_on_constructed_pairs_and_their_perturbations(u, c, t, e):
    # (x, y) is orthogonal to c (-conj(y), conj(x)).  The packed sum of such
    # a pair is a multiple of N, and not 0 once a product needs reducing.
    # Adding e to one entry leaves a pair that inner decides.
    x, y = u.entries
    a = Ray((x, y, t))
    b = Ray((-c * y.conj(), c * x.conj(), ZERO))
    assert orthogonal(a, b) and orthogonal(b, a)
    moved = Ray((b.entries[0] + e, b.entries[1], ZERO))
    assert orthogonal(a, moved) == inner(a, moved).is_zero()
    assert orthogonal(moved, a) == inner(moved, a).is_zero()


def test_orthogonal_takes_both_sides_of_the_packing_bound():
    # only the bound keeps the residue of this pair from deciding
    u, v = _residue_zero_pair()
    assert 16 * u._norm1 * v._norm1 >= PACK_BASE
    assert sum(map(mul, u._conjs, v._vals)) % PACK_MOD == 0
    assert not inner(u, v).is_zero()
    assert not orthogonal(u, v)
    # an orthogonal pair with irrational entries on each side of the bound
    one, x, y = CycNum.from_rational(1), SQRT2 + zeta(1), OMEGA3 - SQRT3
    for c in (CycNum((0, 1, 0, 0, 0, 1, 0, 0), 3),
              CycNum((2**40, 0, -(2**40), 0, 0, 0, 0, 1))):
        cx, cy = c * x, c * y
        p, q = Ray((cx, cy, one)), Ray((-c * cy.conj(), c * cx.conj(), ZERO))
        inside = 16 * p._norm1 * q._norm1 < PACK_BASE
        assert inside == (c.den == 3)
        assert sum(map(mul, p._conjs, q._vals)) != 0
        assert orthogonal(p, q) and inner(p, q).is_zero()


# -- padded rays share their source's packing --------------------------------


def _pad(ray: Ray, prepend: int, append: int) -> Ray:
    """The padded ray made from its entries, so packed anew."""
    return Ray((ZERO,) * prepend + ray.entries + (ZERO,) * append)


def _assert_same_packing(padded: Ray, fresh: Ray) -> None:
    assert padded.entries == fresh.entries
    assert padded.support == fresh.support
    assert (padded._lcm, padded._norm1) == (fresh._lcm, fresh._norm1)
    if fresh.support:  # a zero ray has an empty window wherever it starts
        assert (padded._lo, padded._vals, padded._conjs) == (
            fresh._lo, fresh._vals, fresh._conjs)
    assert model._subspace_key(Projector((padded,))) == model._subspace_key(
        Projector((fresh,)))


def _assert_same_products(pairs) -> None:
    """Each (padded, fresh) ray pair against each: the packed products of
    the windows agree with the products of the entries."""
    for pu, fu in pairs:
        for pv, fv in pairs:
            assert inner(pu, pv) == inner(fu, fv) == _reference_inner(fu, fv)
            assert orthogonal(pu, pv) == orthogonal(fu, fv) == inner(fu, fv).is_zero()


@given(_field_rays(), _field_rays(dimension=2), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 5), st.integers(0, 2))
@settings(max_examples=100)
def test_padded_ray_matches_the_ray_of_its_entries(u, v, a, b, c, again):
    # v's window starts before, at or after u's, or misses it, in the
    # padded dimension d; padding a padded ray pads its source again
    d = a + 3 + b
    c = min(c, d - 2)
    pu, pv = u.padded(a, b), v.padded(c, d - 2 - c)
    fu, fv = _pad(u, a, b), _pad(v, c, d - 2 - c)
    twice = pu.padded(again, 1)
    for padded, fresh in ((pu, fu), (pv, fv), (twice, _pad(u, a + again, b + 1))):
        _assert_same_packing(padded, fresh)
    _assert_same_products([(pu, fu), (pv, fv)])


def _bound_pairs() -> list[tuple[Ray, Ray]]:
    """An orthogonal pair inside the packing bound, and the pair outside it
    whose nonzero product has residue 0."""
    one, x, y = CycNum.from_rational(1), SQRT2 + zeta(1), OMEGA3 - SQRT3
    c = CycNum((0, 1, 0, 0, 0, 1, 0, 0), 3)
    cx, cy = c * x, c * y
    inside = Ray((cx, cy, one)), Ray((-c * cy.conj(), c * cx.conj(), ZERO))
    return [inside, _residue_zero_pair()]


@pytest.mark.parametrize("shift", range(-4, 5))
@pytest.mark.parametrize("pair", range(2))
def test_padded_products_keep_both_sides_of_the_packing_bound(pair, shift):
    # v's window starts shift entries after u's: before, at, after, and
    # disjoint once it has moved past u's last nonzero entry
    u, v = _bound_pairs()[pair]
    d = 3 + abs(shift)
    a, c = max(0, -shift), max(0, shift)
    pu, pv = u.padded(a, d - 3 - a), v.padded(c, d - 3 - c)
    fu, fv = _pad(u, a, d - 3 - a), _pad(v, c, d - 3 - c)
    assert (16 * pu._norm1 * pv._norm1 < PACK_BASE) == (pair == 0)
    _assert_same_packing(pu, fu)
    _assert_same_packing(pv, fv)
    _assert_same_products([(pu, fu), (pv, fv)])
    if shift == 0:
        assert orthogonal(pu, pv) == (pair == 0)


def test_projector_equal_plane_in_two_complex_bases():
    # a1 and a2 have equal norms, so b1 = a1 + t a2 and b2 = -conj(t) a1 + a2
    # are an orthogonal basis of the same plane
    x, y, t = CycNum.from_rational(1), OMEGA3, SQRT2 + zeta(1)
    a1 = (x, y, ZERO, ZERO)
    a2 = (-y.conj(), x.conj(), ZERO, ZERO)
    b1 = tuple(p + t * q for p, q in zip(a1, a2))
    b2 = tuple(-t.conj() * p + q for p, q in zip(a1, a2))
    p = Projector((Ray(a1), Ray(a2)))
    q = Projector((Ray(b1), Ray(b2)))
    assert inner(q.span[0], q.span[1]).is_zero()
    assert p.support == q.support
    assert projector_equal(p, q)
    assert projector_equal(q, p)


def test_projector_equal_false_for_planes_with_same_support():
    p = Projector((make_ray(1, 0, 1), make_ray(0, 1, 0)))
    q = Projector((make_ray(1, 0, -1), make_ray(0, 1, 0)))
    r = Projector((Ray((OMEGA3, ZERO, CycNum.from_rational(1))), make_ray(0, 1, 0)))
    assert p.support == q.support == r.support
    assert not projector_equal(p, q)
    assert not projector_equal(p, r)
    assert not projector_equal(r, q)
