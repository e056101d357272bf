"""Model-layer tests: inner products, projective equality, subspace
comparisons, validation and the symbol calculus."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_set, make_ray
from ksets.cyclo import OMEGA3, PACK_BASE, SQRT2, ZERO, CycNum, zeta
from ksets.errors import DimensionMismatch
from ksets.model import (
    KSSet,
    Projector,
    Ray,
    inner,
    orthogonality_graph,
    projector_equal,
    projector_orthogonal,
    ray_equal,
    symbol,
    validate,
)


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
    with pytest.raises(DimensionMismatch, match="dimensions 2 != 3"):
        ray_equal(u, v)
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


def test_ray_equal_scalar_multiple():
    assert ray_equal(make_ray(1, 0, -1), make_ray(2, 0, -2))
    assert not ray_equal(make_ray(1, 0, -1), make_ray(1, 0, 1))


def test_ray_equal_unit_modulus_scale():
    v = make_ray(1, 2, -1)
    w = Ray(tuple(zeta(4) * e for e in v.entries))
    assert ray_equal(v, w)


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
    for ctx in s18.contexts:
        for i, p in enumerate(ctx):
            for q in ctx[i + 1:]:
                assert q in graph[p]


def test_graph_18_9_degrees(s18):
    # brute-force count over all 153 pairs happens inside the graph builder;
    # every vertex has two contexts x three partners, with one shared pair
    graph = orthogonality_graph(s18)
    assert all(len(nbrs) >= 6 for nbrs in graph.values())
    n_edges = sum(len(nbrs) for nbrs in graph.values()) // 2
    assert n_edges == 63


def test_graph_single_context_d2():
    g = orthogonality_graph(basis_set(2))
    assert g == {"1": frozenset({"2"}), "2": frozenset({"1"})}


def test_graph_includes_non_context_pairs(s18):
    # orthogonal rays that never share a context still get an edge: the
    # 18-ray set has 63 edges but only 54 co-context pairs
    graph = orthogonality_graph(s18)
    co = set()
    for ctx in s18.contexts:
        for i, p in enumerate(ctx):
            for q in ctx[i + 1:]:
                co.add(frozenset((p, q)))
    edges = {
        frozenset((p, q)) for p, nbrs in graph.items() for q in nbrs
    }
    assert len(co) == 54
    assert len(edges) == 63
    assert co < edges


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
    assert ray_equal(v, scaled)


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
    for ray in (small, big):
        ray._pack()
    assert 16 * small._norm1 * small._norm1 < PACK_BASE
    assert 16 * big._norm1 * big._norm1 >= PACK_BASE
    for u in (small, big):
        for v in (small, big):
            assert inner(u, v) == _reference_inner(u, v)


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
