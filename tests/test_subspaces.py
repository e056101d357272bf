"""Subspace keys, the shared de-duplication index and the bitmask
orthogonality graph, each checked against pairwise exact comparison, and the
span-membership test that confirms a key match."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ray
from oracles import reference_ray_equal
from ksets import catalog, construct, model
from ksets.cyclo import OMEGA3, SQRT2, SQRT3, ZERO, CycNum, zeta
from ksets.model import (
    KSSet,
    Projector,
    Ray,
    SubspaceIndex,
    inner,
    orthogonality_graph,
    projector_equal,
    projector_orthogonal,
    validate,
)

# Sets whose projectors the tests draw from: rank 1 with real and complex
# entries, rank 2 from the catalog and from rank scaling, mixed ranks from
# ceg, and the 49 rank-8 projectors of the d=24 table row.
_SOURCES = (
    "d4-18-9",
    "d6-21-7",
    "d8-30-9",
    "d10-30-9",
    "rank_scale(d4-18-9, 2)",
    "ceg(rank_scale(d4-18-9-rot, 2), 11)",
    "rank_scale(d3-49-36, 8)",
)


@lru_cache(maxsize=None)
def _source(name: str) -> KSSet:
    return construct.build_chain(name)


def _brute_force_graph(s: KSSet) -> tuple[int, ...]:
    projs = list(s.projectors.values())
    return tuple(
        sum(1 << j for j, q in enumerate(projs)
            if j != i and projector_orthogonal(p, q))
        for i, p in enumerate(projs)
    )


@st.composite
def _subsets(draw):
    """A set without contexts over a random subset of a source set's
    projectors, in random order."""
    s = _source(draw(st.sampled_from(_SOURCES)))
    ids = draw(st.lists(st.sampled_from(sorted(s.projectors)), unique=True,
                        min_size=1, max_size=40))
    return KSSet(s.dimension, {pid: s.projectors[pid] for pid in ids}, [])


@given(_subsets())
@settings(max_examples=60, deadline=None)
def test_bitmask_graph_equals_pairwise_check(s):
    graph = orthogonality_graph(s)
    assert graph == _brute_force_graph(s)
    assert _brute_force_graph(s) == graph


@pytest.mark.parametrize("name", _SOURCES)
def test_bitmask_graph_equals_pairwise_check_on_whole_sets(name):
    s = _source(name)
    graph = orthogonality_graph(s)
    assert graph == _brute_force_graph(s)
    assert len(graph) == s.n_projectors


def test_graph_is_the_cached_tuple_of_masks(s18):
    graph = orthogonality_graph(s18)
    assert type(graph) is tuple and len(graph) == 18
    assert all(type(m) is int for m in graph)
    assert orthogonality_graph(s18) is graph


# -- the same subspace in other bases --------------------------------------


def _scale(ray: Ray, c: CycNum) -> Ray:
    return Ray(tuple(c * e for e in ray.entries))


def _mix(u: Ray, v: Ray, a: CycNum, b: CycNum) -> tuple[Ray, Ray]:
    """An orthogonal basis of span(u, v) for orthogonal u, v and (a, b) not
    both zero: a u + b v and conj(b) |v|^2 u - conj(a) |u|^2 v."""
    nu, nv = inner(u, u), inner(v, v)
    first = tuple(a * x + b * y for x, y in zip(u.entries, v.entries))
    second = tuple(
        b.conj() * nv * x - a.conj() * nu * y for x, y in zip(u.entries, v.entries)
    )
    return Ray(first), Ray(second)


_UNITS = (
    CycNum.from_rational(2), zeta(1), SQRT2, SQRT3, OMEGA3,
    CycNum.from_rational(-1), zeta(7) + CycNum.from_rational(3),
)
_COEFS = st.sampled_from((ZERO, CycNum.from_rational(1), CycNum.from_rational(-2),
                          zeta(1), SQRT2, OMEGA3 + CycNum.from_rational(1)))


@st.composite
def _rebased(draw):
    """(projector of rank >= 2 from a source set, the same subspace in
    another orthogonal basis)."""
    s = _source(draw(st.sampled_from(_SOURCES[2:])))
    pid = draw(st.sampled_from(sorted(p for p, q in s.projectors.items() if q.rank > 1)))
    span = list(s.projectors[pid].span)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k, l = draw(st.lists(st.integers(0, len(span) - 1), min_size=2,
                             max_size=2, unique=True))
        a, b = draw(_COEFS), draw(_COEFS)
        if a.is_zero() and b.is_zero():
            a = CycNum.from_rational(1)
        span[k], span[l] = _mix(span[k], span[l], a, b)
    span = [_scale(ray, draw(st.sampled_from(_UNITS))) for ray in span]
    span = draw(st.permutations(span))
    return s.projectors[pid], Projector(tuple(span))


@given(_rebased())
@settings(max_examples=60, deadline=None)
def test_other_orthogonal_basis_is_the_same_subspace(pair):
    p, q = pair
    for i, j in itertools.combinations(range(q.rank), 2):
        assert inner(q.span[i], q.span[j]).is_zero()
    assert model._subspace_key(p) == model._subspace_key(q)
    assert projector_equal(p, q)
    index = SubspaceIndex()
    assert index.add("p", p) == "p"
    assert index.add("q", q) == "p"
    assert list(index.table) == ["p"]
    dim = len(p.span[0].entries)
    report = validate(KSSet(dim, {"p": p, "q": q}, []))
    assert report.issues == ["projectors p and q: equal subspaces"]


def test_plane_of_equal_norm_rays_as_sum_and_difference():
    # |u| = |v|, so (u + v, u - v) is an orthogonal basis of span(u, v)
    u = Ray((CycNum.from_rational(1), OMEGA3, ZERO, ZERO))
    v = Ray((ZERO, ZERO, SQRT2 * zeta(3), ZERO))
    assert inner(u, u) == inner(v, v)
    plus = Ray(tuple(x + y for x, y in zip(u.entries, v.entries)))
    minus = Ray(tuple(x - y for x, y in zip(u.entries, v.entries)))
    p = Projector((u, v))
    bases = [Projector((plus, minus)), Projector((minus, plus))]
    for c in (CycNum.from_rational(2), zeta(1), SQRT2):
        bases.append(Projector((_scale(u, c), v)))
        bases.append(Projector((_scale(plus, c), _scale(minus, c * c))))
    s = KSSet(4, {"p": p, **{f"q{i}": q for i, q in enumerate(bases)}}, [])
    report = validate(s)
    assert report.issues == [
        f"projectors p and q{i}: equal subspaces" for i in range(len(bases))
    ]
    index = SubspaceIndex()
    assert [index.add(pid, q) for pid, q in s.projectors.items()] == ["p"] * len(s.projectors)


def test_distinct_subspaces_with_equal_rank_and_support_are_kept():
    s = _source("rank_scale(d3-49-36, 8)")
    projs = list(s.projectors.values())
    shapes = Counter((p.rank, p.support) for p in projs)
    assert max(shapes.values()) >= 20
    index = SubspaceIndex()
    assert [index.add(pid, p) for pid, p in s.projectors.items()] == list(s.projectors)
    assert len({model._subspace_key(p) for p in projs}) == len(projs)
    planes = {
        "a": Projector((make_ray(1, 0, 1), make_ray(0, 1, 0))),
        "b": Projector((make_ray(1, 0, -1), make_ray(0, 1, 0))),
        "c": Projector((Ray((OMEGA3, ZERO, CycNum.from_rational(1))), make_ray(0, 1, 0))),
    }
    assert validate(KSSet(3, planes, [])).ok


def test_key_match_alone_merges_nothing(monkeypatch):
    # every projector of rank >= 2 gets one key: only projector_equal decides
    real = model._subspace_key
    monkeypatch.setattr(
        model, "_subspace_key", lambda p: real(p) if p.rank == 1 else "same")
    # fresh copies: the set's own projectors keep the keys validation gave them
    s = _source("rank_scale(d4-18-9, 2)")
    projs = {pid: Projector(p.span) for pid, p in s.projectors.items()}
    index = SubspaceIndex()
    assert [index.add(pid, p) for pid, p in projs.items()] == list(projs)
    _, q = _rebased_pair()
    assert index.add("again", q) == next(iter(projs))


def _rebased_pair() -> tuple[Projector, Projector]:
    s = _source("rank_scale(d4-18-9, 2)")
    p = next(iter(s.projectors.values()))
    u, v = _mix(*p.span, SQRT2, zeta(5))
    return p, Projector((v, u))


@pytest.mark.parametrize("keyless", ["some", "all"])
def test_projectors_without_a_key_still_find_duplicates(monkeypatch, keyless):
    s = _source("rank_scale(d4-18-9, 2)")
    p, q = _rebased_pair()
    projs = dict(s.projectors)
    projs["dup"] = q
    ids = list(projs)
    first = ids[0]
    assert projs[first] is p
    # without a key: every second projector, and in turn the original and
    # its duplicate, so both directions of the fallback are taken
    for chosen in ({p}, {q}, {p, q}):
        if keyless == "some":
            drop = {id(projs[pid]) for pid in ids[1::2]} | {id(x) for x in chosen}
        else:
            drop = {id(x) for x in projs.values()}
        real = model._subspace_key
        monkeypatch.setattr(
            model, "_subspace_key", lambda r: None if id(r) in drop else real(r))
        report = validate(KSSet(s.dimension, projs, list(s.contexts)))
        assert report.issues == [f"projectors {first} and dup: equal subspaces"]
        index = SubspaceIndex()
        assert [index.add(pid, r) for pid, r in projs.items()] == ids[:-1] + [first]
        monkeypatch.setattr(model, "_subspace_key", real)


@pytest.mark.parametrize("keyless", ["stored", "later"])
def test_a_keyless_projector_meets_its_duplicate_on_fresh_copies(monkeypatch, keyless):
    # a projector computes its key once, so the patch comes before any key
    # of these fresh copies: the stored original or its later duplicate has
    # none, and the other is compared with it exactly
    s = _source("rank_scale(d4-18-9, 2)")
    _, q = _rebased_pair()
    projs = {pid: Projector(r.span) for pid, r in s.projectors.items()}
    projs["dup"] = Projector(q.span)
    first = next(iter(projs))
    drop = projs[first] if keyless == "stored" else projs["dup"]
    real = model._subspace_key
    monkeypatch.setattr(
        model, "_subspace_key", lambda r: None if r is drop else real(r))
    report = validate(KSSet(s.dimension, projs, list(s.contexts)))
    assert report.issues == [f"projectors {first} and dup: equal subspaces"]
    assert drop.key is None


def test_key_is_none_when_a_norm_is_not_a_unit(monkeypatch):
    # pow(x, -1, N) raises ValueError exactly when x shares a factor with N
    def no_inverse(base, exp, mod=None):
        if exp == -1:
            raise ValueError("base is not invertible for the given modulus")
        return pow(base, exp, mod)

    monkeypatch.setattr(model, "pow", no_inverse, raising=False)
    p, q = _rebased_pair()
    assert model._subspace_key(p) is None
    ray = Projector(p.span[:1])
    assert model._subspace_key(ray) is None
    index = SubspaceIndex()
    assert index.add("p", p) == "p" and index.add("q", q) == "p"
    assert index.add("r", ray) == "r"
    assert index.add("s", Projector((_scale(ray.span[0], SQRT2),))) == "r"


# -- span membership by Pythagoras -----------------------------------------

_ONE = CycNum.from_rational(1)


def _irrational_span(rank: int) -> Projector:
    """Mutually orthogonal rays in dimension 6 whose norms are irrational:
    4 + 2 s2, 5 - s3 and 9 + 4 s3."""
    rays = (
        Ray((_ONE + SQRT2, zeta(1), ZERO, ZERO, ZERO, ZERO)),
        Ray((ZERO, ZERO, SQRT3 + OMEGA3, _ONE, ZERO, ZERO)),
        Ray((ZERO, ZERO, ZERO, ZERO, SQRT3 + CycNum.from_rational(2), zeta(5))),
    )
    return Projector(rays[:rank])


def _other_basis(p: Projector) -> Projector:
    span = list(p.span)
    span[0], span[1] = _mix(span[0], span[1], SQRT2, zeta(5) + OMEGA3)
    if len(span) == 3:
        span[1], span[2] = _mix(span[1], span[2], SQRT3, _ONE)
        span[0], span[2] = _mix(span[0], span[2], zeta(1), OMEGA3)
    return Projector(tuple(reversed(span)))


def _perturbed(ray: Ray) -> Ray:
    """ray with 1/7 added to its first entry that is not rational."""
    entries = list(ray.entries)
    i = next(i for i, e in enumerate(entries) if not e.is_rational())
    entries[i] = entries[i] + CycNum.from_rational(Fraction(1, 7))
    return Ray(tuple(entries))


@pytest.mark.parametrize("rank", [2, 3])
def test_span_with_irrational_norms_in_another_basis(rank):
    p = _irrational_span(rank)
    q = _other_basis(p)
    for u, v in itertools.combinations(q.span, 2):
        assert inner(u, v).is_zero()
    for n in (inner(u, u) for u in p.span + q.span):
        assert not n.is_rational()
    assert p.support == q.support
    assert projector_equal(p, q) and projector_equal(q, p)
    assert all(model._in_span(u, p.span) for u in q.span)
    # one perturbed entry takes a ray out of the span, and the set it spans
    # with the others is a different subspace
    for k in range(rank):
        bad = _perturbed(q.span[k])
        assert bad.support == q.span[k].support
        assert not model._in_span(bad, p.span)
        other = Projector(q.span[:k] + (bad,) + q.span[k + 1:])
        assert not projector_equal(other, p)


@st.composite
def _ray_pairs(draw):
    """(u, v) with v a nonzero multiple of u, u with one entry changed, or
    another ray; entries in a small set of field elements with zeros."""
    values = st.sampled_from((ZERO, ZERO, _ONE, CycNum.from_rational(-2),
                              SQRT2, SQRT3 + _ONE, OMEGA3, zeta(1)))
    nonzero = st.lists(values, min_size=4, max_size=4).filter(
        lambda es: any(not e.is_zero() for e in es))
    u = Ray(draw(nonzero))
    how = draw(st.sampled_from(("scaled", "changed", "other")))
    if how == "other":
        return u, Ray(draw(nonzero))
    c = draw(values.filter(lambda e: not e.is_zero()))
    entries = [c * e for e in u.entries]
    if how == "changed":
        i = draw(st.integers(0, 3))
        entries[i] = entries[i] + draw(values)
        if all(e.is_zero() for e in entries):
            entries[i] = _ONE
    return u, Ray(tuple(entries))


@given(_ray_pairs())
@settings(max_examples=150, deadline=None)
def test_rank_one_projector_equal_agrees_with_ray_equal(pair):
    u, v = pair
    same = reference_ray_equal(u, v)
    assert projector_equal(Projector((u,)), Projector((v,))) == same


# -- one key for every rank ------------------------------------------------


@pytest.mark.parametrize("name", ["d4-18-9", "d6-21-7", "d8-34-9"])
def test_ray_keys_survive_unit_and_irrational_scalings(name):
    s = catalog.seed_set(name)
    for p in s.projectors.values():
        key = model._subspace_key(p)
        assert key[0] == 1
        for c in (CycNum.from_rational(2), zeta(1), SQRT2, SQRT3, OMEGA3):
            assert model._subspace_key(Projector((_scale(p.span[0], c),))) == key


@pytest.mark.parametrize(
    "name", [*catalog.NAMES, "split_ranks(rank_scale(d6-21-7, 4))"])
def test_keys_are_distinct_within_a_set(name):
    s = construct.build_chain(name)
    keys = [model._subspace_key(p) for p in s.projectors.values()]
    assert None not in keys
    assert len(set(keys)) == len(keys)
