"""Data model for rays, general-rank projectors, contexts and whole sets.

Rays are stored unnormalized; every subspace decision (orthogonality,
equality, completeness) is made with exact field arithmetic, so there is
never a tolerance anywhere in the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm, prod
from operator import mul

from .cyclo import PACK_BASE, PACK_MOD, CycNum, ZERO, pack, unpack
from .errors import DimensionMismatch, ValidationError


class Ray:
    """A nonzero vector regarded projectively: scalar multiples are equal."""

    __slots__ = (
        "entries", "support", "_canon", "_vals", "_conjs", "_lcm", "_norm1"
    )

    def __init__(self, entries):
        self.entries: tuple[CycNum, ...] = tuple(entries)
        self.support = frozenset(
            i for i, e in enumerate(self.entries) if not e.is_zero()
        )
        self._canon = None
        self._vals = None

    def _pack(self) -> None:
        """Cache the packed image (see cyclo.pack) of the entries scaled by
        the lcm of their denominators, of their conjugates, that lcm and the
        L1 norm of the scaled integer numerators."""
        l = lcm(*(e.den for e in self.entries))
        vals, conjs, norm1 = [], [], 0
        for e in self.entries:
            m = l // e.den
            v = pack(e) * m
            vals.append(v)
            conjs.append(v if e.israt else pack(e.conj()) * m)
            norm1 += m * sum(map(abs, e.num))
        self._vals = tuple(vals)
        self._conjs = self._vals if conjs == vals else tuple(conjs)
        self._lcm = l
        self._norm1 = norm1

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.support

    def canonical(self) -> tuple[CycNum, ...]:
        """Representative with the first nonzero entry scaled to 1."""
        if self._canon is None:
            lead = min(self.support)
            scale = self.entries[lead].inv()
            self._canon = tuple(e * scale for e in self.entries)
        return self._canon

    def __eq__(self, other) -> bool:
        return isinstance(other, Ray) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        from .cyclo import render_scalar

        return "Ray(" + " ".join(render_scalar(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class Projector:
    """A rank-r subspace given by r mutually orthogonal nonzero rays."""

    span: tuple[Ray, ...]

    @property
    def rank(self) -> int:
        return len(self.span)

    @property
    def dimension(self) -> int:
        return self.span[0].dimension

    @cached_property
    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for ray in self.span:
            out |= ray.support
        return out


Context = tuple[str, ...]


@dataclass(eq=False)
class KSSet:
    """A dimension, a table of identified projectors and a context list."""

    dimension: int
    projectors: dict[str, Projector]
    contexts: list[Context]
    name: str | None = None
    _validated: bool = field(default=False, repr=False)
    _graph: dict[str, frozenset[str]] | None = field(default=None, repr=False)

    @property
    def n_projectors(self) -> int:
        return len(self.projectors)

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    def multiplicities(self) -> dict[str, int]:
        counts = {pid: 0 for pid in self.projectors}
        for ctx in self.contexts:
            for pid in ctx:
                counts[pid] += 1
        return counts

    def __eq__(self, other) -> bool:
        if not isinstance(other, KSSet):
            return NotImplemented
        if self.dimension != other.dimension:
            return False
        if self.projectors.keys() != other.projectors.keys():
            return False
        for pid, proj in self.projectors.items():
            if proj.span != other.projectors[pid].span:
                return False
        return [frozenset(c) for c in self.contexts] == [
            frozenset(c) for c in other.contexts
        ]


def inner(u: Ray, v: Ray) -> CycNum:
    """Hermitian inner product, conjugate-linear in the first argument.

    Computed from the packed images (see cyclo.pack) when 16 |u|_1 |v|_1 < X,
    with |.|_1 the L1 norm of the scaled integer numerators.  Each z^m
    reduces to at most two terms +-1, so every reduced coefficient of the
    scaled result is at most 2 |u|_1 |v|_1 < X/8 in absolute value, inside
    the X/4 under which unpack is exact.  Larger entries take the
    field-arithmetic loop.
    """
    # Pairwise checks compare entry counts: they run once per pair, and the
    # dimension properties cost more than the comparison itself.
    if len(u.entries) != len(v.entries):
        raise DimensionMismatch(f"dimensions {len(u.entries)} != {len(v.entries)}")
    if u._vals is None:
        u._pack()
    if v._vals is None:
        v._pack()
    if 16 * u._norm1 * v._norm1 < PACK_BASE:
        t = sum(map(mul, u._conjs, v._vals)) % PACK_MOD
        return unpack(t, u._lcm * v._lcm) if t else ZERO
    acc = ZERO
    common = u.support & v.support
    for i in common:
        acc = acc + u.entries[i].conj() * v.entries[i]
    return acc


def ray_equal(u: Ray, v: Ray) -> bool:
    """True when the rays are proportional (the same projective point)."""
    if len(u.entries) != len(v.entries):
        raise DimensionMismatch(f"dimensions {len(u.entries)} != {len(v.entries)}")
    if u.support != v.support:
        return False
    return u.canonical() == v.canonical()


def projector_orthogonal(p: Projector, q: Projector) -> bool:
    """True when every span ray of p is orthogonal to every span ray of q."""
    dp, dq = len(p.span[0].entries), len(q.span[0].entries)
    if dp != dq:
        raise DimensionMismatch(f"dimensions {dp} != {dq}")
    for u in p.span:
        for v in q.span:
            if u.support & v.support and not inner(u, v).is_zero():
                return False
    return True


def _image_outside(u: Ray, basis: tuple[Ray, ...]) -> bool:
    """True when the image mod N of the division-free projection residual
    (prod n_k) u - sum_k <q_k,u> (prod_{j!=k} n_j) q_k, with n_k = <q_k,q_k>,
    is nonzero.  That proves u is outside span(basis) for an orthogonal
    basis; a zero image decides nothing."""
    for ray in (u, *basis):
        if ray._vals is None:
            ray._pack()
    norms = [sum(map(mul, q._conjs, q._vals)) % PACK_MOD for q in basis]
    coefs = [
        sum(map(mul, q._conjs, u._vals))
        * prod(norms[:k] + norms[k + 1:])
        % PACK_MOD
        for k, q in enumerate(basis)
    ]
    total = prod(norms) % PACK_MOD
    for i, a in enumerate(u._vals):
        r = total * a - sum(c * q._vals[i] for c, q in zip(coefs, basis))
        if r % PACK_MOD:
            return True
    return False


def _residual(u: Ray, basis: tuple[Ray, ...]) -> bool:
    """True when u has zero residual after projection onto span(basis)."""
    if _image_outside(u, basis):
        return False
    entries = list(u.entries)
    for q in basis:
        overlap = ZERO
        for i in q.support:
            if not entries[i].is_zero():
                overlap = overlap + q.entries[i].conj() * entries[i]
        if overlap.is_zero():
            continue
        coef = overlap * inner(q, q).inv()
        for i in q.support:
            entries[i] = entries[i] - coef * q.entries[i]
    return all(e.is_zero() for e in entries)


def projector_equal(p: Projector, q: Projector) -> bool:
    """True when p and q are the same subspace."""
    dp, dq = len(p.span[0].entries), len(q.span[0].entries)
    if dp != dq:
        raise DimensionMismatch(f"dimensions {dp} != {dq}")
    if p.rank != q.rank:
        return False
    if p.rank == 1:
        return ray_equal(p.span[0], q.span[0])
    if p.support != q.support:
        return False
    return all(_residual(u, q.span) for u in p.span)


@dataclass
class ValidationReport:
    """Outcome of structural validation; empty issue list means valid."""

    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, msg: str) -> None:
        self.issues.append(msg)

    def __str__(self) -> str:
        return "valid" if self.ok else "\n".join(self.issues)


def validate(s: KSSet) -> ValidationReport:
    """Check every structural invariant and report each violation."""
    report = ValidationReport()
    if s.dimension < 1:
        report.add(f"dimension {s.dimension} < 1")
        return report
    for pid, proj in s.projectors.items():
        if not proj.span:
            report.add(f"projector {pid}: empty span")
            continue
        for ray in proj.span:
            if ray.dimension != s.dimension:
                report.add(
                    f"projector {pid}: ray of dimension {ray.dimension} "
                    f"in a dimension-{s.dimension} set"
                )
            if ray.is_zero():
                report.add(f"projector {pid}: zero ray")
        span = proj.span
        for i in range(len(span)):
            for j in range(i + 1, len(span)):
                if span[i].support & span[j].support and not inner(
                    span[i], span[j]
                ).is_zero():
                    report.add(f"projector {pid}: span rays {i} and {j} not orthogonal")
    if not report.ok:
        return report

    # No two projectors may describe the same subspace.  Rank-1 projectors
    # are compared through canonical representatives; higher ranks fall back
    # to exact projection within (rank, support) buckets.
    seen_rays: dict[tuple, str] = {}
    buckets: dict[tuple[int, frozenset[int]], list[str]] = {}
    for pid, proj in s.projectors.items():
        if proj.rank == 1:
            key = proj.span[0].canonical()
            if key in seen_rays:
                report.add(f"projectors {seen_rays[key]} and {pid}: equal subspaces")
            else:
                seen_rays[key] = pid
        else:
            buckets.setdefault((proj.rank, proj.support), []).append(pid)
    for ids in buckets.values():
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if projector_equal(s.projectors[ids[i]], s.projectors[ids[j]]):
                    report.add(
                        f"projectors {ids[i]} and {ids[j]}: equal subspaces"
                    )

    seen_ctx: dict[frozenset[str], int] = {}
    for ci, ctx in enumerate(s.contexts):
        missing = [pid for pid in ctx if pid not in s.projectors]
        if missing:
            report.add(f"context {ci}: unknown members {', '.join(missing)}")
            continue
        if len(set(ctx)) != len(ctx):
            report.add(f"context {ci}: repeated member")
            continue
        ranksum = sum(s.projectors[pid].rank for pid in ctx)
        if ranksum != s.dimension:
            report.add(
                f"context {ci}: rank sum {ranksum} != dimension {s.dimension}"
            )
        for i in range(len(ctx)):
            for j in range(i + 1, len(ctx)):
                if not projector_orthogonal(
                    s.projectors[ctx[i]], s.projectors[ctx[j]]
                ):
                    report.add(
                        f"context {ci}: members {ctx[i]} and {ctx[j]} "
                        "not orthogonal"
                    )
        key = frozenset(ctx)
        if key in seen_ctx:
            report.add(f"contexts {seen_ctx[key]} and {ci}: equal member sets")
        else:
            seen_ctx[key] = ci
    if report.ok:
        s._validated = True
    return report


def ensure_valid(s: KSSet) -> None:
    """Raise ValidationError unless s passes validation (cached)."""
    if s._validated:
        return
    report = validate(s)
    if not report.ok:
        raise ValidationError(report)


@dataclass(frozen=True)
class Symbol:
    """Compact and detailed classification of a set's projectors/contexts.

    Ray classes count projectors sharing (rank, multiplicity); context
    classes count contexts sharing a member count.
    """

    compact: str
    detailed: str
    ray_classes: tuple[tuple[int, int, int], ...]  # (count, rank, multiplicity)
    context_classes: tuple[tuple[int, int, int], ...]  # (count, size, dimension)


def symbol(s: KSSet) -> Symbol:
    """Classify projectors by (rank, multiplicity) and contexts by size.

    Ray classes are sorted by descending rank then descending multiplicity;
    context classes by ascending member count, matching the standard
    renderings of these symbols.
    """
    ensure_valid(s)
    mult = s.multiplicities()
    ray_groups: dict[tuple[int, int], int] = {}
    for pid, proj in s.projectors.items():
        key = (proj.rank, mult[pid])
        ray_groups[key] = ray_groups.get(key, 0) + 1
    ray_classes = tuple(
        (count, rank, m)
        for (rank, m), count in sorted(
            ray_groups.items(), key=lambda kv: (-kv[0][0], -kv[0][1])
        )
    )
    ctx_groups: dict[int, int] = {}
    for ctx in s.contexts:
        ctx_groups[len(ctx)] = ctx_groups.get(len(ctx), 0) + 1
    context_classes = tuple(
        (count, size, s.dimension) for size, count in sorted(ctx_groups.items())
    )
    ray_part = " ".join(f"{c}^{r}_{m}" for c, r, m in ray_classes)
    ctx_part = " ".join(f"{c}^{d}_{size}" for c, size, d in context_classes)
    detailed = f"{ray_part} - {ctx_part}"
    compact = f"{s.n_projectors}-{s.n_contexts}"
    return Symbol(compact, detailed, ray_classes, context_classes)


def orthogonality_graph(s: KSSet) -> dict[str, frozenset[str]]:
    """Adjacency of the full orthogonality relation over projector ids,
    including pairs that never share a context."""
    ensure_valid(s)
    if s._graph is not None:
        return s._graph
    ids = list(s.projectors)
    # Neighbour lists (each pair is visited once), turned into frozensets one
    # at a time: a dense graph on a few hundred projectors holds megabytes
    # of hash tables, so the lists and the sets never coexist in full.
    adj: dict[str, list[str]] = {pid: [] for pid in ids}
    projs = [s.projectors[pid] for pid in ids]
    for i in range(len(ids)):
        pi = projs[i]
        for j in range(i + 1, len(ids)):
            pj = projs[j]
            if not (pi.support & pj.support) or projector_orthogonal(pi, pj):
                adj[ids[i]].append(ids[j])
                adj[ids[j]].append(ids[i])
    s._graph = {pid: frozenset(adj.pop(pid)) for pid in ids}
    return s._graph
