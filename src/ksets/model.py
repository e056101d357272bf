"""Data model for rays, general-rank projectors, contexts and whole sets.

Rays are stored unnormalized and packed when they are made, over the window
from their first to their last nonzero entry; a zero-padded copy shares its
source's packing, and products and keys run over the windows only.  Every
subspace decision (orthogonality, equality, completeness) is made with exact
field arithmetic, so there is never a tolerance anywhere in the model.

Orthogonality is one boolean test, orthogonal: inside the packing bound of
inner it asks whether the packed residue of the product is zero, which it
is exactly when the product is, and never unpacks it.  inner is left to the
callers that need the value.  Equal subspaces are found through one hash
index, SubspaceIndex, shared by validate and the constructions.  A subspace
of any rank, a single ray included, is keyed by its rank and one residue,
w'^T P w mod N for its orthogonal projector P and two fixed probe vectors,
computed once per projector (Projector.key), and a key match is confirmed
exactly by Pythagoras: a vector lies in a span when its projection keeps
all of its norm.  Rays compare as rank-1 projectors, through
projector_equal.
The full orthogonality relation of a set is computed once, as one integer
bitmask per projector; it takes pairs with disjoint supports and pairs that
validation proved orthogonal in a shared context without a product, and
orthogonality_graph returns the cached tuple of masks.  Which projectors
share a context is read from KSSet.members() with union_of.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from math import lcm, prod
from operator import mul, or_

from .cyclo import PACK_BASE, PACK_MOD, CycNum, ZERO, pack, unpack
from .errors import DimensionMismatch, ValidationError


class Ray:
    """A nonzero vector regarded projectively: scalar multiples are equal.
    It is packed when made, over its support window, the entries _lo up to
    the last nonzero one: _vals and _conjs hold the images (cyclo.pack) of
    those entries and of their conjugates, scaled by the lcm _lcm of their
    denominators, and _norm1 the L1 norm of the scaled numerators.  A padded
    copy (padded) shares the packing and only moves _lo."""

    __slots__ = ("entries", "support", "_lo", "_vals", "_conjs", "_lcm", "_norm1")

    def __init__(self, entries):
        self.entries: tuple[CycNum, ...] = tuple(entries)
        support = [i for i, e in enumerate(self.entries) if not e.is_zero()]
        lo, hi = (support[0], support[-1] + 1) if support else (0, 0)
        l = lcm(*(self.entries[i].den for i in support))
        vals, conjs, norm1 = [0] * (hi - lo), [0] * (hi - lo), 0
        for i in support:
            e = self.entries[i]
            m = l // e.den
            v = vals[i - lo] = pack(e) * m
            conjs[i - lo] = v if e.israt else pack(e.conj()) * m
            norm1 += m * sum(map(abs, e.num))
        self.support = frozenset(support)
        self._lo = lo
        self._vals = tuple(vals)
        self._conjs = self._vals if conjs == vals else tuple(conjs)
        self._lcm = l
        self._norm1 = norm1

    def padded(self, prepend: int, append: int) -> Ray:
        """This ray with prepend zeros before its entries and append zeros
        after them, sharing its packing."""
        out = Ray.__new__(Ray)
        out.entries = (ZERO,) * prepend + self.entries + (ZERO,) * append
        out.support = (frozenset(i + prepend for i in self.support)
                       if prepend else self.support)
        out._lo = self._lo + prepend
        out._vals, out._conjs = self._vals, self._conjs
        out._lcm, out._norm1 = self._lcm, self._norm1
        return out

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.support

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
        if len(self.span) == 1:
            return self.span[0].support
        return frozenset().union(*(ray.support for ray in self.span))

    @cached_property
    def key(self) -> Hashable | None:
        """_subspace_key(self), computed once: the index of a construction
        and validate's index share it."""
        return _subspace_key(self)


Context = tuple[str, ...]


@dataclass(eq=False)
class KSSet:
    """A dimension, a table of identified projectors and a context list."""

    dimension: int
    projectors: dict[str, Projector]
    contexts: list[Context]
    name: str | None = None
    _validated: bool = field(default=False, repr=False)
    _orth: tuple[int, ...] | None = field(default=None, repr=False)

    @property
    def n_projectors(self) -> int:
        return len(self.projectors)

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    def signatures(self) -> dict[str, int]:
        """For every projector, the bitmask of the contexts that hold it (bit
        ci for context ci), 0 for a projector in no context.  In a valid set
        no context repeats a member, so bit_count() is the multiplicity."""
        sigs = dict.fromkeys(self.projectors, 0)
        for ci, ctx in enumerate(self.contexts):
            bit = 1 << ci
            for pid in ctx:
                sigs[pid] |= bit
        return sigs

    def members(self) -> list[int]:
        """For every context, the bitmask of its members (bit i for the i-th
        projector of projectors).  The projectors that share a context with
        a projector of signature sig are union_of(members(), sig)."""
        bits = {pid: 1 << i for i, pid in enumerate(self.projectors)}
        return [reduce(or_, (bits[pid] for pid in ctx), 0) for ctx in self.contexts]

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


def union_of(masks: Sequence[int], bits: int) -> int:
    """The OR of masks[i] over the set bits i of bits."""
    out = 0
    while bits:
        out |= masks[(bits & -bits).bit_length() - 1]
        bits &= bits - 1
    return out


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
    if 16 * u._norm1 * v._norm1 < PACK_BASE:
        t = _dot(u, v) % PACK_MOD
        return unpack(t, u._lcm * v._lcm) if t else ZERO
    acc = ZERO
    common = u.support & v.support
    for i in common:
        acc = acc + u.entries[i].conj() * v.entries[i]
    return acc


def orthogonal(u: Ray, v: Ray) -> bool:
    """True when <u, v> = 0.

    Inside the bound of inner, 16 |u|_1 |v|_1 < X, the reduced numerator of
    the scaled product is below N/2 in absolute value, so it is zero exactly
    when its residue mod N is: the packed residue is tested without being
    unpacked.  Outside the bound inner decides.
    """
    if len(u.entries) != len(v.entries):
        raise DimensionMismatch(f"dimensions {len(u.entries)} != {len(v.entries)}")
    if 16 * u._norm1 * v._norm1 < PACK_BASE:
        return not _dot(u, v) % PACK_MOD
    return inner(u, v).is_zero()


def _dot(u: Ray, v: Ray) -> int:
    """The packed product of the conjugate images of u with the images of
    v over the overlap of their windows, unreduced.  map stops at the
    shorter window, so only the start needs aligning."""
    shift = u._lo - v._lo
    if shift >= 0:
        return sum(map(mul, u._conjs, v._vals[shift:]))
    return sum(map(mul, u._conjs[-shift:], v._vals))


def projector_orthogonal(p: Projector, q: Projector) -> bool:
    """True when every span ray of p is orthogonal to every span ray of q.
    Rays with disjoint supports are orthogonal without a product."""
    dp, dq = len(p.span[0].entries), len(q.span[0].entries)
    if dp != dq:
        raise DimensionMismatch(f"dimensions {dp} != {dq}")
    if p.support.isdisjoint(q.support):
        return True
    for u in p.span:
        for v in q.span:
            if not u.support.isdisjoint(v.support) and not orthogonal(u, v):
                return False
    return True


def _in_span(u: Ray, basis: tuple[Ray, ...]) -> bool:
    """True when u lies in the span of the mutually orthogonal rays basis.

    With n_k = <q_k,q_k> and P the orthogonal projection onto the span,
    |u|^2 = |Pu|^2 + |u - Pu|^2 and |Pu|^2 = sum_k |<q_k,u>|^2 / n_k, so the
    residual u - Pu is zero exactly when
    |u|^2 prod n_k = sum_k |<q_k,u>|^2 prod_{j!=k} n_j.  For one ray this is
    equality in Cauchy-Schwarz.
    """
    norms = [inner(q, q) for q in basis]
    total = ZERO
    for k, q in enumerate(basis):
        c = inner(q, u)
        total = total + prod(norms[:k] + norms[k + 1:], start=c.conj() * c)
    return prod(norms, start=inner(u, u)) == total


def projector_equal(p: Projector, q: Projector) -> bool:
    """True when p and q are the same subspace: equal ranks, and every span
    ray of p in the span of q."""
    dp, dq = len(p.span[0].entries), len(q.span[0].entries)
    if dp != dq:
        raise DimensionMismatch(f"dimensions {dp} != {dq}")
    if p.rank != q.rank or p.support != q.support:
        return False
    return all(_in_span(u, q.span) for u in p.span)


@cache
def _probe(d: int) -> tuple[tuple[int, ...], ...]:
    """The probe vectors w and w' of subspace keys in dimension d: w_i =
    g^(i+1) and w'_i = h^(i+1) modulo the prime 2^61 - 1, for fixed g != h.
    Any probes give equal subspaces equal keys; pseudo-random ones make
    equal keys of distinct subspaces, which projector_equal then tells
    apart, unlikely, and word-sized ones keep the products cheap.  w' must
    not be a multiple of w: w^T P w only sees P + P^T, which a ray and its
    complex conjugate share."""
    probes = []
    for g in (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F):
        out, w = [], 1
        for _ in range(d):
            w = w * g % ((1 << 61) - 1)
            out.append(w)
        probes.append(tuple(out))
    return tuple(probes)


def _subspace_key(proj: Projector) -> Hashable | None:
    """A key that equal subspaces share, or None when there is none.

    The key of a rank-r subspace is r and the residue mod N of
    w'^T P w = sum_k (w'^T q_k) (q_k^dagger w) / n_k, with
    P = sum_k q_k q_k^dagger / n_k the orthogonal projector onto the span
    (q_k the span rays, which must be mutually orthogonal, and
    n_k = <q_k, q_k>) and (w, w') = _probe(d).  z -> X is a ring
    homomorphism and the images of the n_k are units mod N, so equal
    subspaces, having equal P, get equal keys whatever their bases; for a
    ray, any nonzero multiple gives the same P.  The key is None when
    prod n_k is not a unit mod N; every prime factor of N exceeds 10^6, so
    only huge entries do this."""
    span = proj.span
    w, w2 = _probe(len(span[0].entries))
    # Scaling q_k by its lcm (the packed images) scales q_k q_k^dagger and
    # n_k alike.  The sums run over the support, entry i at i - _lo of the
    # window: padded rays are mostly zeros.
    norms, terms = [], []
    for q in span:
        conjs, vals, lo = q._conjs, q._vals, q._lo
        n = left = right = 0
        for i in q.support:
            c, v = conjs[i - lo], vals[i - lo]
            n += c * v
            left += w2[i] * v
            right += c * w[i]
        norms.append(n % PACK_MOD)
        terms.append(left * right % PACK_MOD)
    # One inverse serves every n_k: prefix[k] = n_0 ... n_{k-1}.
    prefix = [1]
    for n in norms:
        prefix.append(prefix[-1] * n % PACK_MOD)
    try:
        inv = pow(prefix[-1], -1, PACK_MOD)
    except ValueError:
        return None
    total = 0
    for k in range(len(span) - 1, -1, -1):
        # inv is 1 / prefix[k + 1] here, so inv * prefix[k] = 1 / n_k.
        total += terms[k] * (inv * prefix[k] % PACK_MOD)
        inv = inv * norms[k] % PACK_MOD
    return len(span), total % PACK_MOD


class SubspaceIndex:
    """Projectors stored by id, at most one per subspace.

    Each projector is looked up by its key (_subspace_key), so the spans
    must be orthogonal, and a key match is confirmed with projector_equal.  A
    projector without a key is compared exactly with every stored
    projector, and every later projector is compared with it too."""

    def __init__(self) -> None:
        self.table: dict[str, Projector] = {}
        self._keyed: dict[Hashable, list[str]] = {}
        self._unkeyed: list[str] = []

    def add(self, pid: str, proj: Projector) -> str:
        """The id of a stored projector with the subspace of proj, else pid
        after storing proj under it."""
        key = proj.key
        if key is None:
            candidates = list(self.table)
        else:
            candidates = self._keyed.get(key, []) + self._unkeyed
        for qid in candidates:
            if projector_equal(self.table[qid], proj):
                return qid
        self.table[pid] = proj
        if key is None:
            self._unkeyed.append(pid)
        else:
            self._keyed.setdefault(key, []).append(pid)
        return pid


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
        for i, u in enumerate(span):
            for j in range(i + 1, len(span)):
                v = span[j]
                if not u.support.isdisjoint(v.support) and not orthogonal(u, v):
                    report.add(f"projector {pid}: span rays {i} and {j} not orthogonal")
    if not report.ok:
        return report

    # No two projectors may describe the same subspace; the spans were found
    # orthogonal above, as the index needs.
    index = SubspaceIndex()
    for pid, proj in s.projectors.items():
        first = index.add(pid, proj)
        if first != pid:
            report.add(f"projectors {first} and {pid}: equal subspaces")

    # Members with disjoint supports are orthogonal without a product.
    bits = {pid: i for i, pid in enumerate(s.projectors)}
    overlaps = _overlaps(s)
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
            near = overlaps[bits[ctx[i]]]
            for j in range(i + 1, len(ctx)):
                if near >> bits[ctx[j]] & 1 and not projector_orthogonal(
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
    sigs = s.signatures()
    ray_groups: dict[tuple[int, int], int] = {}
    for pid, proj in s.projectors.items():
        key = (proj.rank, sigs[pid].bit_count())
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


def _overlaps(s: KSSet) -> list[int]:
    """For every projector, the bitmask of the projectors (bit i for the
    i-th of projectors) whose supports meet its own, itself included.  It
    is found once per distinct support, from one mask per coordinate of the
    projectors covering it."""
    groups: dict[frozenset[int], int] = {}
    for i, p in enumerate(s.projectors.values()):
        groups[p.support] = groups.get(p.support, 0) | 1 << i
    cover = [0] * s.dimension
    for support, bits in groups.items():
        for c in support:
            cover[c] |= bits
    near = {support: reduce(or_, map(cover.__getitem__, support), 0)
            for support in groups}
    return [near[p.support] for p in s.projectors.values()]


def orthogonality_graph(s: KSSet) -> tuple[int, ...]:
    """The full orthogonality relation, including pairs that never share a
    context, as one bitmask per projector in s.projectors order: bit j of
    entry i is set when projectors i and j are orthogonal.  It is computed
    once per set and cached; every call returns the same tuple.

    Two kinds of pair are orthogonal without a product: pairs with disjoint
    supports, found by _overlaps, and pairs that share a context,
    union_of(s.members(), sig) for a projector of signature sig, which
    validation has just proved orthogonal.  Only the remaining pairs, with
    overlapping supports and no shared context, are checked with
    projector_orthogonal.  No projector is its own neighbour."""
    ensure_valid(s)
    if s._orth is None:
        projs = list(s.projectors.values())
        members = s.members()
        every = (1 << len(projs)) - 1
        masks = [0] * len(projs)
        for i, (p, sig, overlap) in enumerate(
            zip(projs, s.signatures().values(), _overlaps(s))
        ):
            shared = union_of(members, sig)
            masks[i] |= (every & ~overlap | shared) & ~(1 << i)
            later = (overlap & ~shared) >> (i + 1)
            while later:
                bit = later & -later
                later ^= bit
                j = i + bit.bit_length()
                if projector_orthogonal(p, projs[j]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        s._orth = tuple(masks)
    return s._orth
