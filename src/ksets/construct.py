"""Constructions that combine or extend sets across dimensions.

Implemented methods: zero-padding direct sums with context pairing, the
rank-scaling of a whole set into block copies, the padded doubling with
three pad projectors, coordinate-swap doubling with duplicate elimination,
greedy reduction to a critical core, and the dimension-table recipes that
chain them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .cyclo import CycNum, ONE, ZERO
from .errors import (
    BadBasisError,
    BadDimensionError,
    InvalidPairingError,
    NotKSError,
    NotParityError,
    NotScaledUnitaryError,
)
from .model import (
    KSSet,
    Projector,
    Ray,
    ensure_valid,
    projector_equal,
)
from .verify import Mode, _compile, _solve, find_assignment, is_parity


def _pad_ray(ray: Ray, prepend: int, append: int) -> Ray:
    return Ray((ZERO,) * prepend + ray.entries + (ZERO,) * append)


def _pad_projector(proj: Projector, prepend: int, append: int) -> Projector:
    return Projector(tuple(_pad_ray(r, prepend, append) for r in proj.span))


def _axis_ray(dimension: int, coord: int) -> Ray:
    entries = [ZERO] * dimension
    entries[coord] = ONE
    return Ray(entries)


def embed(s: KSSet, prepend: int, append: int) -> KSSet:
    """Pad every ray with zeros.  Contexts are carried over unchanged and no
    longer complete, so the result is a building block that does not
    validate until combined with an orthogonal partner."""
    ensure_valid(s)
    if prepend < 0 or append < 0:
        raise BadDimensionError("padding must be nonnegative")
    projs = {
        pid: _pad_projector(p, prepend, append) for pid, p in s.projectors.items()
    }
    return KSSet(
        s.dimension + prepend + append,
        projs,
        [tuple(c) for c in s.contexts],
        name=s.name,
    )


class _Registry:
    """Projector table with projective de-duplication."""

    def __init__(self) -> None:
        self.table: dict[str, Projector] = {}
        self._canon: dict[tuple, str] = {}

    def add(self, pid: str, proj: Projector) -> str:
        """Insert proj under pid unless an equal subspace exists; returns the
        representative id."""
        if proj.rank == 1:
            key = proj.span[0].canonical()
            found = self._canon.get(key)
            if found is not None:
                return found
            self._canon[key] = pid
            self.table[pid] = proj
            return pid
        for qid, q in self.table.items():
            if (
                q.rank == proj.rank
                and q.support == proj.support
                and projector_equal(q, proj)
            ):
                return qid
        self.table[pid] = proj
        return pid


def _combined_projectors(
    s1: KSSet, s2: KSSet, flip: bool
) -> tuple[dict[str, Projector], dict[str, str], dict[str, str]]:
    """Direct-sum projector table: s1 occupies the leading block and s2 the
    trailing block (swapped when flip is set)."""
    d1, d2 = s1.dimension, s2.dimension
    if flip:
        pre1, post1, pre2, post2 = d2, 0, 0, d1
    else:
        pre1, post1, pre2, post2 = 0, d2, d1, 0
    projs: dict[str, Projector] = {}
    map1 = {pid: f"a{pid}" for pid in s1.projectors}
    map2 = {pid: f"b{pid}" for pid in s2.projectors}
    for pid, p in s1.projectors.items():
        projs[map1[pid]] = _pad_projector(p, pre1, post1)
    for pid, p in s2.projectors.items():
        projs[map2[pid]] = _pad_projector(p, pre2, post2)
    return projs, map1, map2


def pz_basic(s1: KSSet, s2: KSSet, flip: bool = False) -> KSSet:
    """Direct sum with every cross pair of contexts combined: B1*B2 contexts
    over R1+R2 projectors in dimension d1+d2."""
    ensure_valid(s1)
    ensure_valid(s2)
    projs, map1, map2 = _combined_projectors(s1, s2, flip)
    contexts = []
    for c1 in s1.contexts:
        for c2 in s2.contexts:
            contexts.append(
                tuple(map1[pid] for pid in c1) + tuple(map2[pid] for pid in c2)
            )
    out = KSSet(s1.dimension + s2.dimension, projs, contexts,
                name=f"{s1.name or 'A'}(+){s2.name or 'B'}")
    ensure_valid(out)
    return out


@dataclass(frozen=True)
class Pairing:
    """Map from each context index of the larger-B set to a context index of
    the smaller-B set.  Every small context must be used an odd number of
    times, so multiplicities grow only in even increments and parity is
    preserved."""

    assignment: tuple[int, ...]

    def usage_counts(self, n_small: int) -> list[int]:
        counts = [0] * n_small
        for j in self.assignment:
            counts[j] += 1
        return counts


def default_pairing(b_large: int, b_small: int) -> Pairing:
    """Index-aligned pairing; the first small context absorbs all extras."""
    return Pairing(tuple(i if i < b_small else 0 for i in range(b_large)))


def _check_pairing(p: Pairing, b_large: int, b_small: int) -> None:
    if len(p.assignment) != b_large:
        raise InvalidPairingError(
            f"pairing covers {len(p.assignment)} contexts, expected {b_large}"
        )
    if any(j < 0 or j >= b_small for j in p.assignment):
        raise InvalidPairingError("pairing references a context out of range")
    for j, count in enumerate(p.usage_counts(b_small)):
        if count % 2 == 0:
            raise InvalidPairingError(
                f"small context {j} used {count} times; every usage count "
                "must be odd"
            )


def pz_improved(
    s1: KSSet,
    s2: KSSet,
    pairing: Pairing | None = None,
    flip: bool = False,
) -> KSSet:
    """Direct sum of two parity sets with paired contexts: only
    max(B1, B2) contexts survive and the result is again a parity set."""
    ensure_valid(s1)
    ensure_valid(s2)
    if not is_parity(s1) or not is_parity(s2):
        raise NotParityError("both inputs must be parity sets")
    b1, b2 = s1.n_contexts, s2.n_contexts
    large_is_s1 = b1 >= b2
    b_large, b_small = (b1, b2) if large_is_s1 else (b2, b1)
    if pairing is None:
        pairing = default_pairing(b_large, b_small)
    _check_pairing(pairing, b_large, b_small)
    projs, map1, map2 = _combined_projectors(s1, s2, flip)
    contexts = []
    for k in range(b_large):
        if large_is_s1:
            c1 = s1.contexts[k]
            c2 = s2.contexts[pairing.assignment[k]]
        else:
            c1 = s1.contexts[pairing.assignment[k]]
            c2 = s2.contexts[k]
        contexts.append(
            tuple(map1[pid] for pid in c1) + tuple(map2[pid] for pid in c2)
        )
    out = KSSet(s1.dimension + s2.dimension, projs, contexts,
                name=f"{s1.name or 'A'}(+){s2.name or 'B'}")
    ensure_valid(out)
    return out


def _context_sets(s: KSSet) -> dict[str, frozenset[int]]:
    out: dict[str, frozenset[int]] = {pid: frozenset() for pid in s.projectors}
    for ci, ctx in enumerate(s.contexts):
        for pid in ctx:
            out[pid] = out[pid] | {ci}
    return out


def _groupby_count(items) -> dict:
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def count_merges(s1: KSSet, s2: KSSet, pairing: Pairing) -> int:
    """Number of projectors eliminated by merge_rank after pz_improved with
    the given pairing, computed from context membership alone."""
    b1, b2 = s1.n_contexts, s2.n_contexts
    large, small = (s1, s2) if b1 >= b2 else (s2, s1)
    large_classes: dict[frozenset[int], int] = {}
    for sig in _context_sets(large).values():
        large_classes[sig] = large_classes.get(sig, 0) + 1
    small_classes: dict[frozenset[int], int] = {}
    for sig in _context_sets(small).values():
        small_classes[sig] = small_classes.get(sig, 0) + 1
    n_small = small.n_contexts
    p_inv: list[list[int]] = [[] for _ in range(n_small)]
    for k, j in enumerate(pairing.assignment):
        p_inv[j].append(k)
    groups: dict[frozenset[int], int] = dict(large_classes)
    for sig, count in small_classes.items():
        induced = frozenset(k for j in sig for k in p_inv[j])
        groups[induced] = groups.get(induced, 0) + count
    total = large.n_projectors + small.n_projectors
    return total - len(groups)


def optimize_pairing(s1: KSSet, s2: KSSet, seed: int = 0) -> Pairing:
    """Pairing that maximizes the merged-projector count of
    merge_rank(pz_improved(s1, s2, pairing)).

    Exhaustive over all odd-usage pairings when the larger context count is
    at most 9; seeded greedy hill-climbing with restarts beyond that."""
    ensure_valid(s1)
    ensure_valid(s2)
    if not is_parity(s1) or not is_parity(s2):
        raise NotParityError("both inputs must be parity sets")
    b_large = max(s1.n_contexts, s2.n_contexts)
    b_small = min(s1.n_contexts, s2.n_contexts)
    large, small = (s1, s2) if s1.n_contexts >= s2.n_contexts else (s2, s1)
    large_classes: dict[int, int] = {}
    for sig in _context_sets(large).values():
        mask = 0
        for ci in sig:
            mask |= 1 << ci
        large_classes[mask] = large_classes.get(mask, 0) + 1
    small_classes = [
        (tuple(sig), count)
        for sig, count in _groupby_count(_context_sets(small).values()).items()
    ]
    total = large.n_projectors + small.n_projectors

    def score(assignment) -> int:
        p_inv = [0] * b_small
        for k, j in enumerate(assignment):
            p_inv[j] |= 1 << k
        groups = dict(large_classes)
        for sig, count in small_classes:
            induced = 0
            for j in sig:
                induced |= p_inv[j]
            groups[induced] = groups.get(induced, 0) + count
        return total - len(groups)

    if b_large <= 9:
        best: tuple[int, tuple[int, ...]] | None = None
        counts = [0] * b_small
        slots = [0] * b_large

        def feasible(pos: int) -> bool:
            remaining = b_large - pos
            needed = sum(1 for c in counts if c == 0 or c % 2 == 0)
            return needed <= remaining and (remaining - needed) % 2 == 0

        def dfs(pos: int) -> None:
            nonlocal best
            if pos == b_large:
                got = score(tuple(slots))
                if best is None or got > best[0]:
                    best = (got, tuple(slots))
                return
            for j in range(b_small):
                counts[j] += 1
                slots[pos] = j
                if feasible(pos + 1):
                    dfs(pos + 1)
                counts[j] -= 1
            slots[pos] = 0

        dfs(0)
        assert best is not None, "no odd-usage pairing exists"
        return Pairing(best[1])

    import random

    rng = random.Random(seed)
    best_pair = default_pairing(b_large, b_small)
    best_score = score(best_pair.assignment)
    for _ in range(20):
        assignment = list(range(b_small))
        extras = b_large - b_small
        pool = [rng.randrange(b_small) for _ in range(extras // 2)]
        assignment += [j for j in pool for _ in (0, 1)]
        rng.shuffle(assignment)
        improved = True
        while improved:
            improved = False
            current = score(tuple(assignment))
            for i in range(b_large):
                for j in range(i + 1, b_large):
                    if assignment[i] == assignment[j]:
                        continue
                    assignment[i], assignment[j] = assignment[j], assignment[i]
                    got = score(tuple(assignment))
                    if got > current:
                        current = got
                        improved = True
                    else:
                        assignment[i], assignment[j] = (
                            assignment[j],
                            assignment[i],
                        )
            if current > best_score:
                best_score = current
                best_pair = Pairing(tuple(assignment))
    return best_pair


def merge_rank(s: KSSet) -> KSSet:
    """Merge every group of projectors that occur in exactly the same
    contexts into one projector whose rank is the sum of the group's ranks.
    Grouping by the full context signature reaches the fixpoint in one pass."""
    ensure_valid(s)
    signature: dict[str, frozenset[int]] = {pid: frozenset() for pid in s.projectors}
    for ci, ctx in enumerate(s.contexts):
        for pid in ctx:
            signature[pid] = signature[pid] | {ci}
    groups: dict[frozenset[int], list[str]] = {}
    for pid in s.projectors:
        sig = signature[pid]
        if sig:
            groups.setdefault(sig, []).append(pid)
    rename: dict[str, str] = {}
    merged_span: dict[str, tuple[Ray, ...]] = {}
    for sig, members in groups.items():
        if len(members) < 2:
            continue
        new_id = "+".join(members)
        span: tuple[Ray, ...] = ()
        for pid in members:
            span += s.projectors[pid].span
        for pid in members:
            rename[pid] = new_id
        merged_span[new_id] = span
    projs: dict[str, Projector] = {}
    emitted: set[str] = set()
    for pid, proj in s.projectors.items():
        new_id = rename.get(pid, pid)
        if new_id in emitted:
            continue
        emitted.add(new_id)
        if new_id in merged_span:
            projs[new_id] = Projector(merged_span[new_id])
        else:
            projs[new_id] = proj
    contexts = []
    for ctx in s.contexts:
        seen: set[str] = set()
        members = []
        for pid in ctx:
            new_id = rename.get(pid, pid)
            if new_id not in seen:
                seen.add(new_id)
                members.append(new_id)
        contexts.append(tuple(members))
    out = KSSet(s.dimension, projs, contexts, name=s.name)
    ensure_valid(out)
    return out


def split_ranks(s: KSSet) -> KSSet:
    """Replace every higher-rank projector by its recorded span rays as
    individual rank-1 projectors."""
    ensure_valid(s)
    registry = _Registry()
    expansion: dict[str, list[str]] = {}
    for pid, proj in s.projectors.items():
        if proj.rank == 1:
            expansion[pid] = [registry.add(pid, proj)]
        else:
            ids = []
            for k, ray in enumerate(proj.span, start=1):
                ids.append(registry.add(f"{pid}.{k}", Projector((ray,))))
            expansion[pid] = ids
    contexts = []
    for ctx in s.contexts:
        members: list[str] = []
        seen: set[str] = set()
        for pid in ctx:
            for nid in expansion[pid]:
                if nid not in seen:
                    seen.add(nid)
                    members.append(nid)
        contexts.append(tuple(members))
    out = KSSet(s.dimension, registry.table, contexts, name=s.name)
    ensure_valid(out)
    return out


def rank_scale(s: KSSet, n: int) -> KSSet:
    """Put n block copies of the whole set into orthogonal subspaces; each
    projector becomes the rank-n*r sum of its shifted copies while the
    context structure is unchanged."""
    ensure_valid(s)
    if n < 1:
        raise BadDimensionError("scale factor must be a positive integer")
    if n == 1:
        return s
    d = s.dimension
    projs: dict[str, Projector] = {}
    for pid, proj in s.projectors.items():
        span: tuple[Ray, ...] = ()
        for k in range(n):
            span += tuple(
                _pad_ray(r, k * d, (n - 1 - k) * d) for r in proj.span
            )
        projs[pid] = Projector(span)
    out = KSSet(n * d, projs, [tuple(c) for c in s.contexts], name=s.name)
    ensure_valid(out)
    return out


def ceg(s: KSSet, d_target: int) -> KSSet:
    """Zero-padded doubling with three pad projectors.

    Produces 2B+1 contexts over at most 2R+3 projectors in any dimension
    strictly between d and 2d; the output is uncolorable but in general not
    critical.  The count is exactly 2R+3 when no padded projector of one copy
    spans the same subspace as a padded projector of the other copy or as a
    pad projector; equal subspaces are identified, so each such coincidence
    lowers the count by one."""
    ensure_valid(s)
    d = s.dimension
    if not d < d_target < 2 * d:
        raise BadDimensionError(
            f"target dimension must satisfy {d} < d' < {2 * d}"
        )
    delta = d_target - d
    registry = _Registry()
    amap: dict[str, str] = {}
    bmap: dict[str, str] = {}
    for pid, proj in s.projectors.items():
        amap[pid] = registry.add(f"a{pid}", _pad_projector(proj, 0, delta))
    for pid, proj in s.projectors.items():
        bmap[pid] = registry.add(f"b{pid}", _pad_projector(proj, delta, 0))
    pad_left = registry.add(
        "padL", Projector(tuple(_axis_ray(d_target, i) for i in range(delta)))
    )
    pad_center = registry.add(
        "padC", Projector(tuple(_axis_ray(d_target, i) for i in range(delta, d)))
    )
    pad_right = registry.add(
        "padR", Projector(tuple(_axis_ray(d_target, i) for i in range(d, d_target)))
    )
    contexts: list[tuple[str, ...]] = [(pad_left, pad_center, pad_right)]
    for ctx in s.contexts:
        contexts.append(tuple(amap[pid] for pid in ctx) + (pad_right,))
    for ctx in s.contexts:
        contexts.append(tuple(bmap[pid] for pid in ctx) + (pad_left,))
    seen: set[frozenset[str]] = set()
    unique = []
    for ctx in contexts:
        key = frozenset(ctx)
        if key not in seen:
            seen.add(key)
            unique.append(ctx)
    out = KSSet(d_target, registry.table, unique,
                name=f"{s.name or 'S'}(ceg{d_target})")
    ensure_valid(out)
    return out


def axis_basis_ids(s: KSSet, delta: int) -> list[str]:
    """Ids of rank-1 projectors proportional to the first delta axis rays."""
    found: dict[int, str] = {}
    for pid, proj in s.projectors.items():
        if proj.rank != 1:
            continue
        ray = proj.span[0]
        if len(ray.support) == 1:
            coord = next(iter(ray.support))
            if coord < delta and coord not in found:
                found[coord] = pid
    missing = [i for i in range(delta) if i not in found]
    if missing:
        raise BadBasisError(
            f"no axis projector for coordinates {missing}; apply a transform "
            "that sends one context to the standard basis first"
        )
    return [found[i] for i in range(delta)]


def matsuno(s: KSSet, d_target: int, v_ids: list[str] | None = None) -> KSSet:
    """Coordinate-swap doubling.

    Requires delta = d' - d projectors forming an axis basis of the leading
    delta coordinates (after rank-1 decomposition).  The swapped copy of the
    set shares every ray fixed by the swap, and each of the 2B promoted
    contexts that collapses onto another is removed, leaving a critical set
    of at most 2B-1 contexts over at most 2R-1 projectors."""
    ensure_valid(s)
    d = s.dimension
    if not d < d_target < 2 * d:
        raise BadDimensionError(
            f"target dimension must satisfy {d} < d' < {2 * d}"
        )
    if any(p.rank > 1 for p in s.projectors.values()):
        s = split_ranks(s)
    delta = d_target - d
    if v_ids is None:
        v_ids = axis_basis_ids(s, delta)
    else:
        v_ids = list(v_ids)
        coords: set[int] = set()
        for pid in v_ids:
            proj = s.projectors.get(pid)
            if proj is None:
                raise BadBasisError(f"unknown projector id {pid}")
            if proj.rank != 1 or len(proj.span[0].support) != 1:
                raise BadBasisError(f"projector {pid} is not an axis ray")
            coords.add(next(iter(proj.span[0].support)))
        if len(v_ids) != delta or coords != set(range(delta)):
            raise BadBasisError(
                f"need exactly one axis projector per coordinate 0..{delta - 1}"
            )

    def swap(ray: Ray) -> Ray:
        entries = list(ray.entries)
        for i in range(delta):
            j = d_target - delta + i
            entries[i], entries[j] = entries[j], entries[i]
        return Ray(entries)

    registry = _Registry()
    amap: dict[str, str] = {}
    for pid, proj in s.projectors.items():
        amap[pid] = registry.add(pid, _pad_projector(proj, 0, delta))
    tmap: dict[str, str] = {}
    for pid, proj in s.projectors.items():
        image = Projector((swap(_pad_ray(proj.span[0], 0, delta)),))
        tmap[pid] = registry.add(f"{pid}'", image)
    t_of_v = tuple(tmap[pid] for pid in v_ids)
    v_members = tuple(amap[pid] for pid in v_ids)
    contexts: list[tuple[str, ...]] = []
    for ctx in s.contexts:
        contexts.append(tuple(amap[pid] for pid in ctx) + t_of_v)
    for ctx in s.contexts:
        contexts.append(tuple(tmap[pid] for pid in ctx) + v_members)
    seen: set[frozenset[str]] = set()
    unique = []
    for ctx in contexts:
        key = frozenset(ctx)
        if key not in seen:
            seen.add(key)
            unique.append(ctx)
    out = KSSet(d_target, registry.table, unique,
                name=f"{s.name or 'S'}(swap{d_target})")
    ensure_valid(out)
    return out


def apply_transform(s: KSSet, matrix: list[list[CycNum]]) -> KSSet:
    """Apply a scaled unitary to every ray.  The matrix must satisfy
    M^dagger M = c I exactly for a nonzero real c of the field, which
    preserves all orthogonality relations."""
    ensure_valid(s)
    d = s.dimension
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise NotScaledUnitaryError(f"matrix must be {d}x{d}")
    scale: CycNum | None = None
    for i in range(d):
        for j in range(i, d):
            g = ZERO
            for k in range(d):
                g = g + matrix[k][i].conj() * matrix[k][j]
            if i == j:
                if scale is None:
                    scale = g
                elif g != scale:
                    raise NotScaledUnitaryError("columns have unequal norms")
            elif not g.is_zero():
                raise NotScaledUnitaryError(f"columns {i} and {j} not orthogonal")
    assert scale is not None
    if scale.is_zero() or scale.conj() != scale:
        raise NotScaledUnitaryError("column norm must be a nonzero real scalar")

    def apply(ray: Ray) -> Ray:
        out = []
        for i in range(d):
            acc = ZERO
            row = matrix[i]
            for j in ray.support:
                acc = acc + row[j] * ray.entries[j]
            out.append(acc)
        return Ray(out)

    projs = {
        pid: Projector(tuple(apply(r) for r in proj.span))
        for pid, proj in s.projectors.items()
    }
    out = KSSet(d, projs, [tuple(c) for c in s.contexts], name=s.name)
    ensure_valid(out)
    return out


def reduce_critical(s: KSSet, mode: Mode = Mode.FULL) -> KSSet:
    """Greedily remove contexts whose removal keeps the set uncolorable,
    in one scan in ascending context order; the remainder is critical.

    One scan suffices: a context c is kept when active - c has a coloring,
    and that coloring, restricted to the projectors still allowed, colors
    every subset of active - c.  Later removals only shrink active, so c
    stays necessary and a second scan would remove nothing."""
    ensure_valid(s)
    if find_assignment(s, mode) is not None:
        raise NotKSError("set is colorable; nothing to reduce")
    problem = _compile(s, mode)
    active = list(range(len(problem.ctx_masks)))
    for ci in list(active):
        trial = [c for c in active if c != ci]
        allowed = 0
        for c in trial:
            allowed |= problem.ctx_masks[c]
        if _solve(problem, trial, allowed) is None:
            active = trial
    keep = set(active)
    contexts = [tuple(s.contexts[ci]) for ci in sorted(keep)]
    used = {pid for ctx in contexts for pid in ctx}
    projs = {pid: p for pid, p in s.projectors.items() if pid in used}
    out = KSSet(s.dimension, projs, contexts, name=s.name)
    ensure_valid(out)
    return out


@dataclass
class Recipe:
    """One dimension-table row: predicted compact symbols and executable
    chains for the general-rank and the all-rank-1 variant."""

    dimension: int
    row: str
    general_symbol: str | None
    rank1_symbol: str | None
    critical: bool
    general_chain: str | None = None
    rank1_chain: str | None = None
    _general_build: Callable[[], KSSet] | None = field(default=None, repr=False)
    _rank1_build: Callable[[], KSSet] | None = field(default=None, repr=False)

    def build_general(self) -> KSSet | None:
        return self._general_build() if self._general_build else None

    def build_rank1(self) -> KSSet | None:
        return self._rank1_build() if self._rank1_build else None

    def sort_key(self) -> tuple[int, int]:
        keys = []
        for sym in (self.general_symbol, self.rank1_symbol):
            if sym:
                r, b = sym.split("-")
                keys.append((int(b), int(r)))
        return min(keys)


def _compact(sym: tuple[int, int]) -> str:
    return f"{sym[0]}-{sym[1]}"


def table_recipe(d: int) -> list[Recipe]:
    """All table rows that apply to dimension d, sorted by (context count,
    projector count).  Overlapping rows are all returned."""
    if d < 3:
        raise BadDimensionError("the table starts at dimension 3")
    from . import catalog

    rows: list[Recipe] = []

    def seed(name: str) -> KSSet:
        return catalog.seed_set(name)

    def scaled_row(label: str, seed_name: str, n: int,
                   general: tuple[int, int], rank1: tuple[int, int],
                   general_factor: int | None = None) -> Recipe:
        gf = general_factor if general_factor is not None else n
        general_chain = f"rank_scale({seed_name}, {gf})"
        rank1_chain = f"split_ranks(rank_scale({seed_name}, {n}))"
        return Recipe(
            d, label, _compact(general), _compact(rank1), True,
            general_chain, rank1_chain,
            lambda: rank_scale(seed(seed_name), gf),
            lambda: split_ranks(rank_scale(seed(seed_name), n)),
        )

    if d % 3 == 0:
        n = d // 3
        rows.append(scaled_row("3n", "d3-49-36", n, (49, 36), (49 * n, 36)))
    if d % 4 == 0:
        n = d // 4
        rows.append(scaled_row("4n", "d4-18-9", n, (18, 9), (18 * n, 9)))
    if d % 5 == 0:
        n = d // 5
        rows.append(scaled_row("5n", "d5-29-16", n, (29, 16), (29 * n, 16)))
    if d % 6 == 0:
        n = d // 6
        rows.append(scaled_row("6n", "d6-21-7", n, (21, 7), (21 * n, 7)))
    if d % 7 == 0:
        n = d // 7
        rows.append(scaled_row("7n", "d7-32-12", n, (32, 12), (32 * n, 12)))
    if d % 8 == 0:
        n = d // 8
        rows.append(
            Recipe(
                d, "8n", "18-9", _compact((34 * n, 9)), True,
                f"rank_scale(d4-18-9, {2 * n})",
                f"split_ranks(rank_scale(d8-34-9, {n}))",
                lambda n=n: rank_scale(seed("d4-18-9"), 2 * n),
                lambda n=n: split_ranks(rank_scale(seed("d8-34-9"), n)),
            )
        )
    if d % 9 == 0:
        n = d // 9
        rows.append(scaled_row("9n", "d9-39-13", n, (39, 13), (39 * n, 13)))
    if d % 10 == 0:
        n = d // 10
        rows.append(
            Recipe(
                d, "10n", "30-9", _compact((39 * n, 9)), True,
                f"rank_scale(d10-30-9, {n})",
                f"split_ranks(rank_scale(d10-39-9, {n}))",
                lambda n=n: rank_scale(seed("d10-30-9"), n),
                lambda n=n: split_ranks(rank_scale(seed("d10-39-9"), n)),
            )
        )
    if d % 11 == 0:
        n = d // 11
        rows.append(scaled_row("11n", "d11-40-12", n, (40, 12), (40 * n, 12)))

    def swap_chain(m: int, target: int):
        def build() -> KSSet:
            parent = split_ranks(rank_scale(seed("d6-21-7-basis"), m))
            return matsuno(parent, target)

        return build

    if d % 6 == 1 and d >= 13:
        m = (d - 1) // 6
        base = f"matsuno(split_ranks(rank_scale(d6-21-7-basis, {m})), {d})"
        rows.append(
            Recipe(
                d, "6m+1", "43-12", _compact((21 * m + 11, 12)), True,
                f"merge_rank({base})", base,
                lambda m=m: merge_rank(swap_chain(m, d)()),
                swap_chain(m, d),
            )
        )
    if d % 6 == 3 and d >= 15:
        m = (d - 3) // 6
        base = f"matsuno(split_ranks(rank_scale(d6-21-7-basis, {m})), {d})"
        rows.append(
            Recipe(
                d, "6m+3", "57-13", _compact((21 * m + 18, 13)), True,
                f"merge_rank({base})", base,
                lambda m=m: merge_rank(swap_chain(m, d)()),
                swap_chain(m, d),
            )
        )
    if d % 6 == 5 and d >= 17:
        m = (d - 5) // 6
        base = f"matsuno(split_ranks(rank_scale(d6-21-7-basis, {m})), {d})"
        rows.append(
            Recipe(
                d, "6m+5", "61-13", _compact((21 * m + 20, 13)), True,
                f"merge_rank({base})", base,
                lambda m=m: merge_rank(swap_chain(m, d)()),
                swap_chain(m, d),
            )
        )
    if d % 6 == 2 and d >= 8:
        n = (d - 2) // 6
        if n == 1:
            chain = "d8-34-9"
            build = lambda: seed("d8-34-9")  # noqa: E731
        else:
            chain = (
                f"pz_improved(d8-34-9, split_ranks(rank_scale(d6-21-7, {n - 1})))"
            )
            build = lambda n=n: pz_improved(  # noqa: E731
                seed("d8-34-9"), split_ranks(rank_scale(seed("d6-21-7"), n - 1))
            )
        rows.append(
            Recipe(d, "6n+2", None, _compact((21 * n + 13, 9)), True,
                   None, chain, None, build)
        )
    if d % 6 == 4 and d >= 10:
        n = (d - 4) // 6
        chain = f"pz_improved(d4-18-9, split_ranks(rank_scale(d6-21-7, {n})))"
        rows.append(
            Recipe(
                d, "6n+4", None, _compact((21 * n + 18, 9)), True,
                None, chain, None,
                lambda n=n: pz_improved(
                    seed("d4-18-9"), split_ranks(rank_scale(seed("d6-21-7"), n))
                ),
            )
        )
    if d % 2 == 0 and d >= 10:
        pair = None
        for n in range(1, d // 6 + 1):
            rest = d - 6 * n
            if rest >= 4 and rest % 4 == 0:
                pair = (n, rest // 4)
                break
        if pair:
            n, l = pair
            chain = (
                f"merge_rank(pz_improved(rank_scale(d4-18-9, {l}), "
                f"rank_scale(d6-21-7, {n})))"
            )
            rows.append(
                Recipe(
                    d, "6n+4l", "30-9", None, True, chain, None,
                    lambda n=n, l=l: merge_rank(
                        pz_improved(
                            rank_scale(seed("d4-18-9"), l),
                            rank_scale(seed("d6-21-7"), n),
                        )
                    ),
                    None,
                )
            )
    if d % 2 == 1 and d >= 7:
        m = d // 12 + 1
        chain = f"ceg(rank_scale(d6-21-7, {m}), {d})"
        rows.append(
            Recipe(
                d, "2n+5", "45-15", None, False, chain, None,
                lambda m=m: ceg(rank_scale(seed("d6-21-7"), m), d),
                None,
            )
        )
    if d % 2 == 1 and d >= 5:
        l = d // 8 + 1
        # The rotated seed: padding the raw 18 rays makes some of them
        # coincide, which drops the count below 39 in d = 5, 7 and 9.
        chain = f"ceg(rank_scale(d4-18-9-rot, {l}), {d})"
        rows.append(
            Recipe(
                d, "2n+3", "39-19", None, False, chain, None,
                lambda l=l: ceg(rank_scale(seed("d4-18-9-rot"), l), d),
                None,
            )
        )
    rows.sort(key=Recipe.sort_key)
    return rows
