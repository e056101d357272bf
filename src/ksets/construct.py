"""Constructions that combine or extend sets across dimensions.

Implemented methods: zero-padding direct sums with context pairing (the
first set takes the leading coordinates), the rank-scaling of a whole set
into block copies, the padded doubling with three pad projectors,
coordinate-swap doubling over the set's own axis projectors with duplicate
elimination, and the dimension-table recipes that chain them.  Each is fixed
by its input sets and target dimension.  The greedy reduction to a critical
core, reduce_critical, runs beside the search in verify and is re-exported
here.

Each table row writes its constructions down once, as a chain string such
as ``split_ranks(rank_scale(d6-21-7, 2))``; build_chain runs any such string
and is the only way the table builds a set.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from . import catalog
from .cyclo import CycNum, ONE, ZERO
from .errors import (
    BadBasisError,
    BadDimensionError,
    ChainSyntaxError,
    InvalidPairingError,
    NotParityError,
    NotScaledUnitaryError,
)
from .model import (
    Context,
    KSSet,
    Projector,
    Ray,
    SubspaceIndex,
    ensure_valid,
)
# find_assignment and reduce_critical stay bound here: the benchmark's tracer
# (perfbench/spans.py) looks them up in this module and wraps them in every
# module that binds them, and its own tests check that.
from .verify import find_assignment, is_parity, reduce_critical  # noqa: F401


def _pad_projector(proj: Projector, prepend: int, append: int) -> Projector:
    return Projector(tuple(r.padded(prepend, append) for r in proj.span))


def _axis_ray(dimension: int, coord: int) -> Ray:
    entries = [ZERO] * dimension
    entries[coord] = ONE
    return Ray(entries)


def _direct_sum(
    s1: KSSet,
    s2: KSSet,
    pairs: list[tuple[Context, Context]],
) -> KSSet:
    """Direct sum whose contexts join c1 of s1 with c2 of s2 for each
    (c1, c2) in pairs: s1 occupies the leading block and s2 the trailing
    block."""
    d1, d2 = s1.dimension, s2.dimension
    projs: dict[str, Projector] = {}
    for pid, p in s1.projectors.items():
        projs[f"a{pid}"] = _pad_projector(p, 0, d2)
    for pid, p in s2.projectors.items():
        projs[f"b{pid}"] = _pad_projector(p, d1, 0)
    contexts = [
        tuple(f"a{pid}" for pid in c1) + tuple(f"b{pid}" for pid in c2)
        for c1, c2 in pairs
    ]
    out = KSSet(d1 + d2, projs, contexts,
                name=f"{s1.name or 'A'}(+){s2.name or 'B'}")
    ensure_valid(out)
    return out


def pz_basic(s1: KSSet, s2: KSSet) -> KSSet:
    """Direct sum with every cross pair of contexts combined: B1*B2 contexts
    over R1+R2 projectors in dimension d1+d2."""
    ensure_valid(s1)
    ensure_valid(s2)
    pairs = [(c1, c2) for c1 in s1.contexts for c2 in s2.contexts]
    return _direct_sum(s1, s2, pairs)


# A pairing maps each context index k of the set with more contexts (the
# larger-B set) to the index pairing[k] of a context of the other set.  Every
# small context must be used an odd number of times, so multiplicities grow
# only in even increments and parity is preserved.

# The most contexts optimize_pairing, which tries every pairing, takes in the
# larger set.
_PAIRING_SEARCH_LIMIT = 9


def default_pairing(b_large: int, b_small: int) -> tuple[int, ...]:
    """Index-aligned pairing; the first small context absorbs all extras."""
    return tuple(i if i < b_small else 0 for i in range(b_large))


def _check_pairing(pairing: tuple[int, ...], b_large: int, b_small: int) -> None:
    if len(pairing) != b_large:
        raise InvalidPairingError(
            f"pairing covers {len(pairing)} contexts, expected {b_large}"
        )
    if any(j < 0 or j >= b_small for j in pairing):
        raise InvalidPairingError("pairing references a context out of range")
    for j in range(b_small):
        count = pairing.count(j)
        if count % 2 == 0:
            raise InvalidPairingError(
                f"small context {j} used {count} times; every usage count "
                "must be odd"
            )


def _parity_pair(s1: KSSet, s2: KSSet) -> tuple[KSSet, KSSet]:
    """The set with more contexts (s1 on ties) and the other one, after
    checking that both are valid parity sets."""
    ensure_valid(s1)
    ensure_valid(s2)
    if not is_parity(s1) or not is_parity(s2):
        raise NotParityError("both inputs must be parity sets")
    return (s1, s2) if s1.n_contexts >= s2.n_contexts else (s2, s1)


def pz_improved(
    s1: KSSet, s2: KSSet, pairing: tuple[int, ...] | None = None
) -> KSSet:
    """Direct sum of two parity sets with paired contexts: only
    max(B1, B2) contexts survive and the result is again a parity set.
    s1 takes the leading coordinates and s2 the trailing block."""
    large, small = _parity_pair(s1, s2)
    b_large, b_small = large.n_contexts, small.n_contexts
    if pairing is None:
        pairing = default_pairing(b_large, b_small)
    _check_pairing(pairing, b_large, b_small)
    pairs = [(large.contexts[k], small.contexts[j])
             for k, j in enumerate(pairing)]
    if large is not s1:
        pairs = [(c1, c2) for c2, c1 in pairs]
    return _direct_sum(s1, s2, pairs)


def _merge_score(large: KSSet, small: KSSet) -> Callable[[Sequence[int]], int]:
    """Score of a pairing: the number of projectors merge_rank
    removes from pz_improved(large, small, pairing), from context membership
    alone.  A small projector then occurs in every large context paired
    with one of its own, and one projector survives per distinct signature.
    Projectors in no context (signature 0) are never merged."""
    large_sigs = [sig for sig in large.signatures().values() if sig]
    small_sigs = [sig for sig in small.signatures().values() if sig]
    total = len(large_sigs) + len(small_sigs)
    large_groups = set(large_sigs)
    small_groups = [
        [j for j in range(small.n_contexts) if mask >> j & 1]
        for mask in set(small_sigs)
    ]

    def score(pairing: Sequence[int]) -> int:
        p_inv = [0] * small.n_contexts
        for k, j in enumerate(pairing):
            p_inv[j] |= 1 << k
        groups = set(large_groups)
        for sig in small_groups:
            induced = 0
            for j in sig:
                induced |= p_inv[j]
            groups.add(induced)
        return total - len(groups)

    return score


def count_merges(s1: KSSet, s2: KSSet, pairing: tuple[int, ...]) -> int:
    """Number of projectors eliminated by merge_rank after pz_improved with
    the given pairing, computed from context membership alone.  The inputs
    and the pairing are checked as pz_improved checks them."""
    large, small = _parity_pair(s1, s2)
    _check_pairing(pairing, large.n_contexts, small.n_contexts)
    return _merge_score(large, small)(pairing)


def optimize_pairing(s1: KSSet, s2: KSSet) -> tuple[int, ...]:
    """Pairing that maximizes the merged-projector count of
    merge_rank(pz_improved(s1, s2, pairing)), the first in lexicographic
    order among equals.

    The search tries every odd-usage pairing, so it is exact; it raises
    InvalidPairingError when the larger set has more than 9 contexts."""
    large, small = _parity_pair(s1, s2)
    b_large, b_small = large.n_contexts, small.n_contexts
    if b_large > _PAIRING_SEARCH_LIMIT:
        raise InvalidPairingError(
            f"optimize_pairing searches every pairing and takes at most "
            f"{_PAIRING_SEARCH_LIMIT} contexts in the larger set, got {b_large}"
        )
    score = _merge_score(large, small)
    best: tuple[int, tuple[int, ...]] | None = None
    counts = [0] * b_small
    slots = [0] * b_large

    def dfs(pos: int, even: int) -> None:
        """Fill slots[pos:], with even the number of small contexts used an
        even number of times so far (zero included).  Each of them needs one
        more use among the slots left, and the slots beyond those must come
        in pairs."""
        nonlocal best
        if pos == b_large:
            got = score(tuple(slots))
            if best is None or got > best[0]:
                best = (got, tuple(slots))
            return
        remaining = b_large - pos - 1
        for j in range(b_small):
            counts[j] += 1
            slots[pos] = j
            needed = even - 1 if counts[j] % 2 else even + 1
            if needed <= remaining and (remaining - needed) % 2 == 0:
                dfs(pos + 1, needed)
            counts[j] -= 1
        slots[pos] = 0

    dfs(0, b_small)
    # dfs reaches itself through its closure cell; emptying the cell frees
    # the closure now instead of at the next cyclic collection.
    del dfs
    assert best is not None, "no odd-usage pairing exists"
    return best[1]


def merge_rank(s: KSSet) -> KSSet:
    """Merge every group of projectors that occur in exactly the same
    contexts into one projector whose rank is the sum of the group's ranks.
    Grouping by the full context signature reaches the fixpoint in one pass."""
    ensure_valid(s)
    groups: dict[int, list[str]] = {}
    for pid, sig in s.signatures().items():
        if sig:  # a projector in no context is left as it is
            groups.setdefault(sig, []).append(pid)
    rename: dict[str, str] = {}
    merged: dict[str, Projector] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        new_id = "+".join(members)
        span: tuple[Ray, ...] = ()
        for pid in members:
            span += s.projectors[pid].span
            rename[pid] = new_id
        merged[new_id] = Projector(span)
    projs: dict[str, Projector] = {}
    for pid, proj in s.projectors.items():
        new_id = rename.get(pid, pid)
        if new_id not in projs:
            projs[new_id] = merged.get(new_id, proj)
    contexts = [
        tuple(dict.fromkeys(rename.get(pid, pid) for pid in ctx))
        for ctx in s.contexts
    ]
    out = KSSet(s.dimension, projs, contexts, name=s.name)
    ensure_valid(out)
    return out


def split_ranks(s: KSSet) -> KSSet:
    """Replace every higher-rank projector by its recorded span rays as
    individual rank-1 projectors."""
    ensure_valid(s)
    registry = SubspaceIndex()
    expansion: dict[str, list[str]] = {}
    for pid, proj in s.projectors.items():
        if proj.rank == 1:
            expansion[pid] = [registry.add(pid, proj)]
        else:
            ids = []
            for k, ray in enumerate(proj.span, start=1):
                ids.append(registry.add(f"{pid}.{k}", Projector((ray,))))
            expansion[pid] = ids
    contexts = [
        tuple(dict.fromkeys(nid for pid in ctx for nid in expansion[pid]))
        for ctx in s.contexts
    ]
    out = KSSet(s.dimension, registry.table, contexts, name=s.name)
    ensure_valid(out)
    return out


# The most ray entries (n^2 d times the rank sum) rank_scale writes.
MAX_SCALED_ENTRIES = 1 << 20


def rank_scale(s: KSSet, n: int) -> KSSet:
    """Put n block copies of the whole set into orthogonal subspaces; each
    projector becomes the rank-n*r sum of its shifted copies while the
    context structure is unchanged.  n = 1 returns s, a larger n names
    the output name(scale<n>)."""
    ensure_valid(s)
    if n < 1:
        raise BadDimensionError("scale factor must be a positive integer")
    if n == 1:
        return s
    d = s.dimension
    entries = n * n * d * sum(p.rank for p in s.projectors.values())
    if entries > MAX_SCALED_ENTRIES:
        raise BadDimensionError(
            f"scaling by {n} makes {entries} ray entries in dimension "
            f"{n * d}; the limit is {MAX_SCALED_ENTRIES}")
    projs: dict[str, Projector] = {}
    for pid, proj in s.projectors.items():
        projs[pid] = Projector(tuple(
            r.padded(k * d, (n - 1 - k) * d) for k in range(n) for r in proj.span
        ))
    out = KSSet(n * d, projs, [tuple(c) for c in s.contexts],
                name=f"{s.name or 'S'}(scale{n})")
    ensure_valid(out)
    return out


def _unique_contexts(contexts: list[Context]) -> list[Context]:
    """The contexts in order, each member set kept at its first occurrence
    only."""
    unique: dict[frozenset[str], Context] = {}
    for ctx in contexts:
        unique.setdefault(frozenset(ctx), ctx)
    return list(unique.values())


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
    registry = SubspaceIndex()
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
    out = KSSet(d_target, registry.table, _unique_contexts(contexts),
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


def matsuno(s: KSSet, d_target: int) -> KSSet:
    """Coordinate-swap doubling.

    Requires the set's axis projectors of the leading delta = d' - d
    coordinates (after rank-1 decomposition); validation forbids equal
    subspaces, so each coordinate has at most one.  The swapped copy of the
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
    v_ids = axis_basis_ids(s, delta)

    registry = SubspaceIndex()
    amap: dict[str, str] = {}
    for pid, proj in s.projectors.items():
        amap[pid] = registry.add(pid, _pad_projector(proj, 0, delta))
    tmap: dict[str, str] = {}
    for pid, proj in s.projectors.items():
        # The ray padded by delta zeros, its first and last delta entries swapped.
        e = proj.span[0].entries
        image = Projector((Ray((ZERO,) * delta + e[delta:] + e[:delta]),))
        tmap[pid] = registry.add(f"{pid}'", image)
    t_of_v = tuple(tmap[pid] for pid in v_ids)
    v_members = tuple(amap[pid] for pid in v_ids)
    contexts: list[tuple[str, ...]] = []
    for ctx in s.contexts:
        contexts.append(tuple(amap[pid] for pid in ctx) + t_of_v)
    for ctx in s.contexts:
        contexts.append(tuple(tmap[pid] for pid in ctx) + v_members)
    out = KSSet(d_target, registry.table, _unique_contexts(contexts),
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
    if scale.is_zero() or not scale.is_real():
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


# The constructions and their operands: SET is a set, N and D are integers.
# The command line runs each of them; a chain runs all but pz_basic, which
# no table row uses.
OPERANDS = {
    "rank_scale": ("SET", "N"),
    "split_ranks": ("SET",),
    "merge_rank": ("SET",),
    "matsuno": ("SET", "D"),
    "ceg": ("SET", "D"),
    "pz_improved": ("SET", "SET"),
    "pz_basic": ("SET", "SET"),
}
# A word (a function, a seed name or an integer) and whether "(" follows
# it, or any other single character.
_CHAIN_TOKEN = re.compile(r"\s*(?:(\w[\w-]*)\s*(\()?|(\S))", re.ASCII)


def build_chain(chain: str) -> KSSet:
    """Run a construction chain, such as the chains of table_recipe, and
    return the set it builds.

    A chain is a call name(chain, ...) of one of rank_scale, split_ranks,
    merge_rank, matsuno, ceg and pz_improved, a catalog or seed name such
    as d4-18-9-rot, or a nonnegative integer; the whole chain must give a
    set.  Arguments are built left to right, and each call runs once its
    arguments are built.  A malformed chain raises ChainSyntaxError and an
    unknown name UnknownNameError.

    The set is named after the chain, its whitespace runs made single
    spaces, unless it is a seed the chain names (as rank_scale(s, 1) gives
    s): catalog sets are shared, so they keep their own names."""
    calls: list[tuple[str, list]] = [("", [])]  # open calls and their args
    seeds: list[KSSet] = []
    want_arg = True
    for word, paren, punct in _CHAIN_TOKEN.findall(chain):
        if want_arg and paren:
            if word not in OPERANDS or word == "pz_basic":
                raise ChainSyntaxError(f"unknown chain function {word!r}")
            calls.append((word, []))
        elif want_arg and word[:1].isdigit():
            if not word.isdecimal():
                raise ChainSyntaxError(f"{word!r} is not a nonnegative integer")
            try:
                calls[-1][1].append(int(word))
            except ValueError:  # more digits than int() converts
                raise ChainSyntaxError("number too long in chain") from None
            want_arg = False
        elif want_arg and word:
            seeds.append(catalog.seed_set(word))
            calls[-1][1].append(seeds[-1])
            want_arg = False
        elif not want_arg and punct == "," and len(calls) > 1:
            want_arg = True
        elif not want_arg and punct == ")" and len(calls) > 1:
            name, args = calls.pop()
            kinds = tuple("SET" if isinstance(a, KSSet) else "integer" for a in args)
            if kinds != tuple(k if k == "SET" else "integer" for k in OPERANDS[name]):
                raise ChainSyntaxError(
                    f"{name} takes ({', '.join(OPERANDS[name])}), "
                    f"got ({', '.join(kinds)})")
            # Looked up when the chain runs, so that a rebound module
            # attribute (the benchmark's tracer rebinds them) sees the call.
            calls[-1][1].append(globals()[name](*args))
        else:
            raise ChainSyntaxError(
                f"unexpected {word + paren or punct!r} in chain {chain!r}")
    if want_arg or len(calls) > 1:
        raise ChainSyntaxError(f"chain {chain!r} ends early")
    out = calls[0][1][0]
    if not isinstance(out, KSSet):
        raise ChainSyntaxError(f"chain {chain!r} gives no set")
    if any(out is seed for seed in seeds):
        return out
    # replace keeps the validation flag and the orthogonality masks.
    return replace(out, name=" ".join(chain.split()))


@dataclass
class Recipe:
    """One dimension-table row: predicted compact symbols and the chains
    that build the general-rank and the all-rank-1 variant."""

    dimension: int
    row: str
    general_symbol: str | None
    rank1_symbol: str | None
    critical: bool
    general_chain: str | None = None
    rank1_chain: str | None = None

    def build_general(self) -> KSSet | None:
        return build_chain(self.general_chain) if self.general_chain else None

    def build_rank1(self) -> KSSet | None:
        return build_chain(self.rank1_chain) if self.rank1_chain else None

    def sort_key(self) -> tuple[int, int]:
        keys = []
        for sym in (self.general_symbol, self.rank1_symbol):
            if sym:
                r, b = sym.split("-")
                keys.append((int(b), int(r)))
        return min(keys)


def table_recipe(d: int) -> list[Recipe]:
    """All table rows that apply to dimension d, sorted by (context count,
    projector count).  Overlapping rows are all returned."""
    if d < 3:
        raise BadDimensionError("the table starts at dimension 3")
    rows: list[Recipe] = []

    def row(label: str, general_symbol: str | None, rank1_symbol: str | None,
            critical: bool, general_chain: str | None,
            rank1_chain: str | None) -> None:
        rows.append(Recipe(d, label, general_symbol, rank1_symbol, critical,
                           general_chain, rank1_chain))

    # "kn": n = d/k block copies.  A seed named dK-R-B has R projectors and
    # B contexts in dimension K.  The general chain scales the general seed
    # up to d, keeping its symbol; the rank-1 chain splits n copies of the
    # all-rank-1 seed of dimension k into nR rays.
    for k, general, rank1 in (
        (3, "d3-49-36", "d3-49-36"), (4, "d4-18-9", "d4-18-9"),
        (5, "d5-29-16", "d5-29-16"), (6, "d6-21-7", "d6-21-7"),
        (7, "d7-32-12", "d7-32-12"), (8, "d4-18-9", "d8-34-9"),
        (9, "d9-39-13", "d9-39-13"), (10, "d10-30-9", "d10-39-9"),
        (11, "d11-40-12", "d11-40-12"),
    ):
        if d % k == 0:
            n = d // k
            general_dim, r, b = map(int, general[1:].split("-"))
            r1 = int(rank1.split("-")[1])
            row(f"{k}n", f"{r}-{b}", f"{r1 * n}-{b}", True,
                f"rank_scale({general}, {d // general_dim})",
                f"split_ranks(rank_scale({rank1}, {n}))")
    # "6m+r": the swap extension of m split copies of the axis-basis 21-7,
    # and its rank merge.
    for r, general, extra, b in ((1, "43-12", 11, 12), (3, "57-13", 18, 13),
                                 (5, "61-13", 20, 13)):
        m = (d - r) // 6
        if d % 6 == r and m >= 2:
            base = f"matsuno(split_ranks(rank_scale(d6-21-7-basis, {m})), {d})"
            row(f"6m+{r}", general, f"{21 * m + extra}-{b}", True,
                f"merge_rank({base})", base)
    if d % 6 == 2 and d >= 8:
        n = (d - 2) // 6
        chain = "d8-34-9" if n == 1 else (
            f"pz_improved(d8-34-9, split_ranks(rank_scale(d6-21-7, {n - 1})))")
        row("6n+2", None, f"{21 * n + 13}-9", True, None, chain)
    if d % 6 == 4 and d >= 10:
        n = (d - 4) // 6
        row("6n+4", None, f"{21 * n + 18}-9", True, None,
            f"pz_improved(d4-18-9, split_ranks(rank_scale(d6-21-7, {n})))")
    if d % 2 == 0 and d >= 10:
        for n in range(1, d // 6 + 1):
            l, rest = divmod(d - 6 * n, 4)
            if l >= 1 and rest == 0:
                row("6n+4l", "30-9", None, True,
                    f"merge_rank(pz_improved(rank_scale(d4-18-9, {l}), "
                    f"rank_scale(d6-21-7, {n})))", None)
                break
    if d % 2 == 1 and d >= 7:
        row("2n+5", "45-15", None, False,
            f"ceg(rank_scale(d6-21-7, {d // 12 + 1}), {d})", None)
    if d % 2 == 1 and d >= 5:
        # The rotated seed: padding the raw 18 rays makes some of them
        # coincide, which drops the count below 39 in d = 5, 7 and 9.
        row("2n+3", "39-19", None, False,
            f"ceg(rank_scale(d4-18-9-rot, {d // 8 + 1}), {d})", None)
    rows.sort(key=Recipe.sort_key)
    return rows
