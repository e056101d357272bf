"""Constructions that combine or extend sets across dimensions.

Implemented methods: zero-padding direct sums with context pairing (the
first set takes the leading coordinates), the rank-scaling of a whole set
into block copies, the padded doubling with three pad projectors,
coordinate-swap doubling over the set's own axis projectors, splitting and
merging ranks, and the dimension-table recipes that chain them.  Each is
fixed by its input sets and target dimension, and each returns through one
assembly step, _assemble, which identifies equal subspaces and drops
repeated members and member sets.  The greedy reduction to a critical
core, reduce_critical, runs beside the search in verify and is re-exported
here.

Each table row writes its constructions down once, as a chain string such
as ``split_ranks(rank_scale(d6-21-7, 2))``; build_chain runs any such string
and is the only way the table builds a set.  A construction called on its
own validates the set it returns; build_chain validates, in full, only the
set the chain gives, which covers the sets built on the way (see there).
"""

from __future__ import annotations

import re
from collections import namedtuple

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
    inner,
    orthogonal,
)
from .setfile import _fresh, _ray_ids
# find_assignment and reduce_critical stay bound here: the benchmark's tracer
# (perfbench/spans.py) looks them up in this module and wraps them in every
# module that binds them, and its own tests check that.
from .verify import find_assignment, is_parity, reduce_critical  # noqa: F401


def _pad_projector(proj: Projector, prepend: int, append: int) -> Projector:
    return Projector(tuple(r.padded(prepend, append) for r in proj.span))


def _assemble(
    dimension: int,
    parts: list[tuple[str, Projector]],
    contexts: list[Context],
    name: str | None,
    deferred: bool,
) -> KSSet:
    """The set of the labelled parts and the contexts over their labels,
    validated unless it is deferred, which it is when the operands it was
    built from are (KSSet._deferred).  Equal subspaces are identified under
    the first label, each context keeps a member once, and a context whose
    member set an earlier one has is dropped."""
    index = SubspaceIndex()
    first = {label: index.add(label, proj) for label, proj in parts}
    unique: dict[frozenset[str], Context] = {}
    for ctx in contexts:
        members = tuple(dict.fromkeys(map(first.__getitem__, ctx)))
        unique.setdefault(frozenset(members), members)
    out = KSSet(dimension, index.table, list(unique.values()), name=name,
                _deferred=deferred)
    ensure_valid(out)
    return out


def _direct_sum(
    s1: KSSet,
    s2: KSSet,
    pairs: list[tuple[Context, Context]],
) -> KSSet:
    """Direct sum whose contexts join c1 of s1 with c2 of s2 for each
    (c1, c2) in pairs: s1 occupies the leading block and s2 the trailing
    block."""
    d1, d2 = s1.dimension, s2.dimension
    parts = [(f"a{pid}", _pad_projector(p, 0, d2))
             for pid, p in s1.projectors.items()]
    parts += [(f"b{pid}", _pad_projector(p, d1, 0))
              for pid, p in s2.projectors.items()]
    contexts = [
        tuple(f"a{pid}" for pid in c1) + tuple(f"b{pid}" for pid in c2)
        for c1, c2 in pairs
    ]
    return _assemble(d1 + d2, parts, contexts,
                     f"{s1.name or 'A'}(+){s2.name or 'B'}",
                     s1._deferred and s2._deferred)


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


def default_pairing(b_large: int, b_small: int) -> tuple[int, ...]:
    """Index-aligned pairing; the first small context absorbs all extras."""
    return tuple(i if i < b_small else 0 for i in range(b_large))


def _check_pairing(pairing: tuple[int, ...], b_large: int, b_small: int) -> None:
    """Raise InvalidPairingError unless pairing is a valid pairing.  Its
    messages number contexts from 1, as `ksets construct pz --pairing`
    does, so small context j is named j + 1."""
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
                f"small context {j + 1} used {count} times; every usage count "
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


def merge_rank(s: KSSet) -> KSSet:
    """Merge every group of projectors that occur in exactly the same
    contexts into one projector, labelled by the group's ids joined with
    "+" and made _fresh against the ids in use, whose rank is the sum of
    the group's ranks.  Grouping by the full context signature reaches the
    fixpoint in one pass.  Equal subspaces are identified, and a context
    whose member set repeats an earlier one is dropped."""
    ensure_valid(s)
    sigs = s.signatures()
    groups: dict[int | str, list[str]] = {}
    for pid, sig in sigs.items():
        # A projector in no context (signature 0) is left as it is.
        groups.setdefault(sig or pid, []).append(pid)
    taken = set(s.projectors)
    label = {sig: members[0] if len(members) == 1 else
             _fresh("+".join(members), taken)
             for sig, members in groups.items()}
    parts = [
        (label[sig], s.projectors[members[0]] if len(members) == 1 else
         Projector(tuple(r for pid in members for r in s.projectors[pid].span)))
        for sig, members in groups.items()
    ]
    contexts = [tuple(label[sigs[pid]] for pid in ctx) for ctx in s.contexts]
    return _assemble(s.dimension, parts, contexts, s.name, s._deferred)


def split_ranks(s: KSSet) -> KSSet:
    """Replace every higher-rank projector by its recorded span rays as
    individual rank-1 projectors, under the ids a set file gives those rays
    (p.1 ... p.r for a projector p).  Equal subspaces are identified, and a
    context whose member set repeats an earlier one is dropped."""
    ensure_valid(s)
    ray_ids = _ray_ids(s)
    parts = [
        (rid, proj if proj.rank == 1 else Projector((ray,)))
        for pid, proj in s.projectors.items()
        for rid, ray in zip(ray_ids[pid], proj.span)
    ]
    contexts = [tuple(rid for pid in ctx for rid in ray_ids[pid])
                for ctx in s.contexts]
    return _assemble(s.dimension, parts, contexts, s.name, s._deferred)


# The most ray entries rank_scale (n^2 d times the rank sum) and ceg (d'
# times twice the rank sum plus d') write.
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
    parts = [
        (pid, Projector(tuple(r.padded(k * d, (n - 1 - k) * d)
                              for k in range(n) for r in proj.span)))
        for pid, proj in s.projectors.items()
    ]
    return _assemble(n * d, parts, s.contexts, f"{s.name or 'S'}(scale{n})",
                     s._deferred)


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
    entries = d_target * (2 * sum(p.rank for p in s.projectors.values())
                          + d_target)
    if entries > MAX_SCALED_ENTRIES:
        raise BadDimensionError(
            f"doubling into dimension {d_target} makes {entries} ray "
            f"entries; the limit is {MAX_SCALED_ENTRIES}")
    delta = d_target - d
    parts = [(f"a{pid}", _pad_projector(proj, 0, delta))
             for pid, proj in s.projectors.items()]
    parts += [(f"b{pid}", _pad_projector(proj, delta, 0))
              for pid, proj in s.projectors.items()]
    unit = Ray((ONE,))
    for label, axes in (("padL", range(delta)), ("padC", range(delta, d)),
                        ("padR", range(d, d_target))):
        rays = tuple(unit.padded(i, d_target - 1 - i) for i in axes)
        parts.append((label, Projector(rays)))
    contexts = [("padL", "padC", "padR")]
    contexts += [tuple(f"a{pid}" for pid in ctx) + ("padR",) for ctx in s.contexts]
    contexts += [tuple(f"b{pid}" for pid in ctx) + ("padL",) for ctx in s.contexts]
    return _assemble(d_target, parts, contexts, f"{s.name or 'S'}(ceg{d_target})",
                     s._deferred)


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
    v_ids = tuple(axis_basis_ids(s, delta))
    parts = [(pid, _pad_projector(proj, 0, delta))
             for pid, proj in s.projectors.items()]
    taken = set(s.projectors)
    swapped = {pid: _fresh(f"{pid}'", taken) for pid in s.projectors}
    for pid, proj in s.projectors.items():
        # The ray padded by delta zeros, its first and last delta entries swapped.
        e = proj.span[0].entries
        image = Ray((ZERO,) * delta + e[delta:] + e[:delta])
        parts.append((swapped[pid], Projector((image,))))
    t_of_v = tuple(swapped[pid] for pid in v_ids)
    contexts = [tuple(ctx) + t_of_v for ctx in s.contexts]
    contexts += [tuple(swapped[pid] for pid in ctx) + v_ids for ctx in s.contexts]
    return _assemble(d_target, parts, contexts, f"{s.name or 'S'}(swap{d_target})",
                     s._deferred)


def apply_transform(s: KSSet, matrix: list[list[CycNum]]) -> KSSet:
    """Apply a scaled unitary to every ray.  The matrix must satisfy
    M^dagger M = c I exactly for a nonzero real c of the field, which
    preserves all orthogonality relations."""
    ensure_valid(s)
    d = s.dimension
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise NotScaledUnitaryError(f"matrix must be {d}x{d}")
    cols = [Ray(row[j] for row in matrix) for j in range(d)]
    scale = inner(cols[0], cols[0])
    for i, col in enumerate(cols):
        if inner(col, col) != scale:
            raise NotScaledUnitaryError("columns have unequal norms")
        for j in range(i + 1, d):
            if not orthogonal(col, cols[j]):
                raise NotScaledUnitaryError(f"columns {i} and {j} not orthogonal")
    if scale.is_zero():
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

    parts = [(pid, Projector(tuple(apply(r) for r in proj.span)))
             for pid, proj in s.projectors.items()]
    return _assemble(d, parts, s.contexts, s.name, s._deferred)


# The constructions and their operands: SET is a set, N and D are integers.
# `ksets construct` runs the five that cli._CONSTRUCT_METHODS names, all but
# split_ranks and merge_rank; a chain runs all but pz_basic, which no table
# row uses.
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
    s): catalog sets are shared, so they keep their own names.

    Only the set the chain gives is validated, in full; the sets built on
    the way are not, and no caller sees them.  The steps take deferred
    copies of the seeds (KSSet._deferred), so they neither check their
    operands nor the sets they build, and build_chain validates the last
    one.  That check covers every step: each construction keeps every
    projector of its operand, padded, shifted, split into its span rays or
    merged with the projectors that share all its contexts, and every
    context, extended by projectors orthogonal to it.  So a zero span ray,
    two non-orthogonal span rays of a projector in some context, a rank
    sum off the dimension or two non-orthogonal members of a context in a
    set on the way shows again in the chain's set, and fails its
    validation.  Each construction also takes valid operands to a valid
    set, and the seeds are validated when they load."""
    calls: list[tuple[str, list]] = [("", [])]  # open calls and their args
    seeds: list[tuple[KSSet, KSSet]] = []  # each seed and its deferred copy
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
            seed = catalog.seed_set(word)
            seeds.append((seed, seed.copy(_deferred=True)))
            calls[-1][1].append(seeds[-1][1])
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
    for seed, copy in seeds:
        if out is copy:
            return seed
    out = out.copy(name=" ".join(chain.split()), _deferred=False)
    ensure_valid(out)
    return out


class Recipe(namedtuple("Recipe", (
        "dimension row general_symbol rank1_symbol critical general_chain "
        "rank1_chain"))):
    """One dimension-table row: predicted compact symbols and the chains
    that build the general-rank and the all-rank-1 variant (None where the
    row has none)."""

    __slots__ = ()

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
