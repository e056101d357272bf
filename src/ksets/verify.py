"""Colorability, the KS property, parity, criticality, and the greedy
reduction to a critical core.

A valuation assigns 0/1 to every projector so that each complete context
contains exactly one 1 and (in full mode) no two orthogonal projectors are
both 1.  The search is complete: exhaustive backtracking over contexts with
unit propagation, so absence of a witness is a proof of uncolorability.
_check states the rule once, on projector ids and the orthogonality masks,
and re-checks every witness the search returns, those of is_critical's
removals included, also under python -O.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .errors import NotKSError
from .model import Context, KSSet, ensure_valid, orthogonality_graph, union_of


class Mode(str, Enum):
    """Which at-most-one constraints apply besides one-1-per-context."""

    FULL = "full"          # every orthogonal pair excludes a double 1
    CONTEXT_ONLY = "context"  # only pairs sharing a context exclude it

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _natural_key(pid: str):
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", pid)
        if part
    )


@dataclass(frozen=True)
class Assignment:
    """A 0/1 valuation of projector ids."""

    values: dict[str, int]

    def lines(self) -> str:
        return "\n".join(
            f"{pid}={self.values[pid]}"
            for pid in sorted(self.values, key=_natural_key)
        )


@dataclass
class SearchStats:
    """What one or more searches did.

    nodes: search states reached after unit propagation, the root included;
    propagations: projectors set to 1 by unit propagation;
    conflicts: propagations that ended in a contradiction;
    max_depth: most branching decisions on one path.
    Counts add up over searches; max_depth keeps the largest.
    """

    nodes: int = 0
    propagations: int = 0
    conflicts: int = 0
    max_depth: int = 0


@dataclass
class _Problem:
    """A set compiled for the search, and the start state of every search
    on it: orth, the at-most-one masks of all contexts (bitmasks in ids
    order), and allowed, the projectors that occur in some context.
    ctx_masks holds each context's members (see KSSet.members) and sigs
    each projector's context signature (see KSSet.signatures)."""

    ids: list[str]
    index: dict[str, int]
    ctx_masks: list[int]
    mode: Mode
    sigs: list[int]
    orth: Sequence[int]
    allowed: int

    def drop_context(
        self, c: int, rest: int, orth: Sequence[int], allowed: int
    ) -> tuple[Sequence[int], int]:
        """At-most-one masks and allowed projectors once context c leaves.

        orth and allowed belong to the active contexts, rest is their
        bitmask without c.  Only c's members can change: each keeps what the
        rest of its contexts give it, and is no longer allowed when none is
        left.  Full-mode masks never change."""
        by_context = self.mode is Mode.CONTEXT_ONLY
        if by_context:
            orth = list(orth)
        members = self.ctx_masks[c]
        while members:
            bit = members & -members
            members ^= bit
            v = bit.bit_length() - 1
            row = union_of(self.ctx_masks, self.sigs[v] & rest)
            if not row:
                allowed &= ~bit
            if by_context:
                orth[v] = row & ~bit
        return orth, allowed

    def solve_without(
        self,
        c: int,
        active: int,
        orth: Sequence[int],
        allowed: int,
        stats: SearchStats | None,
    ) -> tuple[int | None, Sequence[int], int]:
        """Search the active contexts (a bitmask) without context c.

        orth and allowed belong to active.  Returns the search's result
        with the at-most-one masks and allowed projectors of active - c."""
        rest = active & ~(1 << c)
        orth, allowed = self.drop_context(c, rest, orth, allowed)
        masks = [m for ci, m in enumerate(self.ctx_masks) if rest >> ci & 1]
        return _solve(masks, orth, allowed, stats), orth, allowed


def _compile(s: KSSet, mode: Mode) -> _Problem:
    ensure_valid(s)
    ids = list(s.projectors)
    index = {pid: i for i, pid in enumerate(ids)}
    ctx_masks = s.members()
    sigs = list(s.signatures().values())
    allowed = union_of(ctx_masks, (1 << len(ctx_masks)) - 1)
    if mode is Mode.FULL:
        # Called through this module's binding, which tracers wrap.
        orth: Sequence[int] = orthogonality_graph(s)
    else:
        # Only projectors that share a context exclude each other.
        orth = [union_of(ctx_masks, sig) & ~(1 << v)
                for v, sig in enumerate(sigs)]
    return _Problem(ids, index, ctx_masks, mode, sigs, orth, allowed)


def _solve(
    masks: list[int],
    orth: Sequence[int],
    allowed: int,
    stats: SearchStats | None = None,
) -> int | None:
    """Return a bitmask of projectors valued 1, or None when uncolorable.

    masks are the member masks of the active contexts, orth[v] the
    projectors that a 1 at v forces to 0, and projectors outside allowed
    start at 0.  Branches on the unsatisfied context with the fewest
    undecided members (ties to the first in masks); members are tried in
    ascending projector index, so results are deterministic.  The counts
    of the search are added to stats when it is given.
    """
    nodes = propagations = conflicts = max_depth = 0

    def propagate(ones: int, zeros: int, new: int, open_masks):
        """Unit propagation to its fixpoint, or None on a conflict.

        new holds the projectors just set to 1 whose exclusions are not yet
        applied.  The fixpoint does not depend on the order units are found
        in.  The last pass finds no unit; it also collects the masks still
        unsatisfied and picks the branch, returned as its undecided mask
        (0 when every context is satisfied)."""
        nonlocal propagations
        while True:
            while new:
                bit = new & -new
                new ^= bit
                zeros |= orth[bit.bit_length() - 1]
            if ones & zeros:
                return None
            free = ~zeros
            still = []
            branch = 0
            fewest = 1 << 62
            for m in open_masks:
                if m & ones:
                    continue
                und = m & free
                if und & (und - 1):
                    if not new:
                        still.append(m)
                        count = und.bit_count()
                        if count < fewest:
                            fewest = count
                            branch = und
                elif und:
                    ones |= und
                    new |= und
                    propagations += 1
                else:
                    return None
            if not new:
                return ones, zeros, still, branch

    def search(ones: int, zeros: int, open_masks, branch: int, depth: int):
        nonlocal nodes, conflicts, max_depth
        nodes += 1
        if depth > max_depth:
            max_depth = depth
        if not branch:
            return ones
        depth += 1
        rest = branch
        while rest:
            bit = rest & -rest
            rest ^= bit
            state = propagate(ones | bit, zeros, bit, open_masks)
            if state is None:
                conflicts += 1
                continue
            result = search(*state, depth)
            if result is not None:
                return result
        return None

    state = propagate(0, ~allowed, 0, masks)
    if state is None:
        conflicts += 1
        result = None
    else:
        result = search(*state, 0)
    # search reaches itself through its closure cell; emptying the cell
    # frees the closure now instead of at the next cyclic collection.
    del search
    if stats is not None:
        stats.nodes += nodes
        stats.propagations += propagations
        stats.conflicts += conflicts
        stats.max_depth = max(stats.max_depth, max_depth)
    return result


def _compile_uncolorable(
    s: KSSet, mode: Mode, stats: SearchStats | None, why: str
) -> _Problem:
    """Compile s and prove it uncolorable, else raise NotKSError(why)."""
    problem = _compile(s, mode)
    mask = _solve(problem.ctx_masks, problem.orth, problem.allowed, stats)
    if mask is not None:
        raise NotKSError(f"set is colorable; {why}")
    return problem


def _check(s: KSSet, asg: Assignment, mode: Mode,
           contexts: Sequence[Context] | None = None) -> bool:
    """Independent re-check of an assignment against the rule: every value
    is 0 or 1, every context (of s, or the given contexts) holds exactly one
    1, and in full mode no two 1s are orthogonal."""
    values = asg.values
    if any(v not in (0, 1) for v in values.values()):
        return False
    for ctx in s.contexts if contexts is None else contexts:
        if sum(values[pid] for pid in ctx) != 1:
            return False
    if mode is Mode.FULL:
        graph = orthogonality_graph(s)
        index = {pid: i for i, pid in enumerate(s.projectors)}
        ones = [index[pid] for pid, v in values.items() if v]
        mask = sum(1 << i for i in ones)
        return not any(graph[i] & mask for i in ones)
    return True


def find_assignment(
    s: KSSet, mode: Mode = Mode.FULL, stats: SearchStats | None = None
) -> Assignment | None:
    """A valid 0/1 assignment for the given mode, or None when none exists.
    The counts of the search are added to stats when it is given."""
    problem = _compile(s, mode)
    mask = _solve(problem.ctx_masks, problem.orth, problem.allowed, stats)
    if mask is None:
        return None
    values = {pid: 1 if mask >> i & 1 else 0 for i, pid in enumerate(problem.ids)}
    asg = Assignment(values)
    if not _check(s, asg, mode):
        raise AssertionError("search returned an invalid assignment")
    return asg


def is_ks(s: KSSet) -> bool:
    """True when no valid assignment exists under the full orthogonality rules."""
    return find_assignment(s, Mode.FULL) is None


def is_parity(s: KSSet) -> bool:
    """True when every projector multiplicity is even and the context count
    is odd, which forbids a valid assignment by counting alone."""
    ensure_valid(s)
    if s.n_contexts % 2 == 0:
        return False
    return all(sig.bit_count() % 2 == 0 for sig in s.signatures().values())


@dataclass
class CriticalityReport:
    """Per-context removal outcomes: a witness assignment or None, and the
    search counts of the whole check."""

    mode: Mode
    removals: list[Assignment | None]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def overall(self) -> bool:
        return all(w is not None for w in self.removals)

    @property
    def n_colorable(self) -> int:
        return sum(1 for w in self.removals if w is not None)


def is_critical(s: KSSet, mode: Mode = Mode.FULL) -> CriticalityReport:
    """Remove each context in turn, restrict to the projectors still used,
    and search for a witness; overall-critical iff every removal has one.
    Each witness is re-checked by _check over the remaining contexts."""
    stats = SearchStats()
    problem = _compile_uncolorable(s, mode, stats, "criticality undefined")
    every = (1 << len(problem.ctx_masks)) - 1
    removals: list[Assignment | None] = []
    for removed in range(len(problem.ctx_masks)):
        mask, _, allowed = problem.solve_without(
            removed, every, problem.orth, problem.allowed, stats)
        if mask is None:
            removals.append(None)
            continue
        values = {
            problem.ids[i]: 1 if mask >> i & 1 else 0
            for i in range(len(problem.ids))
            if allowed >> i & 1
        }
        asg = Assignment(values)
        if not _check(s, asg, mode, s.contexts[:removed] + s.contexts[removed + 1:]):
            raise AssertionError("search returned an invalid removal witness")
        removals.append(asg)
    return CriticalityReport(mode, removals, stats)


def reduce_critical(
    s: KSSet, mode: Mode = Mode.FULL, stats: SearchStats | None = None
) -> KSSet:
    """Greedily remove contexts whose removal keeps the set uncolorable,
    in one scan in ascending context order; the remainder is critical.
    The counts of every search are added to stats when it is given.

    One scan suffices: a context c is kept when active - c has a coloring,
    and that coloring, restricted to the projectors still allowed, colors
    every subset of active - c.  Later removals only shrink active, so c
    stays necessary and a second scan would remove nothing.

    The core is not validated again: its contexts are a subset of the
    validated input's contexts and its projectors are exactly those they
    use, and every check of validation holds on such a subset."""
    problem = _compile_uncolorable(s, mode, stats, "nothing to reduce")
    active = (1 << len(problem.ctx_masks)) - 1  # bit ci: context ci is kept
    orth, allowed = problem.orth, problem.allowed
    for c in range(len(problem.ctx_masks)):
        mask, trial_orth, trial_allowed = problem.solve_without(
            c, active, orth, allowed, stats)
        if mask is None:
            active &= ~(1 << c)
            orth, allowed = trial_orth, trial_allowed
    contexts = [
        tuple(ctx) for ci, ctx in enumerate(s.contexts) if active >> ci & 1
    ]
    used = {pid for ctx in contexts for pid in ctx}
    projs = {pid: p for pid, p in s.projectors.items() if pid in used}
    return KSSet(s.dimension, projs, contexts, name=s.name)


def export_cnf(s: KSSet, mode: Mode = Mode.FULL) -> str:
    """DIMACS CNF whose models are exactly the valid assignments.

    Variable i is the i-th projector in file order.  One positive clause per
    context; one binary negative clause per at-most-one pair (context
    internal pairs in context mode, all orthogonality edges in full mode).
    """
    problem = _compile(s, mode)
    n = len(problem.ids)
    pairs = []
    for i, m in enumerate(problem.orth):
        later = m >> (i + 1)
        while later:
            bit = later & -later
            later ^= bit
            pairs.append((i, i + bit.bit_length()))
    lines = []
    for i, pid in enumerate(problem.ids):
        lines.append(f"c var {i + 1} = projector {pid}")
    lines.append(f"p cnf {n} {len(s.contexts) + len(pairs)}")
    for ctx in s.contexts:
        lits = " ".join(str(problem.index[pid] + 1) for pid in ctx)
        lines.append(f"{lits} 0")
    for i, j in pairs:
        lines.append(f"-{i + 1} -{j + 1} 0")
    return "\n".join(lines) + "\n"
