"""Colorability, the KS property, parity, criticality, and the greedy
reduction to a critical core.

A valuation assigns 0/1 to every projector so that each complete context
contains exactly one 1 and (in full mode) no two orthogonal projectors are
both 1.  The search is complete: exhaustive backtracking over contexts with
unit propagation, so absence of a witness is a proof of uncolorability.  It
runs as one depth-first loop over an explicit stack of states, so its depth
is bounded by memory, not by the interpreter's recursion limit.
_check states the rule once, on projector ids and the orthogonality masks,
and re-checks every witness the search returns, those of is_critical's
removals included, also under python -O.

In context mode, projectors with the same context signature share every
constraint, so they are interchangeable (neighbourhood interchangeability,
Freuder, AAAI-91): at most one of them is 1, and any of them can take it.
The search keeps the first of each class, and a context-mode witness puts
its 1s on class representatives.  Every full-mode coloring is a
context-mode coloring, so is_ks refutes in context mode first, without the
orthogonality graph, and builds the graph only for a set whose contexts
alone can be colored.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
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


class Assignment(namedtuple("Assignment", "values")):
    """A 0/1 valuation: values maps each projector id to 0 or 1."""

    __slots__ = ()

    def lines(self) -> str:
        return "\n".join(
            f"{pid}={self.values[pid]}"
            for pid in sorted(self.values, key=_natural_key)
        )


class SearchStats:
    """What one or more searches did.

    nodes: search states reached after unit propagation, the root included;
    propagations: projectors set to 1 by unit propagation;
    conflicts: branches tried, and roots, whose unit propagation ended in a
    contradiction (a 1 excluded, or a context with no member left); it
    counts search states, not propagations, and may exceed them;
    max_depth: most branching decisions on one path.
    Counts add up over searches; max_depth keeps the largest.  Stats
    compare equal when every count is.
    """

    __slots__ = ("nodes", "propagations", "conflicts", "max_depth")

    def __init__(self):
        self.nodes = self.propagations = self.conflicts = self.max_depth = 0

    def __eq__(self, other) -> bool:
        return isinstance(other, SearchStats) and all(
            getattr(self, a) == getattr(other, a) for a in self.__slots__)


class _Problem(namedtuple(
        "_Problem", "ids ctx_masks mode sigs orth allowed")):
    """A set compiled for the search, and the start state of every search
    on it: orth, the at-most-one masks of all contexts (bitmasks in ids
    order), and allowed, the projectors the search may set to 1 (see
    _compile).
    ctx_masks holds each context's members (see KSSet.members) and sigs
    each projector's context signature (see KSSet.signatures); ids are
    the projector ids in order."""

    __slots__ = ()

    def solve_without(
        self,
        run: int,
        active: int,
        orth: Sequence[int],
        allowed: int,
        stats: SearchStats | None,
    ) -> tuple[int | None, Sequence[int], int]:
        """Search the active contexts without the contexts of run; both are
        bitmasks of context indices, and run lies inside active.

        orth and allowed belong to active.  Returns the search's result
        with the at-most-one masks and allowed projectors of active - run.
        Only the run's members can change: each keeps what the rest of its
        contexts give it, and is no longer allowed when none is left.  A
        member's row depends only on rest, so dropping the run at once
        equals dropping its contexts one by one.  Full-mode masks never
        change."""
        rest = active & ~run
        by_context = self.mode is Mode.CONTEXT_ONLY
        if by_context:
            orth = list(orth)
        members = union_of(self.ctx_masks, run)
        while members:
            bit = members & -members
            members ^= bit
            v = bit.bit_length() - 1
            row = union_of(self.ctx_masks, self.sigs[v] & rest)
            if not row:
                allowed &= ~bit
            if by_context:
                orth[v] = row & ~bit
        masks = [m for ci, m in enumerate(self.ctx_masks) if rest >> ci & 1]
        return _solve(masks, orth, allowed, stats), orth, allowed


def _compile(s: KSSet, mode: Mode) -> _Problem:
    """Validate s and compile it for the search in the given mode.

    In full mode every projector that some context holds is allowed, and
    orth is the orthogonality graph.  In context mode a projector excludes
    the members of its contexts, and only the first projector of each
    nonzero signature class is allowed; the rest of the class starts at 0.
    Removing contexts keeps a class together, so the searches of
    is_critical and reduce_critical, which start from this allowed mask,
    keep one member per class too."""
    ensure_valid(s)
    ids = list(s.projectors)
    ctx_masks = s.members()
    sigs = list(s.signatures().values())
    if mode is Mode.FULL:
        allowed = union_of(ctx_masks, (1 << len(ctx_masks)) - 1)
        # Called through this module's binding, which tracers wrap.
        orth: Sequence[int] = orthogonality_graph(s)
    else:
        reps = {}
        for v, sig in enumerate(sigs):
            reps.setdefault(sig, 1 << v)
        reps.pop(0, None)
        allowed = sum(reps.values())
        # Only projectors that share a context exclude each other.
        orth = [union_of(ctx_masks, sig) & ~(1 << v)
                for v, sig in enumerate(sigs)]
    return _Problem(ids, ctx_masks, mode, sigs, orth, allowed)


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
    ascending projector index, so results are deterministic.  One
    depth-first loop runs the search over an explicit stack of the states
    on the current path, so no recursion limit bounds its depth.  The
    counts of the search are added to stats when it is given.
    """
    nodes = propagations = conflicts = max_depth = 0

    def propagate(ones: int, zeros: int, new: int, open_masks):
        """Unit propagation to its fixpoint, or None on a conflict.

        new holds the projectors just set to 1 whose exclusions are not yet
        applied.  The fixpoint does not depend on the order units are found
        in.  The last pass finds no unit; it also collects the masks still
        unsatisfied and picks the branch, returned as its undecided mask
        (0 when every context is satisfied).  The state comes back as the
        list [ones, zeros, still, branch], which is the search's frame."""
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
                return [ones, zeros, still, branch]

    # A frame's branch mask keeps the members not yet tried; a child of the
    # top frame has depth len(stack).
    result = None
    stack = []
    state = propagate(0, ~allowed, 0, masks)
    if state is None:
        conflicts = 1
    else:
        nodes = 1
        if state[3]:
            stack.append(state)
        else:
            result = state[0]
    while stack:
        frame = stack[-1]
        branch = frame[3]
        if not branch:
            stack.pop()
            continue
        bit = branch & -branch
        frame[3] = branch ^ bit
        state = propagate(frame[0] | bit, frame[1], bit, frame[2])
        if state is None:
            conflicts += 1
            continue
        nodes += 1
        if len(stack) > max_depth:
            max_depth = len(stack)
        if not state[3]:
            result = state[0]
            break
        stack.append(state)
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
    """True when no valid assignment exists under the full orthogonality rules.

    Every full-mode coloring is a context-mode coloring, so a set whose
    contexts alone admit none is KS, and proving it needs no orthogonality
    graph.  Only a set that context mode colors takes the full-mode search,
    and with it the graph."""
    return (find_assignment(s, Mode.CONTEXT_ONLY) is None
            or find_assignment(s, Mode.FULL) is None)


def is_parity(s: KSSet) -> bool:
    """True when every projector multiplicity is even and the context count
    is odd, which forbids a valid assignment by counting alone."""
    ensure_valid(s)
    if s.n_contexts % 2 == 0:
        return False
    return all(sig.bit_count() % 2 == 0 for sig in s.signatures().values())


class CriticalityReport(namedtuple(
        "CriticalityReport", "mode removals stats")):
    """Per-context removal outcomes in removals, a witness Assignment or
    None each, and stats, the SearchStats of the whole check."""

    __slots__ = ()

    @property
    def overall(self) -> bool:
        return all(w is not None for w in self.removals)

    @property
    def n_colorable(self) -> int:
        return sum(1 for w in self.removals if w is not None)


def is_critical(s: KSSet, mode: Mode = Mode.FULL) -> CriticalityReport:
    """Remove each context in turn, restrict to the projectors still used,
    and search for a witness; overall-critical iff every removal has one.
    A witness values the projectors that the remaining contexts use, and
    is re-checked by _check over those contexts.  In context mode its 1s
    lie on class representatives (see _compile)."""
    stats = SearchStats()
    problem = _compile_uncolorable(s, mode, stats, "criticality undefined")
    every = (1 << len(problem.ctx_masks)) - 1
    removals: list[Assignment | None] = []
    for removed in range(len(problem.ctx_masks)):
        mask, _, _ = problem.solve_without(
            1 << removed, every, problem.orth, problem.allowed, stats)
        if mask is None:
            removals.append(None)
            continue
        used = union_of(problem.ctx_masks, every & ~(1 << removed))
        values = {
            problem.ids[i]: 1 if mask >> i & 1 else 0
            for i in range(len(problem.ids))
            if used >> i & 1
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

    The scan gallops: one search tests a run of the next k contexts, with
    k starting at 1.  When active minus the run is uncolorable, the whole
    run goes and k doubles; when it is colorable, k halves, and at k = 1 a
    colorable answer keeps the context.  The core is the plain scan's, one
    search per context, because uncolorability is monotone: every
    superset of an uncolorable set of contexts is uncolorable.  For each
    context of a removed run, the plain scan would test a superset of
    active minus the run, and remove that context too; each kept context
    is decided at k = 1 against the active set the plain scan has there.
    A critical input keeps k = 1 and runs exactly the plain scan's
    searches.

    The core is a new set, not yet validated, so its first reader
    validates it (ksets reduce does so through serialize).  That check
    passes: its contexts are a subset of the validated input's contexts,
    its projectors are exactly those they use, and every check of
    validation holds on such a subset."""
    problem = _compile_uncolorable(s, mode, stats, "nothing to reduce")
    n = len(problem.ctx_masks)
    active = (1 << n) - 1  # bit ci: context ci is kept
    orth, allowed = problem.orth, problem.allowed
    c, k = 0, 1  # the first undecided context and the run length
    while c < n:
        k = min(k, n - c)  # a shorter run at the end
        run = ((1 << k) - 1) << c
        mask, trial_orth, trial_allowed = problem.solve_without(
            run, active, orth, allowed, stats)
        if mask is None:
            active &= ~run
            orth, allowed = trial_orth, trial_allowed
            c += k
            k *= 2
        elif k > 1:
            k //= 2
        else:
            c += 1
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
    index = {pid: i for i, pid in enumerate(problem.ids)}
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
        lits = " ".join(str(index[pid] + 1) for pid in ctx)
        lines.append(f"{lits} 0")
    for i, j in pairs:
        lines.append(f"-{i + 1} -{j + 1} 0")
    return "\n".join(lines) + "\n"
