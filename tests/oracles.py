"""Independent oracles used to cross-check the backtracking search.

These deliberately avoid the package's solver machinery: plain exhaustive
enumeration over all 2^R valuations, and a clause-by-clause DIMACS model
enumerator.  Both are only usable for small sets but are obviously correct.
The field automorphisms get the same treatment: a coefficient-by-coefficient
substitution of powers of z read from the reduction table, and so does ray
equality: a comparison of canonical forms, each ray scaled to a leading 1.
The orthogonality graph, and validate's non-orthogonal pairs, are recomputed
from one exact inner product per pair of span rays, with no shortcut, and
the graph of split block copies is spelled out bit by bit from their
operand's.  The exhaustive pairing search certifies
that the index-aligned pairing every table row and catalog chain uses,
default_pairing(9, 7), already gives the most merges.  The greedy
reduction is replayed as the plain one-scan, one new set and one
find_assignment per context.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import combinations

from ksets.construct import _check_pairing, _parity_pair
from ksets.cyclo import _POW, DEGREE, CycNum
from ksets.errors import InvalidPairingError
from ksets.model import Context, KSSet, Ray, inner, orthogonality_graph
from ksets.verify import Mode, find_assignment


def reference_galois(x: CycNum, k: int) -> CycNum:
    """The image of x under z -> z^k: each z^i replaced by the reduced
    z^(k*i mod 24)."""
    out = [0] * DEGREE
    for i, c in enumerate(x.num):
        for j, r in enumerate(_POW[k * i % 24]):
            out[j] += c * r
    return CycNum(out, x.den)


def reference_conj(x: CycNum) -> CycNum:
    """Complex conjugation: each z^i replaced by the reduced z^(24-i)."""
    out = [0] * DEGREE
    for i, c in enumerate(x.num):
        for j, r in enumerate(_POW[(24 - i) % 24]):
            out[j] += c * r
    return CycNum(out, x.den)


def reference_ray_equal(u: Ray, v: Ray) -> bool:
    """Proportional rays: equal entries once each ray is multiplied by the
    inverse of its first nonzero entry."""

    def canonical(ray: Ray) -> tuple[CycNum, ...]:
        scale = next(e for e in ray.entries if not e.is_zero()).inv()
        return tuple(e * scale for e in ray.entries)

    return canonical(u) == canonical(v)


def reference_graph(s: KSSet) -> tuple[int, ...]:
    """Orthogonality masks in file order: bit j of entry i is set when
    i != j and every span ray of projector i is orthogonal to every span ray
    of projector j.  Every pair of span rays goes to inner: no support and
    no context shortcut."""
    projs = list(s.projectors.values())
    masks = [0] * len(projs)
    for i, p in enumerate(projs):
        for j in range(i + 1, len(projs)):
            if all(inner(u, v).is_zero() for u in p.span for v in projs[j].span):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def reference_pair_violations(s: KSSet) -> list[str]:
    """validate's "not orthogonal" lines for a set whose rays are nonzero and
    of its dimension and whose contexts name distinct known members: every
    pair of span rays of each projector, and, when those all pass, every
    member pair of every context, with one exact inner product per pair of
    span rays.  No support, overlap or product-memo shortcut."""
    spans = [f"projector {pid}: span rays {i} and {j} not orthogonal"
             for pid, p in s.projectors.items()
             for i, j in combinations(range(p.rank), 2)
             if not inner(p.span[i], p.span[j]).is_zero()]
    if spans:
        return spans
    return [f"context {ci}: members {a} and {b} not orthogonal"
            for ci, ctx in enumerate(s.contexts)
            for a, b in combinations(ctx, 2)
            if not all(inner(u, v).is_zero() for u in s.projectors[a].span
                       for v in s.projectors[b].span)]


def reference_block_graph(graph: Sequence[int], n: int) -> tuple[int, ...]:
    """The masks graph of a set S spread over n blocks, the graph of
    split_ranks(rank_scale(S, n)) for an all-rank-1 S: ray k of projector i
    of S becomes ray i*n + k.  Two rays in one block are orthogonal exactly
    when their projectors are in graph, and two rays in different blocks
    always are."""
    size = n * len(graph)
    out = []
    for i, mask in enumerate(graph):
        for k in range(n):
            bits = 0
            for j in range(size):
                if j != i * n + k and (j % n != k or mask >> j // n & 1):
                    bits |= 1 << j
            out.append(bits)
    return tuple(out)


def reference_orth(s: KSSet, mode: Mode, active: Iterable[int]) -> list[int]:
    """At-most-one masks once only the contexts with indices in active
    remain: bit j of entry i is set when projectors i and j (in file order)
    may not both be 1.  That is every orthogonal pair in full mode, and
    every pair sharing an active context in context mode."""
    if mode is Mode.FULL:
        return list(orthogonality_graph(s))
    ids = list(s.projectors)
    orth = [0] * len(ids)
    index = {pid: i for i, pid in enumerate(ids)}
    for ci in active:
        for p in s.contexts[ci]:
            for q in s.contexts[ci]:
                if p != q:
                    orth[index[p]] |= 1 << index[q]
    return orth


def reference_reduce(s: KSSet, mode: Mode) -> list[Context]:
    """The contexts the greedy one-scan keeps: each context in ascending
    order is left out of a new set over the other remaining contexts and
    the projectors they use, and goes when find_assignment colors none of
    that set.  Nothing is carried from one trial to the next."""
    contexts = list(s.contexts)
    i = 0
    while i < len(contexts):
        trial = contexts[:i] + contexts[i + 1:]
        used = {pid for ctx in trial for pid in ctx}
        sub = KSSet(s.dimension, {pid: p for pid, p in s.projectors.items()
                                  if pid in used}, trial)
        if find_assignment(sub, mode) is None:
            contexts = trial
        else:
            i += 1
    return contexts


def brute_force_witness(
    s: KSSet, mode: Mode, removed: int | None = None
) -> dict[str, int] | None:
    """First valuation (in binary counting order) satisfying the rules, or
    None after exhausting all 2^R of them."""
    contexts = [c for i, c in enumerate(s.contexts) if i != removed]
    ids = list(s.projectors)
    index = {pid: i for i, pid in enumerate(ids)}
    if removed is not None:
        used = sorted({index[p] for c in contexts for p in c})
    else:
        used = list(range(len(ids)))
    ctx_masks = []
    for c in contexts:
        m = 0
        for pid in c:
            m |= 1 << index[pid]
        ctx_masks.append(m)
    if mode is Mode.FULL:
        graph = orthogonality_graph(s)
        pair_masks = []
        for i in used:
            for j in used:
                if j > i and graph[i] >> j & 1:
                    pair_masks.append((1 << i) | (1 << j))
    else:
        pairs = set()
        for c in contexts:
            idxs = sorted(index[p] for p in c)
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    pairs.add((idxs[a], idxs[b]))
        pair_masks = [(1 << a) | (1 << b) for a, b in sorted(pairs)]
    contiguous = used == list(range(len(used)))
    for packed in range(1 << len(used)):
        if contiguous:
            v = packed
        else:
            v = 0
            rest = packed
            for i in used:
                if rest & 1:
                    v |= 1 << i
                rest >>= 1
        ok = True
        for m in ctx_masks:
            if (v & m).bit_count() != 1:
                ok = False
                break
        if not ok:
            continue
        for pm in pair_masks:
            if v & pm == pm:
                ok = False
                break
        if ok:
            return {ids[i]: (v >> i) & 1 for i in used}
    return None


def naive_cnf_satisfiable(cnf_text: str) -> bool:
    """Enumerate all assignments of the DIMACS variables against the clause
    list; no propagation, no heuristics."""
    clauses: list[list[int]] = []
    n_vars = 0
    for line in cnf_text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n_vars = int(line.split()[2])
            continue
        lits = [int(tok) for tok in line.split() if tok != "0"]
        if lits:
            clauses.append(lits)
    pos_masks = []
    neg_masks = []
    for clause in clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        pos_masks.append(pos)
        neg_masks.append(neg)
    for v in range(1 << n_vars):
        ok = True
        for pos, neg in zip(pos_masks, neg_masks):
            if not (v & pos) and (v & neg) == neg:
                ok = False
                break
        if ok:
            return True
    return False


# The most contexts optimize_pairing, which tries every pairing, takes in the
# larger set.
_PAIRING_SEARCH_LIMIT = 9


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
