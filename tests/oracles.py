"""Independent oracles used to cross-check the backtracking search.

These deliberately avoid the package's solver machinery: plain exhaustive
enumeration over all 2^R valuations, and a clause-by-clause DIMACS model
enumerator.  Both are only usable for small sets but are obviously correct.
The field automorphisms get the same treatment: a coefficient-by-coefficient
substitution of powers of z read from the reduction table, and so does ray
equality: a comparison of canonical forms, each ray scaled to a leading 1.
The orthogonality graph is recomputed from one exact inner product per pair
of span rays, with no shortcut.
"""

from __future__ import annotations

from collections.abc import Iterable

from ksets.cyclo import _POW, DEGREE, CycNum
from ksets.model import KSSet, Ray, inner, orthogonality_graph
from ksets.verify import Mode


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
