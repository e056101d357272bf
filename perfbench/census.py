"""The d=4 {0, +-1} master set, generated with integer arithmetic only.

Rays are the nonzero vectors of {0, 1, -1}^4 up to sign; contexts are the
orthogonal bases among them (Pavicic, Merlet, McKay & Megill, "Kochen-Specker
vectors", J. Phys. A 2005).  The result is 40 rays and 32 contexts.  The
census reduces this set to a critical core from many context orders.
"""

from __future__ import annotations

import itertools
import random

DIMENSION = 4


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(u, v))


def master_set() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Rays (first nonzero entry +1) and contexts (sorted ray-index tuples)."""
    rays = [
        v for v in itertools.product((0, 1, -1), repeat=DIMENSION)
        if any(v) and next(x for x in v if x) == 1
    ]
    n = len(rays)
    later = [
        {j for j in range(i + 1, n) if _dot(rays[i], rays[j]) == 0}
        for i in range(n)
    ]
    contexts: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: set[int]) -> None:
        if len(clique) == DIMENSION:
            contexts.append(clique)
            return
        for j in sorted(candidates):
            extend(clique + (j,), candidates & later[j])

    for i in range(n):
        extend((i,), later[i])
    return rays, contexts


def context_orders(seed: int, n_contexts: int):
    """Endless stream of seeded permutations of range(n_contexts)."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_contexts))
        rng.shuffle(order)
        yield order
