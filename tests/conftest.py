from __future__ import annotations

from functools import lru_cache
from itertools import product

import pytest

from ksets import catalog
from ksets.model import KSSet, Projector, Ray
from ksets.cyclo import CycNum


@pytest.fixture(scope="session")
def s18() -> KSSet:
    return catalog.seed_set("d4-18-9")


@pytest.fixture(scope="session")
def s21() -> KSSet:
    return catalog.seed_set("d6-21-7")


@pytest.fixture(scope="session")
def basis21() -> KSSet:
    return catalog.seed_set("d6-21-7-basis")


def make_ray(*values) -> Ray:
    return Ray(tuple(CycNum.from_rational(v) if isinstance(v, int) else v
                     for v in values))


def basis_set(d: int) -> KSSet:
    """Single standard-basis context in dimension d."""
    projs = {
        str(i + 1): Projector((make_ray(*(1 if j == i else 0 for j in range(d))),))
        for i in range(d)
    }
    return KSSet(d, projs, [tuple(str(i + 1) for i in range(d))], name=f"basis{d}")


@lru_cache(maxsize=None)
def _census_master() -> tuple[tuple, tuple]:
    """Rays of {0, +-1}^4 up to sign (first nonzero entry +1) and their
    orthogonal bases as ray-index tuples in lexicographic order: 40 rays,
    32 bases (Pavicic, Merlet, McKay & Megill 2005)."""
    rays = [v for v in product((0, 1, -1), repeat=4)
            if any(v) and next(x for x in v if x) == 1]
    n = len(rays)
    later = [{j for j in range(i + 1, n)
              if sum(a * b for a, b in zip(rays[i], rays[j])) == 0}
             for i in range(n)]
    bases: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: set[int]) -> None:
        if len(clique) == 4:
            bases.append(clique)
            return
        for j in sorted(candidates):
            extend(clique + (j,), candidates & later[j])

    for i in range(n):
        extend((i,), later[i])
    return tuple(rays), tuple(bases)


def census_set(order=None) -> KSSet:
    """Bases of the d=4 {0, +-1} master set in the given order of base
    indices (default: all 32, giving the 40-32 KS set), over the rays they
    use; ray i is projector v<i>."""
    _, bases = _census_master()
    if order is None:
        order = range(len(bases))
    contexts = [tuple(f"v{i}" for i in bases[c]) for c in order]
    used = {pid for ctx in contexts for pid in ctx}
    return KSSet(4, {pid: p for pid, p in _census_projectors().items()
                     if pid in used}, contexts)


@lru_cache(maxsize=None)
def _census_projectors() -> dict[str, Projector]:
    rays, _ = _census_master()
    return {f"v{i}": Projector((make_ray(*ray),)) for i, ray in enumerate(rays)}
