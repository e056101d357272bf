"""Embedded, validated copies of the cataloged sets, addressable by name.

An entry or seed is stored as set-file text, parsed on first access so
that the parser is exercised on each load, or as the chain that builds it
from other entries.  Every load recomputes the symbol and compares it with
the recorded one.  Every entry is a KS set, critical in the mode its record
names; that mode and the parity flag are frozen here as data, and the test
suite checks all of it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import _tables
from .errors import UnknownNameError, ValidationError
from .model import KSSet, ValidationReport, symbol
from .setfile import parse
from .verify import Mode


CatalogEntry = namedtuple("CatalogEntry", (
    "name dimension set expected_symbol expected_compact expected_parity "
    "critical_mode provenance"))


# name -> (set-file text or chain, detailed symbol, parity, strongest
# criticality mode, origin)
_ENTRIES: dict[str, tuple[str, str, bool, Mode, str]] = {
    "d3-49-36": (
        _tables.D3_49_36,
        "2^1_4 22^1_3 9^1_2 16^1_1 - 36^3_3",
        False,
        Mode.CONTEXT_ONLY,
        "completed Kochen-Conway 31-ray set, reduced to a critical core",
    ),
    "d3-57-40": (
        _tables.D3_57_40,
        "3^1_4 24^1_3 6^1_2 24^1_1 - 40^3_3",
        False,
        Mode.CONTEXT_ONLY,
        "completed Peres 33-ray set",
    ),
    "d4-18-9": (
        _tables.D4_18_9,
        "18^1_2 - 9^4_4",
        True,
        Mode.FULL,
        "Cabello-Estebaranz-Garcia-Alcaine 18-ray set",
    ),
    "d5-29-16": (
        _tables.D5_29_16,
        "2^1_9 1^1_4 6^1_3 20^1_2 - 16^5_5",
        False,
        Mode.FULL,
        "Cabello et al. 29-ray set; coordinate-swap extension of d4-18-9",
    ),
    "d6-21-7": (
        _tables.D6_21_7,
        "21^1_2 - 7^6_6",
        True,
        Mode.FULL,
        "Lisonek-Badziag-Portillo-Cabello seven-context set",
    ),
    "d7-32-12": (
        _tables.D7_32_12,
        "2^1_7 10^1_3 20^1_2 - 12^7_7",
        False,
        Mode.FULL,
        "coordinate-swap extension of d6-21-7 to d=7",
    ),
    "d8-34-9": (
        _tables.D8_34_9,
        "2^1_4 32^1_2 - 9^8_8",
        True,
        Mode.FULL,
        "34-ray all-rank-1 parity set in d=8",
    ),
    "d8-30-9": (
        "merge_rank(d8-34-9)",
        "4^2_2 2^1_4 24^1_2 - 8^8_7 1^8_8",
        True,
        Mode.FULL,
        "rank-2 reading of the d=8 34-ray parity set",
    ),
    "d9-39-13": (
        _tables.D9_39_13,
        "6^1_8 3^1_3 30^1_2 - 13^9_9",
        False,
        Mode.FULL,
        "coordinate-swap extension of d6-21-7 to d=9",
    ),
    "d10-39-9": (
        "pz_improved(d4-18-9, d6-21-7)",
        "6^1_4 33^1_2 - 9^10_10",
        True,
        Mode.FULL,
        "paired direct sum of d4-18-9 and d6-21-7",
    ),
    "d10-30-9": (
        "merge_rank(d10-39-9)",
        "9^2_2 6^1_4 15^1_2 - 6^10_7 3^10_10",
        True,
        Mode.FULL,
        "rank-2 merge of d10-39-9",
    ),
    "d11-40-12": (
        _tables.D11_40_12,
        "2^1_7 8^1_6 10^1_3 20^1_2 - 12^11_11",
        False,
        Mode.CONTEXT_ONLY,
        "search-reduced coordinate-swap extension of d6-21-7 to d=11",
    ),
}

# Construction seeds, not catalog entries: name -> (set-file text, symbol).
_SEEDS: dict[str, tuple[str, str]] = {
    "d4-18-9-rot": (_tables.D4_18_9_ROT, "18^1_2 - 9^4_4"),
    "d6-21-7-basis": (_tables.D6_21_7_BASIS, "21^1_2 - 7^6_6"),
}


def _sort_key(name: str) -> tuple[int, str]:
    return int(name.split("-")[0][1:]), name


NAMES = tuple(sorted(_ENTRIES, key=_sort_key))
SEED_NAMES = tuple(sorted(_SEEDS))


@lru_cache(maxsize=None)
def _load(name: str) -> KSSet:
    record = _ENTRIES.get(name) or _SEEDS.get(name)
    if record is None:
        raise UnknownNameError(f"unknown catalog name {name!r}")
    source, recorded = record[:2]
    if "\n" in source:
        s = parse(source, name=name)
    else:
        # A one-line source is a chain.  construct imports this module, so
        # build_chain is imported when a chain is first built.
        from .construct import build_chain
        # The copy keeps the validation flag, so symbol validates nothing.
        s = build_chain(source).copy(name=name)
    computed = symbol(s).detailed
    if computed != recorded:
        raise ValidationError(ValidationReport([
            f"{name}: computed symbol {computed!r} does not match "
            f"recorded {recorded!r}"]))
    return s


def seed_set(name: str) -> KSSet:
    """The validated, symbol-checked set of any entry or seed name."""
    return _load(name)


@lru_cache(maxsize=None)
def get(name: str) -> CatalogEntry:
    """The named entry: its set as seed_set loads it, with the recorded
    expectations."""
    if name not in _ENTRIES:
        raise UnknownNameError(f"unknown catalog name {name!r}")
    _, expected_symbol, parity, crit_mode, provenance = _ENTRIES[name]
    s = _load(name)
    return CatalogEntry(
        name=name,
        dimension=s.dimension,
        set=s,
        expected_symbol=expected_symbol,
        expected_compact=f"{s.n_projectors}-{s.n_contexts}",
        expected_parity=parity,
        critical_mode=crit_mode,
        provenance=provenance,
    )


def listing() -> list[tuple[str, int, str]]:
    """(name, dimension, compact symbol) of every entry in NAMES order, read
    from the entry names dK-R-B without loading any set."""
    out = []
    for name in NAMES:
        dimension, n_projectors, n_contexts = name[1:].split("-")
        out.append((name, int(dimension), f"{n_projectors}-{n_contexts}"))
    return out


def entries() -> list[CatalogEntry]:
    """All entries in deterministic (dimension, name) order."""
    return [get(name) for name in NAMES]
