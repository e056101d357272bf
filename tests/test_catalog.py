"""Catalog integrity: every stored set validates, carries the recorded
symbol byte-for-byte, and satisfies its recorded property flags; a wrong
recorded symbol fails every load of the name."""

from __future__ import annotations

import pytest

from ksets import catalog
from ksets.construct import apply_transform
from ksets.cyclo import CycNum
from ksets.errors import UnknownNameError, ValidationError
from ksets.model import symbol, validate
from ksets.setfile import parse, serialize
from ksets.verify import Mode, is_critical, is_ks, is_parity

EXPECTED_COMPACT = {
    "d3-49-36": ("49-36", 3),
    "d3-57-40": ("57-40", 3),
    "d4-18-9": ("18-9", 4),
    "d5-29-16": ("29-16", 5),
    "d6-21-7": ("21-7", 6),
    "d7-32-12": ("32-12", 7),
    "d8-30-9": ("30-9", 8),
    "d8-34-9": ("34-9", 8),
    "d9-39-13": ("39-13", 9),
    "d10-30-9": ("30-9", 10),
    "d10-39-9": ("39-9", 10),
    "d11-40-12": ("40-12", 11),
}


def test_entry_count_and_order():
    entries = catalog.entries()
    assert len(entries) == 12
    assert entries[0].dimension == 3
    dims = [e.dimension for e in entries]
    assert dims == sorted(dims)


def test_get_18_9_symbol():
    assert catalog.get("d4-18-9").expected_symbol == "18^1_2 - 9^4_4"


def test_get_57_40_counts():
    entry = catalog.get("d3-57-40")
    assert entry.set.n_projectors == 57
    assert entry.set.n_contexts == 40


def test_get_d11_critical_flag():
    entry = catalog.get("d11-40-12")
    assert entry.critical_mode is Mode.CONTEXT_ONLY
    assert is_critical(entry.set, entry.critical_mode).overall


def test_get_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog.get("d12-nope")


@pytest.mark.parametrize("name", sorted(EXPECTED_COMPACT))
def test_entry_matches_expectations(name):
    compact, dim = EXPECTED_COMPACT[name]
    entry = catalog.get(name)
    assert entry.dimension == dim
    assert validate(entry.set).ok
    sym = symbol(entry.set)
    assert sym.compact == compact
    assert sym.detailed == entry.expected_symbol


@pytest.mark.parametrize("name", sorted(EXPECTED_COMPACT))
def test_entry_round_trips(name):
    entry = catalog.get(name)
    assert parse(serialize(entry.set)) == entry.set


@pytest.mark.parametrize("name", sorted(EXPECTED_COMPACT))
def test_entry_properties(name):
    entry = catalog.get(name)
    assert is_ks(entry.set)
    assert is_parity(entry.set) == entry.expected_parity
    assert is_critical(entry.set, entry.critical_mode).overall


def test_parity_flags_exactly():
    parity_names = {e.name for e in catalog.entries() if e.expected_parity}
    assert parity_names == {
        "d4-18-9", "d6-21-7", "d8-34-9", "d8-30-9", "d10-39-9", "d10-30-9",
    }


# sha256 of each chain entry's set file, taken while the entries were still
# stored as set-file text: the chains build those same sets.
CHAIN_DIGESTS = {
    "d8-30-9": "75c20fdf4526e13db349edb32c3ee20a78d32325c22baa7cd3bafe0e2debc670",
    "d10-39-9": "26b35c1b202ef2c5bc1b91da0e3cf5d40c3d7133ee9f0ed3a946eb719529f272",
    "d10-30-9": "3b960c46c88ab14dfefc921c69109b51fef0d7d1fd6c31e4738d883fa4fcabc9",
}


@pytest.mark.parametrize("name", CHAIN_DIGESTS)
def test_chain_entry_serializes_as_pinned(name):
    import hashlib

    text = serialize(catalog.seed_set(name))
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_DIGESTS[name]


def test_chain_entries_are_built_not_parsed(monkeypatch):
    parsed = []
    real_parse = catalog.parse

    def recording_parse(text, name=None):
        parsed.append(name)
        return real_parse(text, name=name)

    monkeypatch.setattr(catalog, "parse", recording_parse)
    catalog._load.cache_clear()
    catalog.get.cache_clear()
    catalog.seed_set("d10-30-9")
    assert sorted(parsed) == ["d4-18-9", "d6-21-7"]


@pytest.fixture
def misrecorded(monkeypatch, request):
    """The parametrized entry or seed name, recorded with a wrong symbol;
    both caches are cleared before and after, so the name loads afresh."""
    name = request.param
    if name in catalog._ENTRIES:
        source, recorded, *rest = catalog._ENTRIES[name]
        monkeypatch.setitem(catalog._ENTRIES, name, (source, recorded + "0", *rest))
    else:
        source, recorded = catalog._SEEDS[name]
        monkeypatch.setitem(catalog._SEEDS, name, (source, recorded + "0"))
    catalog._load.cache_clear()
    catalog.get.cache_clear()
    yield name
    catalog._load.cache_clear()
    catalog.get.cache_clear()


@pytest.mark.parametrize("misrecorded", ["d4-18-9", "d6-21-7-basis"],
                         indirect=True)
def test_a_wrong_recorded_symbol_fails_every_load(misrecorded, capsys):
    from ksets import cli
    from ksets.construct import build_chain

    name = misrecorded
    for argv in (["symbol", name], ["verify", name],
                 ["construct", "scale", name, "2"]):
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "does not match recorded" in err, argv
    for chain in (name, f"rank_scale({name}, 2)"):
        with pytest.raises(ValidationError, match="does not match recorded"):
            build_chain(chain)
    with pytest.raises(ValidationError):
        catalog.seed_set(name)
    if name in catalog.NAMES:
        # d10-39-9 is built from d4-18-9.
        for shown in (name, "d10-39-9"):
            assert cli.main(["catalog", "show", shown]) == 3, shown
            capsys.readouterr()


def test_seed_basis_form_matches_21_7_structure(basis21, s21):
    assert basis21.n_projectors == 21
    assert [frozenset(c) for c in basis21.contexts] == [
        frozenset(c) for c in s21.contexts
    ]
    assert is_ks(basis21) and is_parity(basis21)


def test_seed_rotated_form_is_transformed_18_9(s18):
    rot = catalog.seed_set("d4-18-9-rot")
    matrix = [
        [CycNum.from_rational(x) for x in row]
        for row in ((3, -4, 0, 0), (4, 3, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5))
    ]
    built = apply_transform(s18, matrix)
    assert rot.projectors.keys() == built.projectors.keys()
    for pid, proj in rot.projectors.items():
        assert proj.span == built.projectors[pid].span, pid
    assert [tuple(c) for c in rot.contexts] == [tuple(c) for c in built.contexts]
    assert symbol(rot).detailed == symbol(s18).detailed == "18^1_2 - 9^4_4"
    assert is_ks(rot) and is_parity(rot)
    assert is_critical(rot, Mode.FULL).overall


def test_every_set_serializes_as_before():
    # sha256 of each entry's and seed's set file, NUL-separated, in NAMES
    # then SEED_NAMES order; render_scalar's alias search must not move it
    import hashlib

    digest = hashlib.sha256()
    for name in catalog.NAMES + catalog.SEED_NAMES:
        digest.update(serialize(catalog.seed_set(name)).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == (
        "d45f33582c7cf8ddf30c0928b6f5aba6954bc6e3b9fb07e8558c5d4ef6090039"
    )


def test_listing_matches_loaded_entries():
    listed = catalog.listing()
    assert [name for name, _, _ in listed] == list(catalog.NAMES)
    for name, dimension, compact in listed:
        entry = catalog.get(name)
        assert (dimension, compact) == (entry.dimension, entry.expected_compact)
        assert (compact, dimension) == EXPECTED_COMPACT[name]


def test_catalog_list_parses_nothing(monkeypatch, capsys):
    from ksets import cli, setfile

    def refuse(*args, **kwargs):
        raise AssertionError("catalog list parsed a set")

    for module, attr in ((setfile, "parse"), (catalog, "parse"),
                         (catalog, "_load"), (catalog, "get")):
        monkeypatch.setattr(module, attr, refuse)
    assert cli.main(["catalog", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{name} d={dim} {compact}"
        for name, (compact, dim) in sorted(
            EXPECTED_COMPACT.items(), key=lambda kv: catalog.NAMES.index(kv[0]))
    ]
