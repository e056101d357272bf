"""Parser and serializer tests for the set-file format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksets import catalog
from ksets.errors import (
    KSError,
    SetSyntaxError,
    UnknownReferenceError,
    ValidationError,
)
from ksets.setfile import parse, serialize


def test_parse_embedded_18_9():
    s = catalog.seed_set("d4-18-9")
    assert s.n_projectors == 18
    assert s.n_contexts == 9


def test_parse_reports_incomplete_context():
    with pytest.raises(ValidationError) as err:
        parse("dim 2\nray a 1 0\nctx a\n")
    assert any("rank sum" in issue for issue in err.value.report.issues)


def test_parse_alias_token():
    s = parse("dim 2\nray a 1 w3\nray b 1 -w3\nctx a b\n")
    from ksets.cyclo import OMEGA3

    assert s.projectors["a"].span[0].entries[1] == OMEGA3
    assert s.projectors["b"].span[0].entries[1] == -OMEGA3


def test_parse_comments_and_blanks():
    text = "# heading\ndim 2\n\nray a 1 0  # trailing\nray b 0 1\nctx a b\n"
    s = parse(text)
    assert s.n_projectors == 2


def test_parse_proj_groups():
    text = (
        "dim 3\n"
        "ray x 1 0 0\nray y 0 1 0\nray z 0 0 1\n"
        "proj p x y\n"
        "ctx p z\n"
    )
    s = parse(text)
    assert s.projectors["p"].rank == 2
    assert s.contexts == [("p", "z")]


def test_parse_rejects_unknown_reference():
    with pytest.raises(UnknownReferenceError):
        parse("dim 2\nray a 1 0\nray b 0 1\nctx a c\n")


def test_parse_rejects_grouped_ray_in_context():
    text = (
        "dim 3\n"
        "ray x 1 0 0\nray y 0 1 0\nray z 0 0 1\n"
        "proj p x y\n"
        "ctx x z\n"
    )
    with pytest.raises(UnknownReferenceError):
        parse(text)


def test_parse_rejects_bad_dim_line():
    with pytest.raises(SetSyntaxError):
        parse("ray a 1 0\n")


@pytest.mark.parametrize(("digits", "message"), [
    ("\u00b2", "positive integer"),  # '²'.isdigit() is true, int('²') fails
    ("1" * 5000, "too large"),  # int() refuses more than 4300 digits
])
def test_parse_rejects_dim_int_cannot_read(digits, message):
    with pytest.raises(SetSyntaxError, match=message) as err:
        parse(f"dim {digits}\n")
    assert err.value.line == 1


def test_parse_rejects_wrong_entry_count():
    with pytest.raises(SetSyntaxError) as err:
        parse("dim 3\nray a 1 0\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_ray_id():
    with pytest.raises(SetSyntaxError):
        parse("dim 2\nray a 1 0\nray a 0 1\nctx a a\n")


def test_parse_rejects_double_grouping():
    text = (
        "dim 4\n"
        "ray w 1 0 0 0\nray x 0 1 0 0\nray y 0 0 1 0\nray z 0 0 0 1\n"
        "proj p w x\nproj q x y\n"
        "ctx p z y\n"
    )
    with pytest.raises(SetSyntaxError):
        parse(text)


def test_round_trip_all_catalog_entries():
    for entry in catalog.entries():
        text = serialize(entry.set)
        again = parse(text)
        assert again == entry.set, entry.name


def test_round_trip_preserves_higher_ranks():
    s = catalog.seed_set("d8-30-9")
    again = parse(serialize(s))
    assert again.projectors["1+2"].rank == 2
    assert again == s


def test_serialize_renders_minimal_scalars():
    s = parse("dim 2\nray a 1 1/2\nray b 1 -2\nctx a b\n")
    text = serialize(s)
    assert "1/2" in text
    s21 = catalog.seed_set("d6-21-7")
    text21 = serialize(s21)
    assert "-z^4" in text21  # the conjugate cube root renders as a monomial
    assert "w3" in text21


# -- fuzzing: every text parses or raises KSError -----------------------

_TEXTS = [serialize(catalog.seed_set(name))
          for name in ("d4-18-9", "d6-21-7", "d8-30-9")]


# Characters on which str.isdecimal, isdigit and isnumeric disagree, such
# as '²' or '½': where a parser's str checks and int() can part ways.
_NUMERIC_EDGE = [c for c in map(chr, range(0x3000))
                 if c.isnumeric() and not c.isdecimal()]
_TOKENS = st.text(
    st.sampled_from(_NUMERIC_EDGE)
    | st.sampled_from(list("0123456789/+-^z"))
    | st.characters(categories=("Nd", "Pd", "Po", "Sm")),
    min_size=1,
    max_size=4,
)
_SMALL = "dim 2\nray a 1 0\nray b 0 1\nproj p a b\nctx p\n"


def _parses_or_rejects(text: str) -> None:
    try:
        parse(text)
    except KSError:
        pass


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_fuzz_arbitrary_text(text):
    _parses_or_rejects(text)


@given(st.lists(st.sampled_from(["dim", "ray", "proj", "ctx", "#", "\n"])
                | _TOKENS, max_size=30)
       .map(" ".join))
@settings(max_examples=300, deadline=None)
def test_fuzz_keyword_soup(text):
    _parses_or_rejects(text)


@given(st.data(), _TOKENS)
@settings(max_examples=300, deadline=None)
def test_fuzz_one_token_of_each_line_kind(data, token):
    lines = [line.split() for line in _SMALL.splitlines()]
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i][data.draw(st.integers(0, len(lines[i]) - 1))] = token
    _parses_or_rejects("\n".join(" ".join(line) for line in lines))


@st.composite
def mutated_set_texts(draw) -> str:
    """A serialized catalog set with a few lines changed: a token replaced,
    inserted or deleted, or a line dropped, duplicated or swapped."""
    lines = draw(st.sampled_from(_TEXTS)).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "delete",
                                     "drop", "dup", "swap"]))
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            if kind == "replace":
                tokens[k] = draw(_TOKENS)
            elif kind == "insert":
                tokens.insert(k, draw(_TOKENS))
            else:
                del tokens[k]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(mutated_set_texts())
@settings(max_examples=300, deadline=None)
def test_fuzz_mutated_catalog_text(text):
    _parses_or_rejects(text)
