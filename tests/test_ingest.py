"""The N-Triples fast path and the snapshot round trip, as properties.

`_parse_ntriples_line` matches a line in canonical form with one regex and
hands every other line to the character-level parser `_parse_ntriples_chars`,
which stays the reference: for any line, valid or not, both give the same
terms or the same ParseError. Lines are drawn from fragments aimed at the
edges of the regex (every escape, raw tabs and CRs in literals, Unicode
labels and tags, empty datatypes, missing separators, comments).
"""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rosie.errors import ParseError
from rosie.store import (
    _CANONICAL_LINE,
    Dataset,
    _parse_ntriples_chars,
    _parse_ntriples_line,
    load_ntriples,
    snapshot_load,
    snapshot_save,
)

PROPERTY = settings(
    max_examples=1500, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

IRIS = ["<a>", "<http://example.org/s1>", "<>", "<a b\t\"c>", "<é>", "<open", "<a<b>"]
BLANKS = ["_:b1", "_:x-y_z", "_:a_", "_:é", "_:", "_:b.c", "_:1"]
BODY = st.lists(
    st.sampled_from([
        "a", "Z", "7", " ", "é", " ", "\x0b", "#", ">", "<", "@", "^", ".",
        "\t", "\r", "\n", '"',
        "\\t", "\\n", "\\r", '\\"', "\\\\", "\\b", "\\f", "\\'", "\\u00e9", "\\U0001F600",
        "\\u12", "\\uZZZZ", "\\q", "\\",
    ]),
    max_size=6,
).map("".join)
SUFFIXES = st.sampled_from([
    "", "", "@en", "@en-US", "@", "@é", "@en@fr", "^^<http://example.org/dt>", "^^<>",
    "^^dt", "^^<open", "@en^^<dt>", "@-", "@en-", "@1en", "@en--US", "@de-CH-1996", "@x1",
])
LITERALS = st.builds(lambda body, suffix: f'"{body}"{suffix}', BODY, SUFFIXES)
TERMS = st.one_of(st.sampled_from(IRIS), st.sampled_from(BLANKS), LITERALS)
SEPARATORS = st.sampled_from(["", " ", " ", "\t", "  ", " \t "])
ENDINGS = st.sampled_from([
    ".", " .", "\t.", "", ". # comment", ".#c", " . extra", "..", ". \t", ". #\x0b",
])


@st.composite
def lines(draw) -> str:
    s, p, o = draw(TERMS), draw(TERMS), draw(TERMS)
    lead, a, b, c = (draw(SEPARATORS) for _ in range(4))
    return f"{lead}{s}{a}{p}{b}{o}{c}{draw(ENDINGS)}"


def parse_outcome(parse, line: str):
    try:
        return parse(line, 11)
    except ParseError as exc:
        return ("ParseError", exc.line_no, str(exc))


@PROPERTY
@given(lines())
def test_fast_path_agrees_with_the_character_parser(line):
    assert parse_outcome(_parse_ntriples_line, line) == parse_outcome(_parse_ntriples_chars, line)


@pytest.mark.parametrize("line", [
    "<s> <p> <o> .",
    "_:b1\t<p> _:b-2.",
    '<s> <p> "" .',
    '<s> <p> "tab\\there \\"q\\" \\\\ é"@en-GB . # note',
    '<s><p>"5"^^<http://www.w3.org/2001/XMLSchema#integer>.',
])
def test_canonical_lines_take_the_fast_path(line):
    assert _CANONICAL_LINE.fullmatch(line) is not None
    assert _parse_ntriples_line(line, 1) == _parse_ntriples_chars(line, 1)


@pytest.mark.parametrize("line", [
    '<s> <p> "\\u00e9" .',
    '<s> <p> "a\\bb" .',
    '<s> <p> "raw\ttab" .',
    '<s> <p> "x"^^<> .',
    "_:é <p> <o> .",
    '<s> <p> "x"@é .',
    '"lit" <p> <o> .',
])
def test_other_lines_take_the_character_parser(line):
    assert _CANONICAL_LINE.fullmatch(line) is None


@pytest.mark.parametrize("suffix", ["@-", "@en-", "@1en", "@en--US", "@é"])
def test_malformed_language_tag_is_a_parse_error(suffix):
    line = f'<s> <p> "a"{suffix} .'
    assert _CANONICAL_LINE.fullmatch(line) is None
    with pytest.raises(ParseError):
        load_ntriples(line + "\n")


def test_load_reports_the_line_of_the_first_error():
    text = '<a> <b> <c> .\n# c\n<a> <b> "ok\\u00e9" .\n<a> <b> "bad\\q" .\n'
    with pytest.raises(ParseError) as err:
        load_ntriples(text)
    assert (err.value.line_no, err.value.reason) == (4, "unknown escape \\q")


# terms as the engine stores them: IRIs, blank nodes and canonical literals,
# plus arbitrary text, which the snapshot must carry byte for byte
STORED_TERMS = st.one_of(
    st.sampled_from(["a", "b", "_:b1", '"x"', '"x"@en', '"5"^^<dt>', "", "é", "\U0001F600"]),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(STORED_TERMS, STORED_TERMS, STORED_TERMS), max_size=30))
def test_snapshot_round_trip(triples):
    d = Dataset.from_strings(triples)
    buf = io.BytesIO()
    snapshot_save(d, buf)
    buf.seek(0)
    loaded = snapshot_load(buf)
    assert loaded.dict.terms() == d.dict.terms()
    assert (loaded.spo, loaded.pos, loaded.osp) == (d.spo, d.pos, d.osp)
    assert loaded.stats == d.stats
    again = io.BytesIO()
    snapshot_save(loaded, again)
    assert again.getvalue() == buf.getvalue()
