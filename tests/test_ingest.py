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
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rosie.errors import ParseError
from rosie.store import (
    _CANONICAL_LINE,
    _U32_ARRAY,
    Dataset,
    _parse_ntriples_chars,
    _parse_ntriples_line,
    _unpack,
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


# lists of stored triples in which a triple may repeat, the empty list too
TRIPLE_LISTS = st.lists(st.tuples(STORED_TERMS, STORED_TERMS, STORED_TERMS), max_size=20).flatmap(
    lambda triples: st.lists(st.sampled_from(triples), max_size=40) if triples else st.just([])
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TRIPLE_LISTS)
def test_from_strings_matches_a_tuple_reference(triples):
    ids: dict[str, int] = {}
    for triple in triples:
        for term in triple:
            ids.setdefault(term, len(ids))
    spo = sorted({tuple(ids[term] for term in triple) for triple in triples})
    d = Dataset.from_strings(triples)
    assert d.dict.terms() == list(ids)
    assert all(col.typecode == _U32_ARRAY for col in d.spo)
    assert [list(col) for col in d.spo] == ([list(col) for col in zip(*spo)] or [[], [], []])


def test_unpack_keeps_each_32_bit_field():
    top = 2**32 - 1
    triples = [(0, 0, 0), (0, 0, top), (0, top, 0), (top, 0, top), (top, top, top)]
    keys = [s << 64 | p << 32 | o for s, p, o in triples]
    # the keys sort as the triples do
    assert keys == sorted(keys)
    cols = _unpack(keys)
    assert all(col.typecode == _U32_ARRAY for col in cols)
    assert list(zip(*cols)) == triples


def uniform_document(lines: int, entities: int, seed: int = 11) -> bytes:
    """N-Triples in the shape of `datagen.uncorrelated_uniform`: three
    edges for each entity, then uniform edges over four predicates."""
    rng = random.Random(seed)
    predicates = "abcd"
    triples = [
        (f"e{i}", p, f"v{rng.randrange(entities)}") for i in range(entities) for p in predicates[:3]
    ]
    while len(triples) < lines:
        triples.append((
            f"e{rng.randrange(entities)}",
            predicates[rng.randrange(len(predicates))],
            f"v{rng.randrange(entities)}",
        ))
    return "".join(f"<{s}> <{p}> <{o}> .\n" for s, p, o in triples[:lines]).encode()


def test_load_needs_less_transient_memory_than_it_keeps():
    # the set and the sorted list that dedupe and order a load's triples
    # live only during the load; holding one integer per triple, they take
    # less traced memory than the dataset keeps (0.96 times on Python
    # 3.11), and 1.15 leaves room for other interpreters' object sizes
    blob = uniform_document(50_000, 12_500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = load_ntriples(io.BytesIO(blob))
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept, transient = now - before, peak - now
    assert transient <= 1.15 * kept, (
        f"transient {transient / d.size:.1f} B/triple against kept {kept / d.size:.1f}"
    )
