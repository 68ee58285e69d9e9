import io
import random
import struct
import sys
import threading
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosie import store
from rosie.errors import ParseError, SnapshotFormatError
from rosie.frontend import Term, TriplePattern, Var, parse_query
from rosie.runtime import Policy, run
from rosie.store import (
    _U32_ARRAY,
    Dataset,
    Stats,
    load_ntriples,
    make_literal,
    lexical_form,
    register_intermediate,
    resolve,
    scan,
    snapshot_load,
    snapshot_save,
    Relation,
)

from conftest import D_TOY_NT
from naive_eval import evaluate_query


def tp(s, p, o, tp_id=1):
    def atom(x):
        return Var(x[1:]) if isinstance(x, str) and x.startswith("?") else Term(x)

    return TriplePattern(tp_id, atom(s), atom(p), atom(o))


def naive_scan_count(d, pattern):
    count = 0
    for s, p, o in d.triples():
        binding = {}
        ok = True
        for atom, value in ((pattern.s, s), (pattern.p, p), (pattern.o, o)):
            if atom.is_var():
                if binding.setdefault(atom.name, value) != value:
                    ok = False
                    break
            else:
                tid = d.dict.lookup(atom.value)
                if tid is None or tid != value:
                    ok = False
                    break
        if ok:
            count += 1
    return count


class TestLoad:
    def test_toy_counts(self, d_toy):
        assert d_toy.size == 8
        assert d_toy.stats.count(d_toy.dict.lookup("type"), "P") == 3
        assert d_toy.stats.count(d_toy.dict.lookup("creator_of"), "P") == 2
        assert d_toy.stats.count(d_toy.dict.lookup("u1"), "S") == 4
        assert d_toy.stats.count(d_toy.dict.lookup("Post"), "O") == 2

    def test_empty_stream(self):
        assert load_ntriples("").size == 0

    def test_duplicates_are_set_semantics(self):
        d = load_ntriples("<a> <b> <c> .\n<a> <b> <c> .\n")
        assert d.size == 1

    def test_comments_and_blank_lines(self):
        d = load_ntriples("# header\n\n<a> <b> <c> . # trailing\n")
        assert d.size == 1

    def test_malformed_line_aborts_with_line_number(self):
        text = "<a> <b> <c> .\n<a> <b> .\n"
        with pytest.raises(ParseError) as err:
            load_ntriples(text)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "line",
        [
            "<a> <b> <c>",  # missing dot
            "<a <b> <c> .",  # unterminated IRI
            '<a> <b> "open .',  # unterminated literal
            "<a> <b> <c> . extra",
        ],
    )
    def test_malformed_variants(self, line):
        with pytest.raises(ParseError):
            load_ntriples(line + "\n")

    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\U0000D800", "\\U0000dc00"])
    def test_surrogate_escape_is_a_parse_error(self, escape):
        # a lone surrogate cannot be encoded, so it must not reach a snapshot
        text = f'<a> <b> <c> .\n<s> <p> "x{escape}y" .\n'
        with pytest.raises(ParseError) as err:
            load_ntriples(text)
        assert err.value.line_no == 2
        assert "surrogate" in err.value.reason

    @pytest.mark.parametrize("line", ['<s> <p> "\ud800" .', "<s\udc00> <p> <o> .",
                                      '<s> <p> "ok" . # \udfff'])
    def test_raw_surrogate_in_a_str_source_is_a_parse_error(self, line):
        # a str source skips the UTF-8 decode that rejects one in bytes
        with pytest.raises(ParseError) as err:
            load_ntriples(f'<a> <b> "\u00e9" .\n{line}\n')
        assert err.value.line_no == 2
        assert "surrogate" in err.value.reason

    @pytest.mark.parametrize("escape", ["\\u+041", "\\u0_41", "\\u 041", "\\U-0000041"])
    def test_non_hex_unicode_escape_is_a_parse_error(self, escape):
        # int(..., 16) alone would take a sign, an underscore or a space
        with pytest.raises(ParseError) as err:
            load_ntriples(f'<s> <p> "x{escape}y" .\n')
        assert (err.value.line_no, err.value.reason) == (1, "bad unicode escape")

    def test_literals_with_lang_datatype_and_escapes(self):
        text = (
            '<s> <p> "hello"@en .\n'
            '<s> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<s> <p> "tab\\there" .\n'
            '<s> <p> "\\u00e9" .\n'
        )
        d = load_ntriples(text)
        assert d.size == 4
        terms = set(d.dict.terms())
        assert '"hello"@en' in terms
        assert '"5"^^<http://www.w3.org/2001/XMLSchema#integer>' in terms
        assert lexical_form('"tab\\there"') == "tab\there"
        assert make_literal("é") in terms

    def test_lexical_form_decodes_as_unescape(self):
        assert lexical_form('"a\\u00e9"') == "aé"
        # a body unescape rejects, as only a hand-written snapshot holds,
        # compares as its raw text
        assert lexical_form('"a\\qb"') == "a\\qb"

    def test_blank_nodes(self):
        d = load_ntriples("_:b1 <p> _:b2 .\n")
        assert d.size == 1

    def test_bytes_input(self):
        d = load_ntriples(io.BytesIO(D_TOY_NT.encode("utf-8")))
        assert d.size == 8


class TestScan:
    def test_type_post(self, d_toy):
        rel = scan(resolve(d_toy, tp("?x", "type", "Post")))
        assert rel.schema == ("x",)
        got = {d_toy.dict.decode(row[0]) for row in rel.rows}
        assert got == {"p1", "p2"}
        assert rel.exact_cardinality == 2

    def test_full_wildcard(self, d_toy):
        rel = scan(resolve(d_toy, tp("?s", "?p", "?o")))
        assert rel.schema == ("s", "p", "o")
        assert rel.exact_cardinality == 8

    def test_no_match(self, d_toy):
        assert scan(resolve(d_toy, tp("u1", "type", "Post"))).rows == []

    def test_absent_term_yields_empty(self, d_toy):
        assert scan(resolve(d_toy, tp("?x", "no_such_predicate", "?y"))).rows == []

    def test_repeated_variable_requires_equality(self):
        d = Dataset.from_strings([("a", "p", "a"), ("a", "p", "b")])
        rel = scan(resolve(d, tp("?x", "p", "?x")))
        assert rel.schema == ("x",)
        assert [d.dict.decode(r[0]) for r in rel.rows] == ["a"]

    def test_scan_is_pure(self, d_toy):
        pattern = tp("?x", "type", "?t")
        first = scan(resolve(d_toy, pattern))
        second = scan(resolve(d_toy, pattern))
        assert first.schema == second.schema and first.rows == second.rows

    def test_all_shapes_against_naive_filter(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randrange(0, 120)
            d = Dataset.from_strings(
                (
                    f"s{rng.randrange(12)}",
                    f"p{rng.randrange(5)}",
                    f"o{rng.randrange(15)}",
                )
                for _ in range(n)
            )
            for _ in range(25):
                s = f"s{rng.randrange(14)}" if rng.random() < 0.5 else "?a"
                p = f"p{rng.randrange(6)}" if rng.random() < 0.5 else "?b"
                o = f"o{rng.randrange(17)}" if rng.random() < 0.5 else "?c"
                pattern = tp(s, p, o)
                assert scan(resolve(d, pattern)).exact_cardinality == naive_scan_count(d, pattern)

    def test_histograms_consistent_with_scans(self, d_toy):
        for term in d_toy.dict.terms():
            tid = d_toy.dict.lookup(term)
            assert d_toy.stats.count(tid, "P") == scan(
                resolve(d_toy, tp("?s", term, "?o"))
            ).exact_cardinality
            assert d_toy.stats.count(tid, "S") == scan(
                resolve(d_toy, tp(term, "?p", "?o"))
            ).exact_cardinality
            assert d_toy.stats.count(tid, "O") == scan(
                resolve(d_toy, tp("?s", "?p", term))
            ).exact_cardinality

    def test_stats_lookup_absent_term(self, d_toy):
        assert d_toy.stats.count(10_000, "S") == 0


class TestIntermediates:
    def test_round_trip(self, d_toy):
        rel = Relation(("x",), [[1, 2]], 2)
        rid = register_intermediate(d_toy, rel)
        assert d_toy.intermediates[rid] is rel
        assert d_toy.intermediates[rid].exact_cardinality == 2

    def test_empty_relation(self, d_toy):
        rid = register_intermediate(d_toy, Relation(("x",), [[]], 0))
        assert d_toy.intermediates[rid].exact_cardinality == 0

    def test_fresh_ids(self, d_toy):
        a = register_intermediate(d_toy, Relation(("x",), [[]], 0))
        b = register_intermediate(d_toy, Relation(("y",), [[]], 0))
        assert a != b


ALL_SHAPES = [
    ("p1", "type", "Post"),
    ("p1", "type", "?o"),
    ("p1", "?p", "Post"),
    ("?s", "type", "Post"),
    ("p1", "?p", "?o"),
    ("?s", "type", "?o"),
    ("?s", "?p", "Post"),
    ("?s", "?p", "?o"),
]


class TestSnapshot:
    def test_round_trip_all_shapes(self, d_toy):
        buf = io.BytesIO()
        snapshot_save(d_toy, buf)
        buf.seek(0)
        assert buf.getvalue().startswith(b"ROSIEDB1")
        loaded = snapshot_load(buf)
        assert loaded.size == d_toy.size
        for shape in ALL_SHAPES:
            pattern = tp(*shape)
            a = scan(resolve(d_toy, pattern))
            b = scan(resolve(loaded, pattern))
            decode_a = {tuple(d_toy.dict.decode(c) for c in row) for row in a.rows}
            decode_b = {tuple(loaded.dict.decode(c) for c in row) for row in b.rows}
            assert decode_a == decode_b

    def test_bad_magic(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_load(io.BytesIO(b"NOTADB00rest"))

    def test_truncated(self, d_toy):
        buf = io.BytesIO()
        snapshot_save(d_toy, buf)
        data = buf.getvalue()[:-3]
        with pytest.raises(SnapshotFormatError):
            snapshot_load(io.BytesIO(data))

    def test_empty_dataset(self):
        buf = io.BytesIO()
        snapshot_save(load_ntriples(""), buf)
        buf.seek(0)
        assert snapshot_load(buf).size == 0


def snapshot_bytes(terms: list[bytes], triples: list[tuple[int, int, int]]) -> bytes:
    """A snapshot written by hand in the documented layout."""
    out = [b"ROSIEDB1", struct.pack("<I", len(terms))]
    for blob in terms:
        out += [struct.pack("<I", len(blob)), blob]
    out.append(struct.pack("<I", len(triples)))
    out += [struct.pack("<III", *t) for t in triples]
    return b"".join(out)


GOOD_SNAPSHOT = snapshot_bytes([b"a", b"p", b"b"], [(0, 1, 0), (0, 1, 2)])

# snapshots `snapshot_load` rejects with SnapshotFormatError, by case
BAD_SNAPSHOTS = {
    "invalid-utf8": snapshot_bytes([b"a", b"\xff\xfe", b"b"], [(0, 0, 2)]),
    "trailing-bytes": GOOD_SNAPSHOT + b"\x00",
    # without the check, a later id would shift and (0, 1, 2) would read a p b
    "duplicate-term": snapshot_bytes([b"a", b"p", b"a", b"b"], [(0, 1, 2)]),
}


class TestSnapshotFormat:
    def test_hand_written_snapshot_matches_save(self):
        loaded = snapshot_load(io.BytesIO(GOOD_SNAPSHOT))
        assert loaded.dict.terms() == ["a", "p", "b"]
        assert list(loaded.triples()) == [(0, 1, 0), (0, 1, 2)]
        buf = io.BytesIO()
        snapshot_save(loaded, buf)
        assert buf.getvalue() == GOOD_SNAPSHOT

    def test_invalid_utf8_in_dictionary(self):
        with pytest.raises(SnapshotFormatError, match="invalid UTF-8 in dictionary entry 1"):
            snapshot_load(io.BytesIO(BAD_SNAPSHOTS["invalid-utf8"]))

    def test_trailing_bytes(self):
        with pytest.raises(SnapshotFormatError, match="trailing bytes"):
            snapshot_load(io.BytesIO(BAD_SNAPSHOTS["trailing-bytes"]))

    def test_duplicate_dictionary_string(self):
        with pytest.raises(SnapshotFormatError, match="duplicate dictionary string"):
            snapshot_load(io.BytesIO(BAD_SNAPSHOTS["duplicate-term"]))

    def test_id_out_of_range(self):
        with pytest.raises(SnapshotFormatError, match="out of dictionary range"):
            snapshot_load(io.BytesIO(snapshot_bytes([b"a"], [(0, 0, 1)])))

    @pytest.mark.parametrize("cut", [4, 9, 14, 16, len(GOOD_SNAPSHOT) - 1])
    def test_truncated_anywhere(self, cut):
        with pytest.raises(SnapshotFormatError):
            snapshot_load(io.BytesIO(GOOD_SNAPSHOT[:cut]))

    def test_unsorted_or_repeated_triples_load_to_the_same_dataset(self, d_toy):
        buf = io.BytesIO()
        snapshot_save(d_toy, buf)
        terms = [t.encode("utf-8") for t in d_toy.dict.terms()]
        spo = list(d_toy.triples())
        shuffled = spo + spo[:3]
        random.Random(5).shuffle(shuffled)
        for triples in (shuffled, spo[::-1], spo + spo[-1:]):
            loaded = snapshot_load(io.BytesIO(snapshot_bytes(terms, triples)))
            assert loaded.dict.terms() == d_toy.dict.terms()
            assert (loaded.spo, loaded.pos, loaded.osp) == (d_toy.spo, d_toy.pos, d_toy.osp)
            assert loaded.stats == d_toy.stats
            again = io.BytesIO()
            snapshot_save(loaded, again)
            assert again.getvalue() == buf.getvalue()


def assert_columnar(d):
    """Each index is three u32 arrays; POS and OSP are the sorted rotations
    of the SPO triples, which are ascending and distinct."""
    for cols in (d.spo, d.pos, d.osp):
        assert len(cols) == 3
        assert all(type(col) is array and col.typecode == _U32_ARRAY for col in cols)
    spo = list(d.triples())
    assert spo == sorted(set(spo))
    assert list(zip(*d.pos)) == sorted((p, o, s) for s, p, o in spo)
    assert list(zip(*d.osp)) == sorted((o, s, p) for s, p, o in spo)
    assert d.stats == Stats(len(spo), *(Counter(t[k] for t in spo) for k in range(3)))


IDS = st.integers(0, 5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(IDS, IDS, IDS), max_size=30), st.integers(0, 2**16))
def test_indexes_are_sorted_u32_columns(triples, seed):
    d = Dataset.from_strings([tuple(f"t{i}" for i in t) for t in triples])
    assert_columnar(d)
    decode = d.dict.decode
    assert {(decode(s), decode(p), decode(o)) for s, p, o in d.triples()} == {
        tuple(f"t{i}" for i in t) for t in triples
    }
    # a section shuffled and with repeats, as only a hand-written snapshot has
    section = triples + triples[: len(triples) // 2]
    random.Random(seed).shuffle(section)
    loaded = snapshot_load(io.BytesIO(snapshot_bytes([b"%d" % i for i in range(6)], section)))
    assert_columnar(loaded)
    assert set(loaded.triples()) == set(triples)


@pytest.fixture
def builds(monkeypatch):
    """What the code that derives POS, OSP and the statistics from SPO has
    built so far: each permutation `_gather` returned and each histogram
    counted, in order."""
    made: dict[str, list] = {"permutations": [], "histograms": []}
    gather = store._gather

    def counting_gather(cols, key):
        out = gather(cols, key)
        made["permutations"].append(out)
        return out

    class CountingCounter(Counter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["histograms"].append(self)

    monkeypatch.setattr(store, "_gather", counting_gather)
    monkeypatch.setattr(store, "Counter", CountingCounter)
    return made


def built_once(made, d) -> bool:
    """Whether `made` is exactly one build of each of `d`'s POS, OSP and
    statistics, and those builds are what `d` reads."""
    return (
        sorted(map(id, made["permutations"])) == sorted([id(d.pos), id(d.osp)])
        and list(map(id, made["histograms"]))
        == [id(d.stats.s_hist), id(d.stats.p_hist), id(d.stats.o_hist)]
    )


def test_load_save_and_reopen_derive_nothing(builds):
    d = load_ntriples(D_TOY_NT)
    buf = io.BytesIO()
    snapshot_save(d, buf)
    loaded = snapshot_load(io.BytesIO(buf.getvalue()))
    # a section in another order is sorted as tuples, still without POS
    terms = [t.encode("utf-8") for t in d.dict.terms()]
    shuffled = snapshot_load(io.BytesIO(snapshot_bytes(terms, list(d.triples())[::-1])))
    assert loaded.size == shuffled.size == d.size == 8
    assert builds == {"permutations": [], "histograms": []}


def test_a_scan_derives_only_the_index_it_reads(builds):
    d = load_ntriples(D_TOY_NT)
    assert scan(resolve(d, tp("?s", "type", "?o"))).exact_cardinality == 3
    (built,) = builds["permutations"]
    assert builds["histograms"] == []
    assert built is d.pos
    # every later read finds what the first one built
    scan(resolve(d, tp("?s", "type", "?o")))
    scan(resolve(d, tp("?s", "?p", "Post")))
    assert d.stats.count(d.dict.lookup("type"), "P") == 3
    assert built_once(builds, d)


@pytest.mark.parametrize("kind", ["static", "eager", "rosie"])
def test_an_absent_constant_builds_no_permutation(builds, kind):
    d = load_ntriples(D_TOY_NT)
    # POS and OSP would hold the rows of these patterns, had <nope> any
    for text in ("SELECT ?s WHERE { ?s <nope> ?o . }", "SELECT ?s WHERE { ?s ?p <nope> . }"):
        rel, _ = run(parse_query(text), d, Policy(kind))
        assert (rel.schema, rel.rows) == (("s",), [])
    assert builds["permutations"] == []


def test_concurrent_first_reads_derive_each_structure_once(builds):
    # more threads than cores, and a switch after almost every bytecode,
    # so that first reads overlap the builds they race
    rng = random.Random(11)
    d = Dataset.from_strings(
        (f"s{rng.randrange(300)}", f"p{rng.randrange(4)}", f"s{rng.randrange(300)}")
        for _ in range(3000)
    )
    q = parse_query("SELECT * WHERE { ?x <p1> ?y . ?y <p2> ?z . }")
    barrier = threading.Barrier(8, timeout=30)
    bags: dict[int, Counter] = {}
    errors: list[BaseException] = []

    def first_reader(i: int) -> None:
        try:
            barrier.wait()
            # all in one order, so that every thread races every build
            for name in ("pos", "osp", "stats"):
                getattr(d, name)
            rel, _ = run(q, d, Policy(("static", "eager", "rosie")[i % 3]))
            bags[i] = Counter(rel.rows)
        except BaseException as exc:  # reported by the asserts below
            errors.append(exc)

    threads = [threading.Thread(target=first_reader, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert built_once(builds, d)
    assert len(bags) == 8 and all(bag == bags[0] for bag in bags.values())
    assert bags[0] == evaluate_query(q, d)
