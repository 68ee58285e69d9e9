"""In-memory triple store with dictionary encoding and exact histograms.

Terms are interned into dense integer ids in first-seen order. Triples are
kept in three sorted permutations (SPO, POS, OSP) so that every pattern with
one or two bound positions scans a contiguous range. Each permutation is
three columns of unsigned 32-bit ids, one `array` per position. `resolve`
turns a pattern, once per query, into its `Extent`: its constants' ids,
its permutation and the range of rows that match, found by bisecting one
column after the other. `scan` only slices that range, one `array` per
variable, and builds no row tuple. A dataset is built from SPO alone: POS
and OSP are derived from it by a stable sort of row indices, and the
statistics, exact per-value counts (for each term the number of triples
where it appears as subject, predicate, or object), by counting its
columns. Each of the three is built once, on first read, so a load or a
reopen, which read none of them, pays for none, and a query pays only for
those it reads. A load dedupes and sorts each triple as one integer,
`s << 64 | p << 32 | o`, which orders as its ids, and unpacks them into SPO.

A dataset is logically immutable after load: a structure built on first
read is a function of SPO and the dictionary, so no reader can tell when
it was built. The only mutation is registering intermediate relations
produced while executing a single query, which the query releases again
when it ends.
"""

from __future__ import annotations

import io
import re
import struct
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice
from operator import eq, itemgetter, lt
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import EscapeError, ParseError, SnapshotFormatError

TermId = int
RelationId = int

SNAPSHOT_MAGIC = b"ROSIEDB1"
_U32 = struct.Struct("<I")
# the array typecode of an unsigned 32-bit integer (4 bytes on common hosts)
_U32_ARRAY = next(code for code in "IL" if array(code).itemsize == 4)

# Term canonical forms:
#   IRI      -> the IRI string itself (no angle brackets)
#   literal  -> '"' escaped-lexical '"' plus optional @lang or ^^<datatype>
#   blank    -> '_:' label

# a language tag, in N-Triples and in queries alike
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"

# a SPARQL numeral, DOUBLE, DECIMAL or INTEGER, optionally signed, in a
# query and in a FILTER comparison alike; the longer forms come first, so
# that a match at a token's start takes the whole numeral
NUMERAL = r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-]?[0-9]+|[0-9]*\.[0-9]+|[0-9]+)"

# ECHAR, the single-character escapes of N-Triples and SPARQL strings
_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_HEX = re.compile("[0-9A-Fa-f]+")
_REV_ESCAPES = {"\t": "\\t", "\n": "\\n", "\r": "\\r", '"': '\\"', "\\": "\\\\"}
# a literal's body: up to its closing quote, or to a dangling backslash
_LITERAL_BODY = re.compile(r'(?:[^"\\]|\\.)*\\?', re.DOTALL)


def unescape(body: str) -> str:
    """Decode the escapes of a string body, as N-Triples literals and SPARQL
    strings share them: ECHAR and `\\u`/`\\U` code points.

    EscapeError on a dangling or unknown escape, a `\\u`/`\\U` without its
    hex digits, a code point past U+10FFFF or a surrogate code point.
    """
    out = []
    i = 0
    while (j := body.find("\\", i)) >= 0:
        out.append(body[i:j])
        nxt = body[j + 1 : j + 2]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i = j + 2
        elif nxt == "u" or nxt == "U":
            width = 4 if nxt == "u" else 8
            digits = body[j + 2 : j + 2 + width]
            if (
                len(digits) != width or not _HEX.fullmatch(digits)
                or int(digits, 16) > sys.maxunicode
            ):
                raise EscapeError(j, "bad unicode escape")
            char = chr(int(digits, 16))
            if "\ud800" <= char <= "\udfff":
                # a lone surrogate is no character and cannot be stored
                raise EscapeError(j, f"surrogate code point \\{nxt}{digits}")
            out.append(char)
            i = j + 2 + width
        elif nxt:
            raise EscapeError(j, f"unknown escape \\{nxt}")
        else:
            raise EscapeError(j, "dangling escape")
    out.append(body[i:])
    return "".join(out)


def escape_literal(lexical: str) -> str:
    return "".join(_REV_ESCAPES.get(c, c) for c in lexical)


def make_literal(lexical: str, lang: str = "", datatype: str = "") -> str:
    term = f'"{escape_literal(lexical)}"'
    if lang:
        term += f"@{lang}"
    elif datatype:
        term += f"^^<{datatype}>"
    return term


def lexical_form(term: str) -> str:
    """The comparison string of a term: literal content or the IRI itself.

    A literal body that `unescape` rejects compares as its raw text; only a
    snapshot written by hand can hold one, since every parser stores the
    canonical form.
    """
    if not term.startswith('"'):
        return term
    body = _LITERAL_BODY.match(term, 1).group()
    try:
        return unescape(body)
    except EscapeError:
        return body


class Triple(NamedTuple):
    s: TermId
    p: TermId
    o: TermId


class TermDictionary:
    """Bijective term <-> id mapping; ids are dense and first-seen ordered."""

    def __init__(self, ids: Optional[dict[str, TermId]] = None) -> None:
        """`ids`, when given, maps each term to its id and lists the terms
        in id order 0, 1, 2, ...; the dictionary takes it over."""
        self._ids: dict[str, TermId] = {} if ids is None else ids
        self._terms: list[str] = list(self._ids)

    def __len__(self) -> int:
        return len(self._terms)

    def encode(self, term: str) -> TermId:
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._terms.append(term)
            self._ids[term] = tid
        return tid

    def lookup(self, term: str) -> Optional[TermId]:
        return self._ids.get(term)

    def decode(self, tid: TermId) -> str:
        return self._terms[tid]

    def terms(self) -> list[str]:
        return list(self._terms)


@dataclass
class Stats:
    """Exact single-value histograms plus the dataset size."""

    size: int
    s_hist: Counter
    p_hist: Counter
    o_hist: Counter

    def count(self, term: TermId, role: str) -> int:
        if role == "S":
            return self.s_hist.get(term, 0)
        if role == "P":
            return self.p_hist.get(term, 0)
        if role == "O":
            return self.o_hist.get(term, 0)
        raise ValueError(f"unknown role {role!r}")


class Relation:
    """Bag of solution rows over an ordered variable schema, held as one
    column of term ids per variable plus the row count.

    A None cell means the variable is unbound in that row. A column is any
    sequence (an `array` slice, a tuple, a list). `rows` builds the row
    tuples on first read and keeps them; the executor reads them only for
    a query's result.
    """

    __slots__ = ("schema", "columns", "size", "_rows")

    def __init__(
        self,
        schema: tuple[str, ...],
        columns: Sequence[Sequence[Optional[TermId]]],
        size: int,
        rows: Optional[list[tuple]] = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.size = size
        self._rows = rows

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = list(zip(*self.columns)) if self.columns else [()] * self.size
        return self._rows

    @property
    def exact_cardinality(self) -> int:
        return self.size


# one permutation: its three id columns, each an array of _U32_ARRAY
Columns = tuple[array, array, array]


class _Derived:
    """A `Dataset` member computed from the dataset on first read, at most
    once per dataset: the build runs under the dataset's `_derive_lock`,
    and the value then sits in the instance's `__dict__`, where every
    later read finds it without calling the descriptor."""

    def __init__(self, build) -> None:
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, d, owner=None):
        if d is None:
            return self
        with d._derive_lock:
            value = d.__dict__.get(self.name)
            if value is None:
                value = d.__dict__[self.name] = self.build(d)
        return value


class Dataset:
    """Immutable triple set plus dictionary, stats and query intermediates.

    Only SPO is built with the dataset. POS, OSP and the statistics are
    derived from it once, on the first read of `pos`, `osp` or `stats`,
    under one lock per dataset, so concurrent first readers build each
    at most once.
    """

    def __init__(self, dictionary: TermDictionary, spo: Columns):
        """`spo` holds the S, P and O columns of each (s, p, o) id triple,
        once and in ascending order; it becomes the SPO index as it is."""
        self.dict = dictionary
        self.spo: Columns = spo
        self.intermediates: dict[RelationId, Relation] = {}
        self._next_relation_id = 1
        self._registration_lock = threading.Lock()
        self._derive_lock = threading.Lock()

    @_Derived
    def pos(self) -> Columns:
        """The POS index: SPO stably sorted on (p, o), so s ascends
        within ties."""
        s, p, o = self.spo
        width = len(self.dict)
        return _gather((p, o, s), [pi * width + oi for pi, oi in zip(p, o)])

    @_Derived
    def osp(self) -> Columns:
        """The OSP index: SPO stably sorted on o, so (s, p) ascends
        within ties."""
        s, p, o = self.spo
        return _gather((o, s, p), o)

    @_Derived
    def stats(self) -> Stats:
        """The exact per-term histograms of the three positions."""
        s, p, o = self.spo
        return Stats(size=len(s), s_hist=Counter(s), p_hist=Counter(p), o_hist=Counter(o))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_strings(cls, triples: Iterable[tuple[str, str, str]]) -> "Dataset":
        # term -> id in first-seen order; the key order is the term list
        ids: dict[str, TermId] = {}
        intern = ids.setdefault
        keys = sorted({
            intern(s, len(ids)) << 64 | intern(p, len(ids)) << 32 | intern(o, len(ids))
            for s, p, o in triples
        })
        return cls(TermDictionary(ids), _unpack(keys))

    @property
    def size(self) -> int:
        return len(self.spo[0])

    def triples(self) -> Iterator[Triple]:
        return map(Triple, *self.spo)


def _unpack(keys: list[int]) -> Columns:
    """The S, P and O columns of sorted keys `s << 64 | p << 32 | o`."""
    flat = array(_U32_ARRAY)
    for at in range(0, len(keys), 4096):
        flat.frombytes(b"".join([k.to_bytes(12, "big") for k in keys[at : at + 4096]]))
    if sys.byteorder == "little":
        flat.byteswap()
    return flat[0::3], flat[1::3], flat[2::3]


def _gather(cols: Columns, key: Sequence[int]) -> Columns:
    """`cols` reordered by a stable sort of their rows on `key`."""
    order = sorted(range(len(key)), key=key.__getitem__)
    if len(order) < 2:
        # itemgetter of fewer than two items returns no tuple
        return tuple(array(_U32_ARRAY, [col[i] for i in order]) for col in cols)
    gather = itemgetter(*order)
    return tuple(array(_U32_ARRAY, gather(col)) for col in cols)


def load_ntriples(source) -> Dataset:
    """Parse line-oriented N-Triples from a byte or text stream.

    Duplicate triples are deduplicated (graphs are sets). Comments (#) and
    blank lines are permitted. Malformed lines abort with ParseError.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if isinstance(source, str):
        source = io.StringIO(source)
    return Dataset.from_strings(_ntriples_terms(source))


_SURROGATE = re.compile("[\ud800-\udfff]")


def _ntriples_terms(source) -> Iterator[tuple[str, str, str]]:
    """The canonical terms of each triple line of a stream, in order."""
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(line_no, f"invalid UTF-8: {exc}") from None
        elif surrogate := _SURROGATE.search(raw):
            # what a byte source cannot hold: UTF-8 has no surrogates
            raise ParseError(
                line_no, f"surrogate code point U+{ord(surrogate.group()):04X}"
            )
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield _parse_ntriples_line(line, line_no)


# A line whose terms are already in canonical form: the subject an IRI or an
# ASCII blank node, the predicate an IRI, the object an IRI, an ASCII blank
# node or a literal whose only escapes are \t \n \r \" \\, with no raw
# tab, CR or LF, and an optional LANGTAG or non-empty ^^<datatype>. Such a
# literal is its own canonical form (`make_literal` of its unescaped lexical
# form gives it back), so the groups are the terms. A label or tag is
# followed by a character that would also end it in `_parse_ntriples_chars`.
_BLANK = r"_:[A-Za-z0-9_-]+"
_LITERAL = rf'"[^"\\\t\r\n]*(?:\\[tnr"\\][^"\\\t\r\n]*)*"(?:@{LANGTAG}|\^\^<[^>]+>)?'
_CANONICAL_LINE = re.compile(
    rf"[ \t]*(?:<([^>]*)>|({_BLANK}))"
    r"[ \t]*<([^>]*)>"
    rf"[ \t]*(?:<([^>]*)>|({_BLANK}|{_LITERAL}))"
    r"[ \t]*\.[ \t]*(?:#.*)?",
    re.DOTALL,
)


def _parse_ntriples_line(line: str, line_no: int) -> tuple[str, str, str]:
    """The canonical terms of one N-Triples line, or ParseError.

    A line in canonical form takes one regex match; any other line, and so
    every error, goes to the character-level parser.
    """
    m = _CANONICAL_LINE.fullmatch(line)
    if m is None:
        return _parse_ntriples_chars(line, line_no)
    s_iri, s_blank, p, o_iri, o_other = m.groups()
    return (s_blank if s_iri is None else s_iri), p, (o_other if o_iri is None else o_iri)


def _parse_ntriples_chars(line: str, line_no: int) -> tuple[str, str, str]:
    pos = 0
    terms = []
    for which in ("subject", "predicate", "object"):
        while pos < len(line) and line[pos] in " \t":
            pos += 1
        if pos >= len(line):
            raise ParseError(line_no, f"missing {which}")
        term, pos = _parse_term(line, pos, line_no, which)
        terms.append(term)
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    if pos >= len(line) or line[pos] != ".":
        raise ParseError(line_no, "expected '.' terminator")
    rest = line[pos + 1 :].strip()
    if rest and not rest.startswith("#"):
        raise ParseError(line_no, f"trailing content {rest[:20]!r}")
    return terms[0], terms[1], terms[2]


def _parse_term(line: str, pos: int, line_no: int, which: str) -> tuple[str, int]:
    c = line[pos]
    if c == "<":
        end = line.find(">", pos + 1)
        if end < 0:
            raise ParseError(line_no, f"unterminated IRI in {which}")
        return line[pos + 1 : end], end + 1
    if c == "_" and line[pos : pos + 2] == "_:":
        end = pos + 2
        while end < len(line) and (line[end].isalnum() or line[end] in "_-"):
            end += 1
        if end == pos + 2:
            raise ParseError(line_no, f"empty blank node label in {which}")
        return line[pos:end], end
    if c == '"':
        i = _LITERAL_BODY.match(line, pos + 1).end()
        try:
            lexical = unescape(line[pos + 1 : i])
        except EscapeError as exc:
            raise ParseError(line_no, exc.reason) from None
        if i >= len(line):
            raise ParseError(line_no, f"unterminated literal in {which}")
        i += 1
        lang = ""
        datatype = ""
        if line[i : i + 1] == "@":
            end = i + 1
            while end < len(line) and (line[end].isalnum() or line[end] == "-"):
                end += 1
            lang = line[i + 1 : end]
            if not re.fullmatch(LANGTAG, lang):
                raise ParseError(line_no, f"bad language tag {lang!r}")
            i = end
        elif line[i : i + 2] == "^^":
            if line[i + 2 : i + 3] != "<":
                raise ParseError(line_no, "datatype must be an IRI")
            end = line.find(">", i + 3)
            if end < 0:
                raise ParseError(line_no, "unterminated datatype IRI")
            datatype = line[i + 3 : end]
            i = end + 1
        return make_literal(lexical, lang, datatype), i
    raise ParseError(line_no, f"unexpected character {c!r} in {which}")


# Each index: its `Dataset` attribute and the positions (0 S, 1 P, 2 O) its
# columns hold, in column order.
_INDEXES = (("spo", (0, 1, 2)), ("pos", (1, 2, 0)), ("osp", (2, 0, 1)))
# the index for each set of bound positions: the one whose leading columns
# they are, SPO where several are
_INDEX = {frozenset(order[:k]): (name, order) for name, order in _INDEXES[::-1] for k in range(4)}


class Extent(NamedTuple):
    """A triple pattern resolved against a dataset (see `resolve`): the
    permutation a scan of it reads, the rows of it that match, and where
    its variables sit. A scan only slices it."""

    cols: Columns  # the permutation's three id columns
    positions: tuple[int, int, int]  # the pattern position (0 S, 1 P, 2 O) of each column
    lo: int  # the matching rows are [lo, hi)
    hi: int
    ids: tuple  # the id at each pattern position, None where a variable is
    first: dict[str, int]  # each free variable's first position, in S, P, O order
    equal: tuple  # the position pairs a repeated free variable forces equal
    keyed: tuple  # (position, index in the key) of each keyed variable

    @property
    def schema(self) -> tuple[str, ...]:
        """The free variables, in S, P, O order."""
        return tuple(self.first)

    @property
    def order(self) -> tuple[str, ...]:
        """The free variables whose cells the rows ascend in, most
        significant first: rows compare as the tuples of these cells."""
        names = {pos: v for v, pos in self.first.items()}
        names.update((b, names[a]) for a, b in self.equal)
        return tuple(dict.fromkeys(names[pos] for pos in self.positions if pos in names))

    def at(self, key: Sequence[TermId]) -> "Extent":
        """The extent narrowed to the rows whose keyed variables hold the
        cells of `key`, in the order `resolve` was given them."""
        ids = list(self.ids)
        for pos, k in self.keyed:
            ids[pos] = key[k]
        cols, positions, lo, hi, *rest = self
        return Extent(cols, positions, *_narrow(cols, positions, ids, lo, hi), *rest)


def resolve(d: Dataset, tp, keyed: Sequence[str] = ()) -> Extent:
    """The extent of a frontend.TriplePattern: its constants' ids, the
    permutation whose leading columns its bound positions are, and the
    rows [lo, hi) that match the constants leading it, by two bisects per
    constant. A repeated variable makes the range an upper bound of the
    rows a scan keeps.

    The variables in `keyed` count as bound when the permutation is chosen
    but are left out of the schema; `Extent.at` finds their rows for each
    key. A constant absent from the dictionary resolves to the empty range
    of SPO, which every dataset holds, so no other permutation is read.
    """
    ids: list[Optional[TermId]] = [None, None, None]
    bound = set()
    first: dict[str, int] = {}
    equal = []
    key_at = []
    absent = False
    for pos, atom in enumerate((tp.s, tp.p, tp.o)):
        if not atom.is_var():
            ids[pos] = d.dict.lookup(atom.value)
            absent = absent or ids[pos] is None
            bound.add(pos)
        elif atom.name in keyed:
            key_at.append((pos, keyed.index(atom.name)))
            bound.add(pos)
        elif atom.name in first:
            equal.append((first[atom.name], pos))
        else:
            first[atom.name] = pos
    # SPO when nothing can match, since every dataset holds it
    name, positions = _INDEXES[0] if absent else _INDEX[frozenset(bound)]
    cols = getattr(d, name)
    lo, hi = (0, 0) if absent else _narrow(cols, positions, ids, 0, len(cols[0]))
    return Extent(cols, positions, lo, hi, tuple(ids), first, tuple(equal), tuple(key_at))


def _narrow(cols: Columns, positions, ids, lo: int, hi: int) -> tuple[int, int]:
    """The rows of [lo, hi) that hold `ids`, bisecting one column after
    the other up to the first position without an id."""
    for col, pos in zip(cols, positions):
        tid = ids[pos]
        if tid is None:
            break
        lo = bisect_left(col, tid, lo, hi)
        hi = bisect_right(col, tid, lo, hi)
    return lo, hi


def scan(ext: Extent) -> Relation:
    """All solutions of a resolved triple pattern, schema in S,P,O order.

    The relation's columns are the slices of the extent's range, one
    `array` per free variable, so rows keep the order of that range and no
    row tuple is built; a repeated variable keeps only the rows whose
    positions agree. A pattern without variables has no column and one
    row per match.
    """
    cols, positions, lo, hi = ext.cols, ext.positions, ext.lo, ext.hi
    columns = [cols[positions.index(pos)][lo:hi] for pos in ext.first.values()]
    if not ext.equal:
        return Relation(ext.schema, columns, hi - lo)
    agree = [
        map(eq, cols[positions.index(a)][lo:hi], cols[positions.index(b)][lo:hi])
        for a, b in ext.equal
    ]
    keep = list(map(all, zip(*agree)))
    columns = [array(_U32_ARRAY, compress(col, keep)) for col in columns]
    return Relation(ext.schema, columns, len(columns[0]))


def register_intermediate(d: Dataset, r: Relation) -> RelationId:
    """Make a relation retrievable by id for the rest of the query.

    The only mutation a dataset sees after load; guarded so concurrent
    queries on one dataset cannot collide on ids. The query frees it with
    `release_intermediates` when it ends.
    """
    with d._registration_lock:
        rid = d._next_relation_id
        d._next_relation_id += 1
        d.intermediates[rid] = r
    return rid


def release_intermediates(d: Dataset, rids: Iterable[RelationId]) -> None:
    """Drop relations a finished query registered; ids are never reused."""
    with d._registration_lock:
        for rid in rids:
            d.intermediates.pop(rid, None)


def snapshot_save(d: Dataset, sink: BinaryIO) -> None:
    """Write a snapshot: magic, dictionary strings, fixed-width triples.

    Every integer is a little-endian u32: the term count, then each term's
    UTF-8 length and bytes in id order, the triple count, then the SPO
    columns interleaved as (s, p, o) ids, so the triples are written in
    ascending order.
    """
    head = bytearray(SNAPSHOT_MAGIC)
    head += _U32.pack(len(d.dict))
    for blob in map(str.encode, d.dict.terms()):
        head += _U32.pack(len(blob))
        head += blob
    head += _U32.pack(d.size)
    sink.write(head)
    ids = array(_U32_ARRAY, bytes(12 * d.size))
    for k, col in enumerate(d.spo):
        ids[k::3] = col
    if sys.byteorder == "big":
        ids.byteswap()
    sink.write(ids)


def snapshot_load(source: BinaryIO) -> Dataset:
    """Read a snapshot `snapshot_save` wrote; SnapshotFormatError otherwise.

    A triple section in ascending order without repeats, as `snapshot_save`
    writes it, becomes the SPO columns as it is, with no tuple built to
    keep; only any other order is sorted and deduplicated, as a load is.
    """
    data = source.read()
    off = len(SNAPSHOT_MAGIC)
    if data[:off] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {data[:off]!r}")
    blobs = []
    try:
        (term_count,) = _U32.unpack_from(data, off)
        off += 4
        for _ in range(term_count):
            (length,) = _U32.unpack_from(data, off)
            off += 4
            if off + length > len(data):
                raise SnapshotFormatError("truncated dictionary entry")
            blobs.append(data[off : off + length])
            off += length
        (triple_count,) = _U32.unpack_from(data, off)
        off += 4
    except struct.error:
        raise SnapshotFormatError("truncated snapshot") from None
    try:
        terms = list(map(bytes.decode, blobs))
    except UnicodeDecodeError as exc:
        # the decode stops at the first bad entry; the error holds its bytes
        raise SnapshotFormatError(
            f"invalid UTF-8 in dictionary entry {blobs.index(exc.object)}: {exc.reason}"
        ) from None
    del blobs
    ids = dict(zip(terms, range(term_count)))
    if len(ids) != term_count:
        raise SnapshotFormatError("duplicate dictionary string")
    size = 12 * triple_count
    if len(data) - off < size:
        raise SnapshotFormatError("truncated snapshot")
    if len(data) - off > size:
        raise SnapshotFormatError("trailing bytes after the triple section")
    flat = array(_U32_ARRAY)
    flat.frombytes(memoryview(data)[off:])
    if sys.byteorder == "big":
        flat.byteswap()
    if flat and max(flat) >= term_count:
        raise SnapshotFormatError("triple id out of dictionary range")
    spo = (flat[0::3], flat[1::3], flat[2::3])
    del flat
    if not all(map(lt, zip(*spo), islice(zip(*spo), 1, None))):
        spo = _unpack(sorted({s << 64 | p << 32 | o for s, p, o in zip(*spo)}))
    return Dataset(TermDictionary(ids), spo)
