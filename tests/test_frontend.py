import pytest

from rosie.errors import QuerySyntaxError, UnsupportedFeature
from rosie.frontend import (
    AND,
    FILTER,
    OPT,
    OR,
    FilterNode,
    Leaf,
    OpNode,
    _tokenize,
    parse_query,
    pretty_print,
)
from rosie.runtime import Policy, run
from rosie.store import lexical_form, load_ntriples

from conftest import QE_TEXT


def leaves_of(node):
    if isinstance(node, Leaf):
        return [node.tp]
    if isinstance(node, FilterNode):
        return leaves_of(node.child)
    return leaves_of(node.left) + leaves_of(node.right)


def operators_of(node):
    if isinstance(node, Leaf):
        return []
    if isinstance(node, FilterNode):
        return [FILTER] + operators_of(node.child)
    return [node.kind] + operators_of(node.left) + operators_of(node.right)


class TestParseShape:
    def test_example_query_structure(self):
        q = parse_query(QE_TEXT)
        assert len(q.patterns) == 11
        assert len(q.constraints) == 1
        assert q.operators == {AND, OR, OPT, FILTER}
        # root: optional part last
        root = q.tree
        assert isinstance(root, OpNode) and root.kind == OPT
        # mandatory side: (filtered block) And (union)
        left = root.left
        assert isinstance(left, OpNode) and left.kind == AND
        assert isinstance(left.left, FilterNode)
        assert isinstance(left.right, OpNode) and left.right.kind == OR
        # filter wraps the six-pattern conjunction
        filtered = left.left.child
        assert [t.id for t in leaves_of(filtered)] == [1, 2, 3, 4, 5, 6]
        assert [t.id for t in leaves_of(left.right)] == [7, 8, 9]
        assert [t.id for t in leaves_of(root.right)] == [10, 11]

    def test_single_pattern(self):
        q = parse_query("SELECT ?x WHERE { ?x <type> <Post> . }")
        assert len(q.patterns) == 1
        assert isinstance(q.tree, Leaf)

    def test_leaf_count_equals_pattern_count(self):
        q = parse_query(QE_TEXT)
        assert len(leaves_of(q.tree)) == len(q.patterns)

    def test_adjacent_members_left_fold(self):
        q = parse_query("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?d . }")
        t = q.tree
        assert isinstance(t, OpNode) and t.kind == AND
        assert isinstance(t.left, OpNode) and t.left.kind == AND
        assert isinstance(t.left.left, Leaf) and t.left.left.tp.id == 1

    def test_union_and_optional_binary(self):
        q = parse_query(
            "SELECT * WHERE { { ?a <p> ?b . } UNION { ?a <q> ?b . } "
            "OPTIONAL { ?b <r> ?c . } }"
        )
        assert operators_of(q.tree).count(OR) == 1
        assert operators_of(q.tree).count(OPT) == 1

    def test_predicate_object_list_sugar(self):
        q = parse_query("SELECT * WHERE { ?a <p> ?b ; <q> ?c , ?d . }")
        assert len(q.patterns) == 3
        assert q.patterns[1].p == q.patterns[2].p

    def test_a_keyword_is_rdf_type(self):
        q = parse_query("SELECT ?x WHERE { ?x a <Post> . }")
        assert q.patterns[0].p.value.endswith("rdf-syntax-ns#type")

    def test_prefix_expansion(self):
        q = parse_query(
            "PREFIX ex: <http://example.org/>\n"
            "SELECT ?x WHERE { ?x ex:knows ex:alice . }"
        )
        assert q.patterns[0].p.value == "http://example.org/knows"
        assert q.patterns[0].o.value == "http://example.org/alice"

    def test_dollar_variables_normalized(self):
        q = parse_query("SELECT $x WHERE { $x <p> ?y . }")
        assert q.projection == ["x"]
        assert q.patterns[0].s.name == "x"

    def test_modifiers(self):
        q = parse_query(
            "SELECT DISTINCT ?x WHERE { ?x <p> ?n . } "
            "ORDER BY DESC(?n) ?x LIMIT 10 OFFSET 2"
        )
        m = q.modifiers
        assert m.distinct and m.limit == 10 and m.offset == 2
        assert m.order_by == (("n", False), ("x", True))

    def test_projection_star(self):
        q = parse_query("SELECT * WHERE { ?b <p> ?a . ?a <q> ?c . }")
        assert q.projection == ["b", "a", "c"]


class TestFilters:
    def test_comparison_and_conjunction(self):
        q = parse_query("SELECT * WHERE { ?x <p> ?n . FILTER(?n > 3 && ?n <= 9) }")
        exprs = q.constraints[0].exprs
        assert [(e.var, e.op, e.operand) for e in exprs] == [
            ("n", ">", "3"),
            ("n", "<=", "9"),
        ]

    def test_reversed_comparison_is_flipped(self):
        q = parse_query('SELECT * WHERE { ?x <p> ?n . FILTER(5 < ?n) }')
        e = q.constraints[0].exprs[0]
        assert (e.var, e.op, e.operand) == ("n", ">", "5")

    def test_regex_with_flags(self):
        q = parse_query(
            'SELECT * WHERE { ?x <label> ?v . FILTER regex(str(?v), "sep", "i") }'
        )
        e = q.constraints[0].exprs[0]
        assert (e.var, e.op, e.operand, e.flags) == ("v", "regex", "sep", "i")

    def test_cast_syntax_accepted(self):
        q = parse_query(
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
            "SELECT * WHERE { ?x <pop> ?v . FILTER ( xsd:integer(?v) > 54 ) }"
        )
        e = q.constraints[0].exprs[0]
        assert (e.var, e.op, e.operand) == ("v", ">", "54")

    def test_prefixed_name_constant(self):
        # a prefixed name followed by "(" is a cast, else an IRI constant
        q = parse_query(
            "PREFIX ex: <http://e/> SELECT * WHERE { ?s ?p ?o FILTER(?o = ex:b) }"
        )
        e = q.constraints[0].exprs[0]
        assert (e.var, e.op, e.operand) == ("o", "=", "http://e/b")
        d = load_ntriples("<a> <p> <http://e/b> .\n<a> <p> <http://e/c> .\n")
        for kind in ("static", "eager", "rosie"):
            rel, _ = run(q, d, Policy(kind))
            assert [[d.dict.decode(t) for t in row] for row in rel.rows] == [
                ["a", "p", "http://e/b"]
            ]

    def test_filter_scopes_to_its_group(self):
        q = parse_query(
            "SELECT * WHERE { { ?a <p> ?b . FILTER(?b > 1) } ?a <q> ?c . }"
        )
        root = q.tree
        assert isinstance(root, OpNode) and root.kind == AND
        assert isinstance(root.left, FilterNode)


class TestRejections:
    @pytest.mark.parametrize(
        "text,needle",
        [
            ("ASK WHERE { ?x <p> ?y . }", "ASK"),
            ("CONSTRUCT { ?x <p> ?y } WHERE { ?x <p> ?y . }", "CONSTRUCT"),
            ("SELECT * WHERE { ?x <p> ?y . FILTER EXISTS { ?x <q> ?z . } }", "EXISTS"),
            ("SELECT * WHERE { ?x <p> ?y . FILTER NOT EXISTS { ?x <q> ?z } }", "EXISTS"),
            ("SELECT * WHERE { ?x <p> ?y . MINUS { ?x <q> ?y . } }", "MINUS"),
            ("SELECT * WHERE { ?x <p>/<q> ?y . }", "property paths"),
            ("SELECT * WHERE { ?x <p>|<q> ?y . }", "property paths"),
            ("SELECT (COUNT(?x) AS ?n) WHERE { ?x <p> ?y . }", "SELECT"),
            ("SELECT * WHERE { ?x <p> ?y . } GROUP BY ?x", "aggregates"),
            ("SELECT * WHERE { { SELECT ?x WHERE { ?x <p> ?y . } } }", "subquer"),
            ("SELECT * WHERE { ?x <p> ?y . FILTER(?x = ?y) }", "variable"),
            ("SELECT * WHERE { ?x <p> ?n . FILTER(?n > 1 || ?n < 0) }", "disjunctive"),
            ("SELECT * WHERE { OPTIONAL { ?x <p> ?y . } }", "OPTIONAL"),
            ("SELECT * WHERE { GRAPH <g> { ?x <p> ?y . } }", "graph"),
        ],
    )
    def test_unsupported_features(self, text, needle):
        with pytest.raises(UnsupportedFeature) as err:
            parse_query(text)
        assert needle.lower() in str(err.value).lower()

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?x WHERE { ?x <p> }",
            "SELECT WHERE { ?x <p> ?y . }",
            "SELECT ?x WHERE { }",
            "SELECT ?x WHERE { ?x <p> ?y . ",
            "SELECT ?z WHERE { ?x <p> ?y . }",  # projection var unused
            "SELECT ?x WHERE { <s> <p> <o> . }",  # ground pattern
            "FOO BAR",
        ],
    )
    def test_syntax_errors_carry_positions(self, text):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert err.value.pos >= 0

    def test_unknown_prefix(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?x WHERE { ?x ex:p ?y . }")

    @pytest.mark.parametrize(
        "suffix, offset, expected",
        [
            ('^^"b"', 2, "a datatype IRI"),
            ("^^?s", 2, "a datatype IRI"),
            ("@42", 0, "a language tag"),
            ("@-", 1, "a token (got '-')"),
            ("@en-", 3, "a token (got '-')"),
            ("@en--US", 3, "a token (got '-')"),
        ],
    )
    def test_literal_suffix_is_checked(self, suffix, offset, expected):
        # a filter's literal takes the suffix grammar of a pattern's
        for text in (
            f'SELECT ?x WHERE {{ ?x <p> ?o . FILTER(?o = "a"{suffix}) }}',
            f'SELECT ?x WHERE {{ ?x <p> "a"{suffix} . }}',
        ):
            with pytest.raises(QuerySyntaxError) as err:
                parse_query(text)
            assert err.value.pos == text.index(suffix) + offset
            assert err.value.expected == expected


# every escape both parsers accept, with the character it stands for
ESCAPES = [
    ("\\t", "\t"), ("\\b", "\b"), ("\\n", "\n"), ("\\r", "\r"), ("\\f", "\f"),
    ('\\"', '"'), ("\\'", "'"), ("\\\\", "\\"),
    ("\\u00e9", "\u00e9"), ("\\U0001F600", "\U0001F600"),
]


def test_language_tag_with_subtags_finds_the_loaded_row():
    d = load_ntriples('<s> <p> "a"@en-US .\n<t> <p> "a"@en .\n')
    q = parse_query('SELECT ?s WHERE { ?s <p> "a"@en-US . }')
    assert q.patterns[0].o.value == '"a"@en-US'
    for kind in ("static", "eager", "rosie"):
        rel, _ = run(q, d, Policy(kind))
        assert [[d.dict.decode(t) for t in row] for row in rel.rows] == [["s"]]


def test_numerals_follow_the_sparql_grammar():
    # "1." is the numeral 1 and the dot that ends its triple
    d = load_ntriples('<a> <p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
                      '<a> <q> <b> .\n')
    q = parse_query("SELECT * WHERE { ?s <p> 1. ?s <q> ?o }")
    for kind in ("static", "eager", "rosie"):
        rel, _ = run(q, d, Policy(kind))
        assert [[d.dict.decode(t) for t in row] for row in rel.rows] == [["a", "b"]]
    q = parse_query("SELECT * WHERE { ?s <p> ?o . FILTER(?o > 1.e5 && ?o < .5E-3) }")
    assert [e.operand for e in q.constraints[0].exprs] == ["1.e5", ".5E-3"]
    # only ASCII digits make a numeral
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT * WHERE { ?s <p> ?o . FILTER(?o > \u0661) }")


@pytest.mark.parametrize("numeral,datatype", [
    ("1", "integer"), ("-1", "integer"), ("1.5", "decimal"), (".5", "decimal"),
    ("1e3", "double"), ("1.E-3", "double"),
])
def test_numerals_in_patterns_are_typed_literals(numeral, datatype):
    # a numeral in a triple pattern is the literal typed by its grammar
    # branch, as SPARQL has it: it matches the typed literal, not the plain one
    typed = f'"{numeral}"^^<http://www.w3.org/2001/XMLSchema#{datatype}>'
    d = load_ntriples(f'<a> <p> {typed} .\n<b> <p> "{numeral}" .\n')
    q = parse_query(f"SELECT ?s WHERE {{ ?s <p> {numeral} . }}")
    assert q.patterns[0].o.value == typed
    for kind in ("static", "eager", "rosie"):
        rel, _ = run(q, d, Policy(kind))
        assert [[d.dict.decode(t) for t in row] for row in rel.rows] == [["a"]]


# every token kind, with comments, tabs and CRLF line ends between tokens
TOKENIZED = (
    'PREFIX ex: <http://e/>\r\n# comment { not a token }\r\n'
    'SELECT ?s $o\tWHERE {\t?s ex:p "x\\"y"@en-GB ; ex:q 1.5e3 .# trailing\r\n'
    '  ?s a :b FILTER(?o >= -2 && ?o != .5)} LIMIT 3 # end'
)
TOKENS = [
    ("IDENT", "PREFIX", 0), ("PNAME", "ex:", 7), ("IRIREF", "<http://e/>", 11),
    ("IDENT", "SELECT", 51), ("VAR", "?s", 58), ("VAR", "$o", 61),
    ("IDENT", "WHERE", 64), ("PUNCT", "{", 70), ("VAR", "?s", 72),
    ("PNAME", "ex:p", 75), ("STRING", '"x\\"y"', 80), ("LANGTAG", "@en-GB", 86),
    ("PUNCT", ";", 93), ("PNAME", "ex:q", 95), ("NUMBER", "1.5e3", 100),
    ("PUNCT", ".", 106), ("VAR", "?s", 121), ("IDENT", "a", 124),
    ("PNAME", ":b", 126), ("IDENT", "FILTER", 129), ("PUNCT", "(", 135),
    ("VAR", "?o", 136), ("PUNCT", ">=", 139), ("NUMBER", "-2", 142),
    ("PUNCT", "&&", 145), ("VAR", "?o", 148), ("PUNCT", "!=", 151),
    ("NUMBER", ".5", 154), ("PUNCT", ")", 156), ("PUNCT", "}", 157),
    ("IDENT", "LIMIT", 159), ("NUMBER", "3", 165), ("EOF", "", 172),
]


def test_tokens_keep_their_kinds_texts_and_offsets():
    assert [(t.kind, t.text, t.pos) for t in _tokenize(TOKENIZED)] == TOKENS


def test_untokenizable_character_offset_skips_whitespace_and_comments():
    text = "SELECT * WHERE {\n  # comment ~\n\t ?s <p> ?o ~ }"
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert err.value.pos == text.index("~ }")
    assert err.value.expected == "a token (got '~')"


class TestStringEscapes:
    """SPARQL strings decode their escapes as N-Triples literals do."""

    @pytest.mark.parametrize("escape,char", ESCAPES)
    def test_both_parsers_agree(self, escape, char):
        d = load_ntriples(f'<s> <p> "a{escape}c" .\n')
        (stored,) = [t for t in d.dict.terms() if t.startswith('"')]
        term = parse_query(f'SELECT ?s WHERE {{ ?s <p> "a{escape}c" . }}').patterns[0].o.value
        assert term == stored
        assert d.dict.decode(d.dict.lookup(term)) == stored
        assert lexical_form(term) == f"a{char}c"

    def test_backspace_escape_finds_the_triple(self):
        d = load_ntriples('<s> <p> "a\\bc" .\n')
        q = parse_query('SELECT ?s WHERE { ?s <p> "a\\bc" . }')
        for kind in ("static", "eager", "rosie"):
            rel, _ = run(q, d, Policy(kind))
            assert [[d.dict.decode(t) for t in row] for row in rel.rows] == [["s"]]

    @pytest.mark.parametrize(
        "literal,offset,reason",
        [
            ('"\\uZZZZ"', 1, "bad unicode escape"),
            ('"ab\\u12"', 3, "bad unicode escape"),
            ('"\\U00110000"', 1, "bad unicode escape"),
            ('"\\uD800"', 1, "surrogate code point \\uD800"),
            ('"x\\U0000DFFF"', 2, "surrogate code point \\U0000DFFF"),
            ('"a\\qb"', 2, "unknown escape \\q"),
        ],
    )
    def test_malformed_escape_is_a_syntax_error(self, literal, offset, reason):
        head = "SELECT ?s WHERE { ?s <p> "
        for text in (
            head + literal + " . }",
            "SELECT ?s WHERE { ?s <p> ?o . FILTER(?o = " + literal + ") }",
            "SELECT ?s WHERE { ?s <p> ?o . FILTER regex(str(?o), " + literal + ") }",
        ):
            with pytest.raises(QuerySyntaxError) as err:
                parse_query(text)
            assert err.value.pos == text.index(literal) + offset
            assert reason in err.value.expected


def occurrences(q, var: str) -> list[tuple[int, str]]:
    """Each (pattern id, position) at which `var` occurs, in textual order."""
    return [(tp.id, pos) for tp in q.patterns for pos, name in tp.variables() if name == var]


class TestCorrelations:
    def test_example_p1_occurrences(self):
        q = parse_query(QE_TEXT)
        assert occurrences(q, "p1") == [
            (3, "O"),
            (4, "S"),
            (5, "S"),
            (6, "S"),
        ]

    def test_same_pattern_twice(self):
        q = parse_query("SELECT ?x WHERE { ?x <p> ?x . }")
        assert occurrences(q, "x") == [(1, "S"), (1, "O")]

    def test_order_is_deterministic(self):
        q = parse_query("SELECT * WHERE { ?a ?x ?a . ?b <q> ?a . }")
        assert occurrences(q, "a") == [(1, "S"), (1, "O"), (2, "O")]


ROUND_TRIP_QUERIES = [
    QE_TEXT,
    "SELECT ?x WHERE { ?x <type> <Post> . }",
    "SELECT DISTINCT ?x ?c WHERE { ?x <p> ?c . } ORDER BY ?c LIMIT 3 OFFSET 1",
    'SELECT * WHERE { ?x <p> "lit"@en . ?x <q> "5"^^<http://t> . }',
    'SELECT * WHERE { ?x <p> "lit"@de-CH-1996 . }',
    "SELECT * WHERE { { ?a <p> ?b . } UNION { ?a <q> ?b . } UNION { ?a <r> ?b . } }",
    "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c . } ?a <r> ?d . }",
    "SELECT * WHERE { { ?a <p> ?b . FILTER(?b != 3) } { ?a <q> ?c . } UNION { ?a <r> ?c . } }",
    'SELECT * WHERE { ?s <label> ?v . FILTER regex(str(?v), "a.c", "i") }',
    'SELECT * WHERE { ?s <label> ?v . FILTER regex(str(?v), "a\\\\.c\\t\\"") }',
    'SELECT * WHERE { ?s <label> ?v . FILTER(?v != "x\\\\y\\n\\u00e9") }',
    "SELECT * WHERE { ?a <p> ?b . FILTER(?b >= 2 && ?b < 9) OPTIONAL { ?a <o> ?z . } }",
]


@pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
def test_pretty_print_round_trip(text):
    q1 = parse_query(text)
    printed = pretty_print(q1)
    q2 = parse_query(printed)
    assert q1 == q2, printed
