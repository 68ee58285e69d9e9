import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from rosie.errors import UnresolvedLeaf
from rosie.executor import (
    VECTOR_ROWS,
    FetchIntermediate,
    HashJoin,
    Project,
    Scan,
    UnionOp,
    _compile_filter,
    compile_cs,
    execute,
    numeric_value,
)
from rosie.frontend import FilterExpr, parse_query
from rosie.planner import plan_cs
from rosie.qrg import build_qrg
from rosie.runtime import Policy, run
from rosie.store import Dataset, Relation, lexical_form, make_literal, register_intermediate

from genqueries import random_dataset, random_query_text
from naive_eval import evaluate_query
from test_store import tp


def engine_bag(q, d):
    g = build_qrg(q, d.stats, d.dict)
    plan = compile_cs(plan_cs(g), q.projection, q.modifiers, d)
    rel = execute(plan, d)
    return Counter(tuple(row) for row in rel.rows)


class TestCompile:
    def test_join_on_shared_variable(self, d_toy):
        q = parse_query("SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }")
        g = build_qrg(q, d_toy.stats, d_toy.dict)
        plan = compile_cs(plan_cs(g), None, None, d_toy)
        assert isinstance(plan, HashJoin)
        assert plan.shared == ("x",)
        assert isinstance(plan.left, Scan) and isinstance(plan.right, Scan)

    def test_union_pads_schema(self, d_toy):
        q = parse_query(
            "SELECT * WHERE { { ?x <type> <Post> . } UNION { ?x <knows> ?y . } }"
        )
        g = build_qrg(q, d_toy.stats, d_toy.dict)
        plan = compile_cs(plan_cs(g), None, None, d_toy)
        assert isinstance(plan, UnionOp)
        assert set(plan.schema) == {"x", "y"}
        rel = execute(plan, d_toy)
        # post rows leave ?y unbound
        y_col = plan.schema.index("y")
        assert sum(1 for r in rel.rows if r[y_col] is None) == 2

    def test_materialized_leaf_compiles_to_fetch(self, d_toy):
        from rosie.planner import RelationLeaf

        rid = register_intermediate(d_toy, Relation(("x",), [[1]], 1))
        plan = compile_cs(RelationLeaf(rid), None, None, d_toy)
        assert isinstance(plan, FetchIntermediate)
        assert execute(plan, d_toy).rows == [(1,)]

    def test_unresolved_leaf(self, d_toy):
        from rosie.planner import RelationLeaf

        with pytest.raises(UnresolvedLeaf):
            compile_cs(RelationLeaf(999), None, None, d_toy)

    def test_cartesian_when_no_shared_variable(self, d_toy):
        q = parse_query("SELECT * WHERE { ?x <knows> ?y . ?a <content> ?c . }")
        g = build_qrg(q, d_toy.stats, d_toy.dict)
        rel = execute(compile_cs(plan_cs(g), q.projection, None, d_toy), d_toy)
        assert rel.exact_cardinality == 1 * 2


class TestExecuteExamples:
    def test_posts_with_content(self, d_toy):
        q = parse_query("SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }")
        decode = d_toy.dict.decode
        got = {
            (decode(a), decode(b))
            for a, b in engine_bag(q, d_toy)
        }
        assert got == {("p1", '"a"'), ("p2", '"b"')}

    def test_optional_with_no_match_keeps_left_row(self, d_toy):
        q = parse_query(
            "SELECT * WHERE { <u1> <knows> ?y . OPTIONAL { ?y <type> ?t . } }"
        )
        bag = engine_bag(q, d_toy)
        assert len(bag) == 1
        ((y, t),) = bag
        assert d_toy.dict.decode(y) == "u2" and t is None

    def test_empty_scan_annihilates_join(self, d_toy):
        q = parse_query("SELECT * WHERE { ?x <missing> ?y . ?x <type> ?t . }")
        assert not engine_bag(q, d_toy)

    def test_union_padded_rows_join_later(self):
        # a var unbound in one branch is compatible with anything downstream
        d = Dataset.from_strings(
            [
                ("a", "p", "b"),
                ("a", "q", "c"),
                ("b", "r", "w"),
                ("c", "r", "w2"),
            ]
        )
        q = parse_query(
            "SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <q> ?z . } ?y <r> ?w . }"
        )
        assert engine_bag(q, d) == evaluate_query(q, d)


def holds(expr, term):
    """One atomic filter compiled and applied to a term's lexical form, as
    the executor decides it per distinct term of a column."""
    return _compile_filter(expr)(lexical_form(term))


class TestEvalFilter:
    def test_numeric_comparison(self):
        assert holds(FilterExpr("n", ">", "3"), '"5"')
        assert not holds(FilterExpr("n", ">", "7"), '"5"')

    def test_unbound_is_false(self):
        # ?n is unbound in the OPTIONAL-padded row of c, which the filter drops
        d = Dataset.from_strings(
            [("a", "p", "b"), ("b", "q", make_literal("5")), ("c", "p", "d")]
        )
        q = parse_query(
            "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?n . } FILTER(?n > 3) }"
        )
        for kind in ("static", "eager", "rosie"):
            rel, _ = run(q, d, Policy(kind))
            decoded = [tuple(map(d.dict.decode, row)) for row in rel.rows]
            assert decoded == [("a", "b", '"5"')], kind
            assert Counter(rel.rows) == evaluate_query(q, d), kind

    def test_regex_case_insensitive(self):
        expr = FilterExpr("s", "regex", "sep", "i")
        assert holds(expr, '"Sep2009"')
        assert not holds(FilterExpr("s", "regex", "sep"), '"Sep2009"')

    def test_lexicographic_fallback(self):
        assert holds(FilterExpr("s", "<", "b"), '"abc"')
        assert holds(FilterExpr("s", "=", "abc"), '"abc"')

    def test_numeric_equality_across_forms(self):
        assert holds(FilterExpr("n", "=", "5"), '"5.0"')

    def test_bad_regex_drops_row(self):
        assert not holds(FilterExpr("s", "regex", "("), '"x"')

    @pytest.mark.parametrize("kind", ["static", "eager", "rosie"])
    def test_bad_regex_warns_once_per_query(self, kind, caplog):
        # 60 content rows reach the filter; the pattern is compiled once
        from rosie.datagen import correlated_star

        d = correlated_star()
        q = parse_query('SELECT * WHERE { ?p <content> ?o . FILTER regex(?o, "(") }')
        assert len(run(parse_query("SELECT * WHERE { ?p <content> ?o . }"), d,
                       Policy(kind))[0].rows) == 60
        with caplog.at_level("WARNING", logger="rosie.executor"):
            rel, _ = run(q, d, Policy(kind))
        assert rel.rows == []
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "regex filter failed" in warnings[0].getMessage()

    def test_iri_terms_compare_lexically(self):
        assert holds(FilterExpr("x", "=", "http://a"), "http://a")


class TestJoinProperties:
    def test_commutativity_as_bags(self):
        rng = random.Random(17)
        for _ in range(25):
            d = random_dataset(rng, 150)
            a = tp("?x", f"p{rng.randrange(6)}", "?y", tp_id=1)
            b = tp("?y", f"p{rng.randrange(6)}", "?z", tp_id=2)
            from rosie.planner import CSNode, PatternLeaf

            ab = execute(compile_cs(CSNode("And", PatternLeaf(a), PatternLeaf(b)), None, None, d), d)
            ba = execute(compile_cs(CSNode("And", PatternLeaf(b), PatternLeaf(a)), None, None, d), d)

            def norm(rel):
                order = sorted(rel.schema)
                idx = [rel.schema.index(v) for v in order]
                return Counter(tuple(r[i] for i in idx) for r in rel.rows)

            assert norm(ab) == norm(ba)

    def test_union_cardinality_is_sum(self):
        rng = random.Random(23)
        for _ in range(25):
            d = random_dataset(rng, 150)
            from rosie.planner import CSNode, PatternLeaf

            a = PatternLeaf(tp("?x", f"p{rng.randrange(6)}", "?y", tp_id=1))
            b = PatternLeaf(tp("?x", f"p{rng.randrange(6)}", "?z", tp_id=2))
            u = execute(compile_cs(CSNode("Or", a, b), None, None, d), d)
            ra = execute(compile_cs(a, None, None, d), d)
            rb = execute(compile_cs(b, None, None, d), d)
            assert u.exact_cardinality == ra.exact_cardinality + rb.exact_cardinality

    def test_left_rows_survive_outer_join(self):
        rng = random.Random(31)
        for _ in range(25):
            d = random_dataset(rng, 150)
            from rosie.planner import CSNode, PatternLeaf

            a = PatternLeaf(tp("?x", f"p{rng.randrange(6)}", "?y", tp_id=1))
            b = PatternLeaf(tp("?y", f"p{rng.randrange(6)}", "?z", tp_id=2))
            left = execute(compile_cs(a, None, None, d), d)
            loj = execute(compile_cs(CSNode("Opt", a, b), None, None, d), d)
            # every left row appears at least once in the output
            idx = [loj.schema.index(v) for v in left.schema]
            projected = Counter(tuple(r[i] for i in idx) for r in loj.rows)
            for row, count in Counter(left.rows).items():
                assert projected[row] >= count


class TestModifiers:
    def test_order_by_numeric_then_string_unbound_first(self):
        d = Dataset.from_strings(
            [
                ("a", "v", '"10"'),
                ("b", "v", '"2"'),
                ("c", "v", '"x"'),
                ("a", "w", '"1"'),
            ]
        )
        q = parse_query(
            "SELECT ?s ?n WHERE { ?s <v> ?n . OPTIONAL { ?s <w> ?m . } } ORDER BY ?n"
        )
        g = build_qrg(q, d.stats, d.dict)
        rel = execute(compile_cs(plan_cs(g), q.projection, q.modifiers, d), d)
        decoded = [d.dict.decode(r[1]) for r in rel.rows]
        assert decoded == ['"2"', '"10"', '"x"']

    def test_only_sparql_numerals_compare_as_numbers(self):
        # float() would read NaN, inf, 1_0 and " 7" as numbers
        objects = ["3", "NaN", "1", "2", "1_0", " 7", "inf"]
        d = Dataset.from_strings([(f"s{i}", "v", make_literal(o)) for i, o in enumerate(objects)])

        def lexicals(text):
            q = parse_query(text)
            g = build_qrg(q, d.stats, d.dict)
            rel = execute(compile_cs(plan_cs(g), q.projection, q.modifiers, d), d)
            assert Counter(rel.rows) == evaluate_query(q, d), text
            return [lexical_form(d.dict.decode(r[0])) for r in rel.rows]

        assert lexicals("SELECT ?o WHERE { ?s <v> ?o . } ORDER BY ?o") == [
            "1", "2", "3", " 7", "1_0", "NaN", "inf",
        ]
        # numerals compare by value, anything else by codepoint
        assert sorted(lexicals("SELECT ?o WHERE { ?s <v> ?o . FILTER (?o > 5) }")) == [
            "NaN", "inf",
        ]

    def test_numeral_grammar(self):
        for numeral in ("0", "-2", "+3.5", ".5", "1e3", "1.E-2", "-.5e+1", "007"):
            assert numeric_value(numeral) == float(numeral), numeral
        for other in ("2.", " 1", "1 ", "1_0", "NaN", "-inf", "Infinity", "0x1", "1e", "e1", "", "١"):
            assert numeric_value(other) is None, other

    def test_distinct_limit_offset(self):
        d = Dataset.from_strings(
            [("a", "p", "x"), ("b", "p", "x"), ("c", "p", "y"), ("e", "p", "y")]
        )
        q = parse_query(
            "SELECT DISTINCT ?o WHERE { ?s <p> ?o . } ORDER BY ?o LIMIT 1 OFFSET 1"
        )
        g = build_qrg(q, d.stats, d.dict)
        rel = execute(compile_cs(plan_cs(g), q.projection, q.modifiers, d), d)
        assert len(rel.rows) == 1

    def test_projection_order(self, d_toy):
        q = parse_query("SELECT ?c ?x WHERE { ?x <content> ?c . }")
        g = build_qrg(q, d_toy.stats, d_toy.dict)
        plan = compile_cs(plan_cs(g), q.projection, q.modifiers, d_toy)
        assert isinstance(plan, Project)
        assert plan.schema == ("c", "x")


class TestDifferentialSmoke:
    def test_engine_matches_reference_on_random_pairs(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(70):
            d = random_dataset(rng, 220)
            text = random_query_text(rng, max_tps=6)
            q = parse_query(text)
            expected = evaluate_query(q, d)
            got = engine_bag(q, d)
            assert got == expected, f"mismatch for {text}"
            checked += 1
        assert checked == 70


# imports the package, its CLI and its runtime, runs a two-pattern star
# whose join inputs hold argv[1] rows together, and prints whether numpy
# was loaded
STAR_SCRIPT = """
import sys
import rosie, rosie.cli, rosie.runtime
from rosie.frontend import parse_query
from rosie.runtime import Policy, run
from rosie.store import Dataset
half = int(sys.argv[1]) // 2
d = Dataset.from_strings([(f"e{i}", p, f"o{i}") for p in ("a", "b") for i in range(half)])
rel, _ = run(parse_query("SELECT * WHERE { ?s <a> ?x . ?s <b> ?y . }"), d, Policy("rosie"))
assert len(rel.rows) == half
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("rows, loaded", [(1000, False), (VECTOR_ROWS, True)])
def test_numpy_is_imported_only_by_a_join_past_the_gate(rows, loaded):
    # numpy's import costs a process about 11 MB and 0.1 s, so a process
    # whose joins all stay under VECTOR_ROWS rows never pays it
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", STAR_SCRIPT, str(rows)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == [str(loaded)]
