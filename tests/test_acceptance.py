"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live).

Criterion 2 is split: the exchange rewrite and distribution rules 1/3/4
hold over the full enumeration; distributing a left-outer-join over a
right-side union (rule 2) is not a valid equivalence, so its test pins the
three-triple counterexample with exact bags and checks both plans against
the brute-force oracle. See the test docstring. Criterion 6 has a faithful
record beside it: the worked plan joins T2 as a cross product, and the
oracle agrees with that plan and with the one that joins T1 first.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from rosie.cli import main as cli_main
from rosie.datagen import (
    ADVERSARIAL_QUERY,
    CORRELATED_STAR_QUERY,
    UNCORRELATED_STAR_QUERY,
    adversarial_fanout,
    correlated_star,
    uncorrelated_uniform,
)
from rosie.errors import ShapeMismatch
from rosie.estimator import (
    cs_bounds,
    error_ratio,
    join_selectivity_bounds,
    tp_bounds,
)
from rosie.executor import compile_cs, execute
from rosie.frontend import parse_query
from rosie.planner import (
    CSFilter,
    CSNode,
    cs_leaves,
    cs_to_string,
    linearize,
    plan_cs,
    rewrite_distribute,
    rewrite_exchange,
    _flatten_units,
)
from rosie.qrg import build_qrg
from rosie.runtime import Policy, run
from rosie.store import Dataset

from conftest import D_TOY_NT, QE_EXPECTED_CS, QE_PRED_COUNTS, QE_TEXT, make_stats
from genqueries import random_dataset, random_query_text
from naive_eval import eval_tree_bag, evaluate_query
from test_estimator import ex4  # noqa: F401  (fixture)
from test_planner import check_h3_h4
from test_store import tp


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num} {name}: PASS", file=sys.stderr)


def engine_bag(q, d, policy):
    rel, _ = run(q, d, policy)
    return Counter(tuple(row) for row in rel.rows)


def test_c1_oracle_equivalence():
    """Every policy's result bag equals the brute-force evaluator's over
    >= 500 generated dataset/query pairs."""
    with criterion(1, "oracle equivalence"):
        rng = random.Random(20260809)
        pairs = 0
        policies = [Policy(kind) for kind in ("static", "eager", "rosie")]
        while pairs < 500:
            d = random_dataset(rng, 520)
            text = random_query_text(rng, max_tps=8)
            q = parse_query(text)
            expected = evaluate_query(q, d)
            for policy in policies:
                got = engine_bag(q, d, policy)
                assert got == expected, (
                    f"{policy.kind} diverged from the reference on: {text}"
                )
            pairs += 1
        assert pairs >= 500


def _rel_bag(rel, variables):
    pos = {v: i for i, v in enumerate(rel.schema)}
    return Counter(
        tuple(row[pos[v]] if v in pos else None for v in variables)
        for row in rel.rows
    )


def _enumerate_paths(cs, path=()):
    yield path, cs
    if isinstance(cs, CSNode):
        yield from _enumerate_paths(cs.left, path + (0,))
        yield from _enumerate_paths(cs.right, path + (1,))
    elif isinstance(cs, CSFilter):
        yield from _enumerate_paths(cs.child, path + (0,))


def _assert_rewrites_equal(d, cs, rules):
    from rosie.frontend import AND, OR

    base_rel = execute(compile_cs(cs, None, None, d), d)
    variables = sorted(base_rel.schema)
    base = _rel_bag(base_rel, variables)
    checked = 0
    for path, node in _enumerate_paths(cs):
        if isinstance(node, CSNode) and node.op in (AND, OR):
            units = _flatten_units(node, node.op)
            for i in range(len(units)):
                for j in range(i, len(units)):
                    out = rewrite_exchange(cs, path, i, j)
                    rel = execute(compile_cs(out, None, None, d), d)
                    assert _rel_bag(rel, variables) == base, (
                        f"exchange({i},{j}) at {path} broke {cs_to_string(cs)}"
                    )
                    checked += 1
        for rule in rules:
            try:
                out = rewrite_distribute(cs, rule, path)
            except ShapeMismatch:
                continue
            rel = execute(compile_cs(out, None, None, d), d)
            assert _rel_bag(rel, variables) == base, (
                f"distribute rule {rule} at {path} broke {cs_to_string(cs)}"
            )
            checked += 1
    return checked


REWRITE_QUERY_SHAPES = [
    "SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d . }",
    "SELECT * WHERE { ?a <p0> ?b . { ?b <p1> ?c . } UNION { ?b <p2> ?c . } }",
    "SELECT * WHERE { { ?a <p0> ?b . } UNION { ?a <p1> ?b . } OPTIONAL { ?b <p2> ?c . } }",
    "SELECT * WHERE { ?a <p0> ?b . OPTIONAL { { ?b <p1> ?c . } UNION { ?b <p2> ?c . } } }",
    "SELECT * WHERE { { ?a <p0> ?b . } UNION { ?a <p1> ?b . } FILTER(?b != 3) }",
    "SELECT * WHERE { ?a <p0> ?b . ?a <p1> ?c . FILTER(?c > 1) ?a <p2> ?d . }",
]


def test_c2_rewrite_equivalence_sound_rules():
    """Exchange plus distribution rules 1, 3 and 4 preserve result bags over
    the full enumeration of applicable positions."""
    with criterion(2, "rewrite equivalence (exchange, rules 1/3/4)"):
        rng = random.Random(31337)
        total = 0
        for round_ in range(25):
            d = random_dataset(rng, 200)
            for shape in REWRITE_QUERY_SHAPES:
                q = parse_query(shape)
                cs = plan_cs(build_qrg(q, d.stats, d.dict))
                total += _assert_rewrites_equal(d, cs, rules=(1, 3, 4))
        assert total > 400


def test_c2_distribute_rule2_faithful():
    """Faithful record of distribution rule 2: (A Opt (B Or C)) against
    ((A Opt C) Or (A Opt B)).

    The rule is not an equivalence: left outer joins distribute over a
    union only on the left side (rule 3). With A = {x1 p y1},
    B = {y1 q z1}, C = {} the original yields the single joined row
    (x1, y1, z1, -), while the rewrite adds a spurious bare row
    (x1, y1, -, -) from the A Opt C branch, which finds no match. The test
    pins that counterexample with exact, hand-derived bags, and checks that
    the executor agrees with the brute-force oracle on both the original
    query and the paper's right-hand side written as a query.
    """
    with criterion(2, "rewrite equivalence (rule 2, known-unsound)"):
        d = Dataset.from_strings(
            [("x1", "p", "y1"), ("y1", "q", "z1"), ("y2", "r", "w1")]
        )
        q = parse_query(
            "SELECT * WHERE { ?a <p> ?b OPTIONAL { { ?b <q> ?c . } "
            "UNION { ?b <r> ?c2 . } } }"
        )
        rhs = parse_query(
            "SELECT * WHERE { { ?a <p> ?b OPTIONAL { ?b <r> ?c2 . } } "
            "UNION { ?a <p> ?b OPTIONAL { ?b <q> ?c . } } }"
        )
        cs = plan_cs(build_qrg(q, d.stats, d.dict))
        out = rewrite_distribute(cs, 2, ())
        assert cs_to_string(out) == "(T1 Opt T3) Or (T1 Opt T2)"

        base_rel = execute(compile_cs(cs, None, None, d), d)
        variables = sorted(base_rel.schema)
        assert variables == ["a", "b", "c", "c2"]
        base = _rel_bag(base_rel, variables)
        rewritten = _rel_bag(execute(compile_cs(out, None, None, d), d), variables)

        x1, y1, z1 = (d.dict.lookup(t) for t in ("x1", "y1", "z1"))
        joined = (x1, y1, z1, None)
        spurious = (x1, y1, None, None)
        assert base == Counter({joined: 1})
        assert base == eval_tree_bag(q.tree, d, variables)
        assert rewritten == Counter({joined: 1, spurious: 1})
        assert rewritten == eval_tree_bag(rhs.tree, d, variables)
        assert rewritten == base + Counter({spurious: 1})


def test_c3_upper_bound_soundness():
    """actual <= min-of-histograms upper bound for 10,000 one-unbound
    patterns over random datasets."""
    with criterion(3, "one-unbound upper-bound soundness"):
        rng = random.Random(4242)
        checked = 0
        while checked < 10000:
            d = random_dataset(rng, 260)
            if d.size == 0:
                continue
            rows = list(d.triples())
            for _ in range(250):
                s, p, o = rows[rng.randrange(len(rows))]
                shape = rng.choice(["spx", "xpo", "sxo"])
                if shape == "spx":
                    pattern = tp(d.dict.decode(s), d.dict.decode(p), "?v")
                    actual = sum(1 for t in rows if t[0] == s and t[1] == p)
                elif shape == "xpo":
                    pattern = tp("?v", d.dict.decode(p), d.dict.decode(o))
                    actual = sum(1 for t in rows if t[1] == p and t[2] == o)
                else:
                    pattern = tp(d.dict.decode(s), "?v", d.dict.decode(o))
                    actual = sum(1 for t in rows if t[0] == s and t[2] == o)
                iv = tp_bounds(pattern, d.stats, d.dict)
                assert actual <= iv.hi, (pattern, actual, iv)
                checked += 1
        assert checked >= 10000


def test_c4_bound_arithmetic(ex4):  # noqa: F811
    """tp_bounds / join_selectivity_bounds / cs_bounds reproduce the
    hand-computed values within 1e-9 relative."""
    with criterion(4, "bound arithmetic"):
        stats, dictionary = ex4
        iv = tp_bounds(tp("?s", "type", "Post"), stats, dictionary)
        assert iv.lo == pytest.approx(4.2, rel=1e-9)
        assert iv.hi == pytest.approx(70.0, rel=1e-9)

        lo, hi = join_selectivity_bounds("SS", 70.0, 500.0)
        assert lo == pytest.approx(1.0 / 35000.0, rel=1e-9)
        assert hi == pytest.approx(1.0 / 500.0, rel=1e-9)

        t4 = tp_bounds(tp("?p1", "type", "Post"), stats, dictionary)
        t6 = tp_bounds(tp("?p1", "content", "?pc"), stats, dictionary)
        t3 = tp_bounds(tp("?u1", "creator_of", "?p1"), stats, dictionary)
        chain = cs_bounds([(t4, None), (t6, "SS"), (t3, "SO")])
        assert chain.hi == pytest.approx(1.4e4, rel=1e-9)
        assert chain.lo == 1.0

        toy = Dataset.from_strings([])  # D_toy values via the real dataset
        from rosie.store import load_ntriples

        toy = load_ntriples(D_TOY_NT)
        toy_iv = tp_bounds(tp("?s", "type", "Post"), toy.stats, toy.dict)
        assert toy_iv.lo == pytest.approx(1.0, rel=1e-9)
        assert toy_iv.hi == pytest.approx(2.0, rel=1e-9)


def test_c5_error_ratio_values():
    """error_ratio reproduces the worked under-estimation factors."""
    with criterion(5, "error ratio"):
        assert error_ratio(200, 30) == pytest.approx(20.0 / 3.0, rel=1e-9)
        assert error_ratio(500, 30) == pytest.approx(50.0 / 3.0, rel=1e-9)


def test_c6_example_plan_reproduction():
    """The reconstructed eleven-pattern query plans to the exact target tree."""
    with criterion(6, "worked-example plan"):
        q = parse_query(QE_TEXT)
        stats, dictionary = make_stats(
            5000, p_counts=QE_PRED_COUNTS, o_counts={"Post": 70}
        )
        cs = plan_cs(build_qrg(q, stats, dictionary))
        assert cs_to_string(cs) == QE_EXPECTED_CS


def test_c6_cross_product_faithful():
    """Faithful record of the cross product in the worked-example plan.

    T2 (`?f <has_moderator> ?m`) ranks before T1 (`?f <has_member> ?u1`):
    both are in the same incidence class and T2 has the lower weight. But
    T2 shares no variable with its prefix T5 T4 T6 T3 (`?p1 ?p2 ?pc ?u1`),
    so it joins as a cross product; T1, which shares `?u1`, only connects
    it afterwards. The test pins that, and checks on a small dataset with
    a non-empty result that the plan and the plan with T1 before T2 both
    give the oracle's bag.
    """
    with criterion(6, "worked-example plan (cross product, faithful)"):
        q = parse_query(QE_TEXT)
        stats, dictionary = make_stats(
            5000, p_counts=QE_PRED_COUNTS, o_counts={"Post": 70}
        )
        cs = plan_cs(build_qrg(q, stats, dictionary))
        assert cs_to_string(cs) == QE_EXPECTED_CS

        def variables(unit):
            return {name for leaf in cs_leaves(unit) for _, name in leaf.tp.variables()}

        units = [step.unit for step in linearize(cs)]
        labels = [cs_to_string(unit) for unit in units]
        t2, t1 = labels.index("T2"), labels.index("T1")
        assert (labels[:t2], t1) == (["T5", "T4", "T6 Filter C", "T3"], t2 + 1)
        prefix = set().union(*map(variables, units[:t2]))
        assert prefix == {"p1", "p2", "pc", "u1"}
        assert not variables(units[t2]) & prefix
        assert variables(units[t1]) & prefix == {"u1"}

        # the outer And region's units: T5 T4 (T6 Filter C) T3 T2 T1 (T7 Or ...)
        swapped = rewrite_exchange(cs, (0,), 4, 5)
        assert cs_to_string(swapped) == QE_EXPECTED_CS.replace(
            "And T2) And T1)", "And T1) And T2)"
        )

        d = Dataset.from_strings(
            [
                ("f1", "has_member", "u1"),
                ("f1", "has_moderator", "m1"),
                ("f1", "has_moderator", "m3"),
                ("f2", "has_member", "u9"),
                ("f2", "has_moderator", "m2"),
                ("u1", "creator_of", "p1"),
                ("u1", "creator_of", "p3"),
                ("p1", "reply_of", "p0"),
                ("p3", "reply_of", "p0"),
                ("p1", "type", "Post"),
                ("p3", "type", "Post"),
                ("p1", "content", '"Sep notes"'),
                ("p3", "content", '"other"'),
                ("u1", "follows", "u2"),
                ("c1", "created_by", "u3"),
                ("u1", "likes", "c1"),
                ("u2", "email", "e2"),
                ("u1", "knows", "u2"),
            ]
        )
        expected = evaluate_query(q, d)
        u1, p1, u2, u3 = (d.dict.lookup(t) for t in ("u1", "p1", "u2", "u3"))
        # one row per moderator of f1, for each union branch's ?u2
        assert expected == Counter({(u1, p1, u2): 2, (u1, p1, u3): 2})
        for plan in (cs, swapped):
            rel = execute(compile_cs(plan, q.projection, q.modifiers, d), d)
            assert Counter(rel.rows) == expected, cs_to_string(plan)


def test_c7_policy_comparison():
    """(a) adaptive materializes less than eager on the correlated star;
    (b) adaptive is not slower than static on the adversarial fan-out
    fixture (static's plan feeds a >= 50x join operand);
    (c) adaptive never materializes on uncorrelated data."""
    with criterion(7, "policy comparison"):
        # (a) correlated star, 10k triples
        d = correlated_star()
        assert d.size == 10000
        q = parse_query(CORRELATED_STAR_QUERY)
        _, t_eager = run(q, d, Policy("eager"))
        _, t_rosie = run(q, d, Policy("rosie"))
        assert t_rosie.materialization_count() >= 1
        assert t_rosie.materialization_count() < t_eager.materialization_count()

        # (b) adversarial fan-out: fixture property first
        d3 = adversarial_fanout()
        q3 = parse_query(ADVERSARIAL_QUERY)
        comment_id = d3.dict.lookup("comment_on")
        fan_rows = d3.stats.p_hist[comment_id]
        other = max(
            count for term, count in d3.stats.p_hist.items() if term != comment_id
        )
        assert fan_rows >= 50 * other  # the blow-up static's order pays
        static_ms, rosie_ms = [], []
        for _ in range(3):
            _, ts = run(q3, d3, Policy("static"))
            _, tr = run(q3, d3, Policy("rosie"))
            static_ms.append(ts.total_ms)
            rosie_ms.append(tr.total_ms)
        assert min(rosie_ms) <= min(static_ms) * 1.0
        # the adaptive run never consumed the fan-out pattern
        assert all(s.leaf != "T4" for s in tr.steps)

        # (c) uncorrelated data degenerates to the static policy
        d2 = uncorrelated_uniform()
        q2 = parse_query(UNCORRELATED_STAR_QUERY)
        _, trace = run(q2, d2, Policy("rosie"))
        assert trace.materialization_count() == 0


def test_c8_structural_heuristics():
    """Filter placement at first availability and optional-side ordering,
    verified over 1000 random queries."""
    with criterion(8, "filter/optional structural checks"):
        rng = random.Random(88)
        d = random_dataset(rng, 300)
        checked = 0
        while checked < 1000:
            text = random_query_text(rng, max_tps=8)
            q = parse_query(text)
            g = build_qrg(q, d.stats, d.dict)
            check_h3_h4(q, g)
            checked += 1
        assert checked >= 1000


def _nt_of(dataset: Dataset) -> str:
    lines = []
    for s, p, o in dataset.triples():
        parts = []
        for tid in (s, p, o):
            term = dataset.dict.decode(tid)
            if term.startswith('"') or term.startswith("_:"):
                parts.append(term)
            else:
                parts.append(f"<{term}>")
        lines.append(" ".join(parts) + " .")
    return "\n".join(lines) + "\n"


FIXTURE_QUERIES = [
    ("toy_join.rq", "SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }\n"),
    ("toy_optional.rq",
     "SELECT * WHERE { <u1> <knows> ?y . OPTIONAL { ?y <type> ?t . } }\n"),
    ("toy_union.rq",
     "SELECT * WHERE { { ?x <type> <Post> . } UNION { ?x <knows> ?y . } }\n"),
    ("example.rq", QE_TEXT),
]


def test_c9_explain_determinism(tmp_path):
    """Byte-identical --explain output across three runs per fixture query."""
    with criterion(9, "explain determinism"):
        from conftest import qe_weights_dataset

        runner = CliRunner()
        toy_nt = tmp_path / "toy.nt"
        toy_nt.write_text(D_TOY_NT)
        social_nt = tmp_path / "social.nt"
        social_nt.write_text(_nt_of(qe_weights_dataset()))
        dbs = {}
        for name, nt in (("toy", toy_nt), ("social", social_nt)):
            db = tmp_path / f"db_{name}"
            result = runner.invoke(cli_main, ["load", str(nt), "--db", str(db)])
            assert result.exit_code == 0
            dbs[name] = db
        for fname, text in FIXTURE_QUERIES:
            qf = tmp_path / fname
            qf.write_text(text)
            db = dbs["social"] if fname == "example.rq" else dbs["toy"]
            outputs = set()
            for _ in range(3):
                result = runner.invoke(
                    cli_main,
                    ["query", "--db", str(db), "--file", str(qf), "--explain"],
                )
                assert result.exit_code == 0, result.stderr
                outputs.add(result.stderr.encode("utf-8"))
            assert len(outputs) == 1, f"{fname} explain output varied"
            if fname == "example.rq":
                assert f"CS: {QE_EXPECTED_CS}" in outputs.pop().decode("utf-8")
