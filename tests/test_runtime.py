import io
import itertools
import json
import random
import struct
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from rosie.datagen import (
    ADVERSARIAL_QUERY,
    CORRELATED_STAR_QUERY,
    UNCORRELATED_STAR_QUERY,
    adversarial_fanout,
    correlated_star,
    uncorrelated_uniform,
)
from rosie.errors import QueryTimeout
from rosie.executor import BindJoin, Deadline, LeftOuterJoin, _reducible, compile_cs, execute
from rosie.estimator import CardinalityInterval
from rosie.frontend import AND, OPT, Leaf, Modifiers, OpNode, Query, parse_query
from rosie.runtime import (
    Policy,
    StepState,
    UnitProfile,
    emit_trace,
    run,
    should_materialize,
)
from rosie import executor, runtime
from rosie.planner import CSFilter, CSNode, RelationLeaf, cs_leaves, cs_to_string, plan_cs
from rosie.qrg import build_qrg, collapse_materialized
from rosie.runtime import profile_unit
from rosie.store import (
    Dataset, load_ntriples, make_literal, register_intermediate, release_intermediates,
    resolve, scan,
)

from conftest import D_TOY_NT
from genqueries import random_dataset, random_query_text, sweep_digest
from naive_eval import evaluate_query
from test_store import tp
from test_trace_golden import gen_workloads, named_workloads

ALL_POLICIES = ("static", "eager", "rosie")


def bag(rel):
    return Counter(tuple(row) for row in rel.rows)


def social_dataset() -> Dataset:
    """Deterministic graph covering every predicate of the example query."""
    triples = []
    users = [f"u{i}" for i in range(12)]
    for i, u in enumerate(users):
        f = f"f{i % 3}"
        triples.append((f, "has_member", u))
        triples.append((f, "has_moderator", users[(i + 1) % 12]))
        triples.append((u, "follows", users[(i + 1) % 12]))
        triples.append((u, "knows", users[(i + 2) % 12]))
        if i % 2 == 0:
            triples.append((u, "email", make_literal(f"{u}@example.org")))
    for i in range(24):
        p = f"p{i}"
        triples.append((users[i % 12], "creator_of", p))
        triples.append((p, "reply_of", f"p{(i + 5) % 24}"))
        triples.append((p, "type", "Post"))
        month = "Sep" if i % 2 == 0 else "Oct"
        triples.append((p, "content", make_literal(f"{month}-{i}")))
    for j in range(10):
        c = f"c{j}"
        triples.append((c, "created_by", users[j % 12]))
        triples.append((users[(j + 3) % 12], "likes", c))
    return Dataset.from_strings(triples)


class TestPolicyEquality:
    @pytest.mark.parametrize("kind", ALL_POLICIES)
    def test_fixture_queries_agree_with_reference(self, kind):
        from conftest import QE_TEXT

        d = social_dataset()
        q = parse_query(QE_TEXT)
        expected = evaluate_query(q, d)
        rel, _ = run(q, d, Policy(kind))
        assert bag(rel) == expected
        assert expected  # the fixture must exercise non-empty joins

    def test_policies_agree_on_random_pairs(self):
        rng = random.Random(77)
        for _ in range(25):
            d = random_dataset(rng, 180)
            q = parse_query(random_query_text(rng, max_tps=5))
            expected = evaluate_query(q, d)
            for kind in ALL_POLICIES:
                rel, _ = run(q, d, Policy(kind))
                assert bag(rel) == expected


class TestPolicyBehavior:
    def test_correlated_star_materializations(self):
        d = correlated_star()
        assert d.size == 10000
        q = parse_query(CORRELATED_STAR_QUERY)
        _, t_static = run(q, d, Policy("static"))
        _, t_eager = run(q, d, Policy("eager"))
        _, t_rosie = run(q, d, Policy("rosie"))
        assert t_static.materialization_count() == 0
        assert t_rosie.materialization_count() >= 1
        assert t_rosie.materialization_count() < t_eager.materialization_count()
        # eager re-evaluates after every join step
        units = len(t_static.steps)
        assert t_eager.materialization_count() == units - 1

    def test_uncorrelated_never_materializes(self):
        d = uncorrelated_uniform()
        q = parse_query(UNCORRELATED_STAR_QUERY)
        _, trace = run(q, d, Policy("rosie"))
        assert trace.materialization_count() == 0
        assert len(trace.plans) == 1

    def test_adversarial_rosie_not_slower_than_static(self):
        d = adversarial_fanout()
        q = parse_query(ADVERSARIAL_QUERY)
        static_ms = []
        rosie_ms = []
        for _ in range(3):
            _, ts = run(q, d, Policy("static"))
            static_ms.append(ts.total_ms)
            _, tr = run(q, d, Policy("rosie"))
            rosie_ms.append(tr.total_ms)
        assert min(rosie_ms) <= min(static_ms) * 1.0

    def test_adversarial_short_circuit(self):
        d = adversarial_fanout()
        q = parse_query(ADVERSARIAL_QUERY)
        rel, trace = run(q, d, Policy("rosie"))
        assert rel.exact_cardinality == 0
        last = trace.steps[-1]
        assert last.decision == "materialize" and last.actual == 0
        # the fan-out pattern was never consumed
        assert all("T4" != s.leaf for s in trace.steps)

    def test_empty_prefix_breaks_clamped_lower_bound_faithful(self):
        # Pinned as the estimator gives it, not fixed: every lower bound is
        # clamped to max(1.0, ...), so an empty prefix reads as a break of
        # its lower bound. Eager materializes (T1 And T2), which is empty.
        d = adversarial_fanout()
        q = parse_query(ADVERSARIAL_QUERY)
        assert evaluate_query(q, d) == Counter()
        _, trace = run(q, d, Policy("eager"))
        (step,) = [s for s in trace.steps if s.leaf == "T2"]
        assert (step.decision, step.lo, step.actual) == ("materialize", 1.0, 0)
        assert step.actual < step.lo


class TestShouldMaterialize:
    def make_state(self):
        state = StepState.start(
            UnitProfile("T1", CardinalityInterval(1.0, 60.0), 0.5, {"p": "S"}),
            {"p": 0, "c": 1, "u": 2},
        )
        return state

    def so_profile(self):
        # subject-object fan-out: upper selectivity bound is 1
        return UnitProfile("T3", CardinalityInterval(60.0, 60.0), 60.0, {"u": "S", "p": "O"})

    def ss_profile(self):
        return UnitProfile("T2", CardinalityInterval(60.0, 60.0), 60.0, {"p": "S", "c": "O"})

    def test_static_never(self):
        assert not should_materialize(
            self.make_state(), self.so_profile(), [], Policy("static")
        )

    def test_eager_always(self):
        assert should_materialize(
            self.make_state(), self.ss_profile(), [], Policy("eager")
        )

    def test_below_threshold_continues(self):
        state = self.make_state()
        assert not should_materialize(
            state, self.so_profile(), [], Policy("rosie", tau=1e9)
        )

    def test_threshold_alone_decides_without_alternatives(self):
        state = self.make_state()
        assert should_materialize(state, self.so_profile(), [], Policy("rosie", tau=8))

    def test_better_alternative_triggers(self):
        state = self.make_state()
        assert should_materialize(
            state, self.so_profile(), [self.ss_profile()], Policy("rosie", tau=8)
        )

    def test_equal_alternative_holds(self):
        state = self.make_state()
        assert not should_materialize(
            state, self.so_profile(), [self.so_profile()], Policy("rosie", tau=8)
        )


class TestTraces:
    def test_static_three_patterns(self):
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        _, trace = run(q, d, Policy("static"))
        assert len(trace.steps) == 3
        assert all(s.decision == "continue" for s in trace.steps)
        assert all(s.actual is None for s in trace.steps)

    def test_record_count_equals_consumed_leaves(self):
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        for kind, expect in (("static", 3), ("rosie", 4), ("eager", 5)):
            _, trace = run(q, d, Policy(kind))
            assert len(trace.steps) == expect, kind

    def test_actual_present_only_on_materialize(self):
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        _, trace = run(q, d, Policy("rosie"))
        for s in trace.steps:
            assert (s.actual is not None) == (s.decision == "materialize")

    def test_materialized_leaf_estimates_are_exact(self):
        # a materialized relation profiles as the point of its row count
        # through its synthetic vertex, and eager's trace shows each
        # re-planned leaf R<id> at exactly that point
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        g = collapse_materialized(
            build_qrg(q, d.stats, d.dict), {1}, rel_id=7, exact_card=3
        )
        profile = profile_unit(RelationLeaf(7), g, {})
        assert profile.est == profile.interval.lo == profile.interval.hi == 3.0
        _, trace = run(q, d, Policy("eager"))
        leaves = 0
        for prev, s in zip(trace.steps, trace.steps[1:]):
            if prev.decision == "materialize":
                assert s.leaf.startswith("R") and s.decision == "continue"
                assert s.est == s.lo == s.hi == prev.actual
                leaves += 1
        assert leaves == 2

    def test_rosie_materialize_records_triggering_estimate(self):
        # the step carries the estimate of the prefix it evaluated, taken
        # before the restart, next to the count that evaluation found
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        _, trace = run(q, d, Policy("rosie"))
        got = [(s.leaf, s.decision, s.est, s.lo, s.hi, s.hi_adj, s.actual)
               for s in trace.steps]
        assert got == [
            ("T1", "continue", pytest.approx(0.432), 1.0, 60.0, 3.0, None),
            ("T2", "continue", pytest.approx(0.432), 1.0, 60.0, 3.0, None),
            ("R1", "materialize", pytest.approx(0.432), 1.0, 60.0, 3.0, 60),
            ("T3", "continue", 60.0, 1.0, 3600.0, 180.0, None),
        ]
        # an empty prefix keeps its estimate too, not a made-up 0/0/0
        d = adversarial_fanout()
        _, trace = run(parse_query(ADVERSARIAL_QUERY), d, Policy("rosie"))
        last = trace.steps[-1]
        assert (last.leaf, last.decision, last.actual) == ("R1", "materialize", 0)
        assert (last.lo, last.hi, last.hi_adj) == (1.0, 2.0, 1.0)
        assert last.est == pytest.approx(0.0292434837889)

    def test_emit_trace_schema(self, tmp_path):
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        _, trace = run(q, d, Policy("rosie"), query_text=CORRELATED_STAR_QUERY.strip())
        buf = io.StringIO()
        emit_trace(trace, buf)
        doc = json.loads(buf.getvalue())
        assert set(doc) == {"query", "policy", "steps", "result_cardinality", "total_ms"}
        assert doc["policy"] == "rosie"
        assert doc["result_cardinality"] == 60
        for step in doc["steps"]:
            assert {"idx", "leaf", "est", "lo", "hi", "hi_adj", "decision", "ms"} <= set(step)
            assert ("actual" in step) == (step["decision"] == "materialize")
        path = tmp_path / "trace.json"
        emit_trace(trace, str(path))
        assert json.loads(path.read_text())["policy"] == "rosie"


class TestGraphMemo:
    """The decision code reads every leaf's numbers off the query graph."""

    def test_estimate_is_zero_exactly_when_interval_is_empty(self, monkeypatch):
        checked = Counter()
        real_profile, real_extend = runtime.profile_unit, runtime.extend_state

        def check(iv, est):
            assert (est == 0.0) == iv.is_empty, (iv, est)
            checked[iv.is_empty] += 1

        def profile(unit, g, var_order):
            out = real_profile(unit, g, var_order)
            check(out.interval, out.est)
            return out

        def extend(state, prof, op):
            iv, est = real_extend(state, prof, op)
            check(iv, est)
            return iv, est

        monkeypatch.setattr(runtime, "profile_unit", profile)
        monkeypatch.setattr(runtime, "extend_state", extend)
        for _, d, text in [*named_workloads(), *gen_workloads()]:
            q = parse_query(text)
            for kind in ALL_POLICIES:
                run(q, d, Policy(kind, tau=2.0))
        # both sides of the equivalence were exercised
        assert checked[True] > 0 and checked[False] > 0

    @staticmethod
    def and_query(patterns, optional=None):
        tree = Leaf(patterns[0])
        for pattern in patterns[1:]:
            tree = OpNode(AND, tree, Leaf(pattern))
        operators = {AND} if len(patterns) > 1 else set()
        if optional is not None:
            tree = OpNode(OPT, tree, Leaf(optional))
            operators.add(OPT)
            patterns = [*patterns, optional]
        names = []
        for pattern in patterns:
            names += [n for _, n in pattern.variables() if n not in names]
        return Query(patterns, operators, tree, names, Modifiers(), [])

    def test_fully_bound_pattern_matches_the_oracle(self):
        # the parser rejects a fully bound pattern; a hand-built query gets
        # the interval [0, 1] for it, whether the triple is there or not,
        # and the empty interval when the data lacks one of its terms
        d = load_ntriples(D_TOY_NT)
        x_post = tp("?x", "type", "Post", 1)
        for triple, expected_iv in (
            (("u1", "creator_of", "p1"), CardinalityInterval(0.0, 1.0)),
            (("p1", "type", "User"), CardinalityInterval(0.0, 1.0)),
            (("u1", "creator_of", "p9"), CardinalityInterval(0.0, 0.0)),
        ):
            bound = tp(*triple, 2)
            for q in (
                self.and_query([x_post, bound]),
                self.and_query([bound, tp("?y", "knows", "?z", 1)]),
                self.and_query([x_post], optional=bound),
            ):
                g = build_qrg(q, d.stats, d.dict)
                assert g.leaves[2].interval == expected_iv
                expected = evaluate_query(q, d)
                for kind in ALL_POLICIES:
                    for tau in (1.0, 8.0):
                        rel, _ = run(q, d, Policy(kind, tau=tau, sigma=1.0))
                        assert bag(rel) == expected, (kind, tau, triple)


def run_recording_materializations(q, d, policy, monkeypatch):
    """`run` of `q`, with the prefix, relation id and row count of each
    materialization in order."""
    prefixes, registered = [], []
    compile_cs = runtime.compile_cs

    def recording_compile(plan, projection, *args):
        if projection is None:  # only a materialized prefix has none
            prefixes.append(plan)
        return compile_cs(plan, projection, *args)

    def recording_register(dataset, rel):
        rid = register_intermediate(dataset, rel)
        registered.append((rid, rel.exact_cardinality))
        return rid

    with monkeypatch.context() as m:
        m.setattr(runtime, "compile_cs", recording_compile)
        m.setattr(runtime, "register_intermediate", recording_register)
        rel, trace = run(q, d, policy)
    return rel, trace, [(cs, rid, card) for cs, (rid, card) in zip(prefixes, registered)]


def applied_constraints(cs) -> frozenset:
    if isinstance(cs, CSFilter):
        return frozenset({cs.constraint.ordinal}) | applied_constraints(cs.child)
    if isinstance(cs, CSNode):
        return applied_constraints(cs.left) | applied_constraints(cs.right)
    return frozenset()


def replan_after(g, prefix, rid, card):
    """The graph collapsed around a materialized prefix, and its plan: the
    re-plan that splicing the prefix's relation into the plan replaces."""
    arranged = {g.by_label[leaf.label].id for leaf in cs_leaves(prefix)}
    g = collapse_materialized(g, arranged, rid, card, applied_constraints(prefix))
    return g, plan_cs(g)


class TestSplice:
    """After a materialization the loop continues the current plan from the
    intermediate; collapsing the graph around it and planning again gives
    the same plan on the fixtures and the golden runs."""

    def test_spliced_plans_equal_the_replans(self, monkeypatch):
        replans = 0
        for _, d, text in [*named_workloads(), *gen_workloads()]:
            q = parse_query(text)
            for kind in ("eager", "rosie"):
                for tau in (2.0, 8.0):
                    _, trace, materialized = run_recording_materializations(
                        q, d, Policy(kind, tau=tau), monkeypatch
                    )
                    g = build_qrg(q, d.stats, d.dict)
                    plans = [cs_to_string(plan_cs(g))]
                    for prefix, rid, card in materialized:
                        if card == 0:  # the run stops at an empty prefix
                            break
                        g, cs = replan_after(g, prefix, rid, card)
                        plans.append(cs_to_string(cs))
                    assert trace.plans == plans, (text, kind, tau)
                    replans += len(plans) - 1
        # so many materializations go on to a non-empty intermediate
        assert replans == 33

    def test_splice_keeps_the_order_a_replan_changed(self, monkeypatch):
        # `genqueries.sweep_runs` seed 25, query 4 under eager: after R1,
        # re-planning ranks T1 before T2 while the plan has T2 first; the
        # bags agree with the oracle either way
        rng = random.Random(25)
        random_dataset(rng)
        text = [random_query_text(rng) for _ in range(5)][4]
        d = random_dataset(random.Random(25))
        q = parse_query(text)
        rel, trace, materialized = run_recording_materializations(
            q, d, Policy("eager"), monkeypatch
        )
        assert trace.plans == [
            "(((((T4 Or (T6 And T5)) And T3) And T2) And T1) Opt T7) Filter C",
            "(((R1 And T2) And T1) Opt T7) Filter C",
        ]
        assert bag(rel) == evaluate_query(q, d)
        prefix, _, card = materialized[0]
        extents = {tp: resolve(d, tp) for tp in q.patterns}
        intermediate = execute(compile_cs(prefix, None, None, d, extents), d)
        assert len(intermediate.rows) == card == 10
        rid = register_intermediate(d, intermediate)
        try:
            _, replan = replan_after(build_qrg(q, d.stats, d.dict), prefix, rid, card)
            assert cs_to_string(replan) == f"(((R{rid} And T1) And T2) Opt T7) Filter C"
            replanned = execute(compile_cs(replan, q.projection, q.modifiers, d, extents), d)
        finally:
            release_intermediates(d, [rid])
        assert bag(replanned) == evaluate_query(q, d)


def test_sweep_digest_matches_its_pin():
    # rows in order, plans and trace decisions of every run of the first 50
    # seeds of the sweep; CI checks all 200. Regenerate the pins only after
    # a change that alters decisions on purpose, and list the runs that
    # changed (`python tests/genqueries.py --runs` at both commits, diffed)
    pins = json.loads((Path(__file__).with_name("data") / "sweep_digest.json").read_text())
    assert sweep_digest(range(50)) == pins["0-49"]


class TestConcurrentQueries:
    def test_one_dataset_serves_parallel_queries(self):
        import sys
        import threading

        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        expected = evaluate_query(q, d)
        failures = []

        def worker(kind):
            try:
                rel, _ = run(q, d, Policy(kind))
                if bag(rel) != expected:
                    failures.append(f"{kind}: wrong bag")
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{kind}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(kind,))
            for kind in ("static", "rosie", "eager", "rosie", "static", "eager")
        ]
        # frequent thread switches interleave registering and releasing
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures
        # every query freed what it registered
        assert d.intermediates == {}

    def test_run_frees_intermediates_and_ids_stay_distinct(self, monkeypatch):
        d = correlated_star()
        q = parse_query(CORRELATED_STAR_QUERY)
        ids = []

        def recording(dataset, rel):
            rid = register_intermediate(dataset, rel)
            ids.append(rid)
            return rid

        monkeypatch.setattr(runtime, "register_intermediate", recording)
        for kind in ("eager", "rosie", "eager", "rosie"):
            rel, trace = run(q, d, Policy(kind))
            assert bag(rel) == evaluate_query(q, d)
            assert d.intermediates == {}, kind
        # eager materializes twice per run, rosie once
        assert len(ids) == 6
        assert len(set(ids)) == len(ids)
        # a run that fails after materializing frees what it registered too

        compile_cs = runtime.compile_cs

        def failing(plan, projection, *args):
            # the final plan is the one compiled with the projection
            if projection is not None:
                raise QueryTimeout(1.0)
            return compile_cs(plan, projection, *args)

        monkeypatch.setattr(runtime, "compile_cs", failing)
        with pytest.raises(QueryTimeout):
            run(q, d, Policy("rosie"))
        assert len(ids) == 7
        assert d.intermediates == {}


def peak_before_timeout(monkeypatch, q, d) -> int:
    """The `tracemalloc` peak of a static run of `q` that times out under a
    clock advancing 1 ms per read, so after the same number of budget
    checks on any machine. numpy, which a join of `executor.VECTOR_ROWS`
    rows or more imports on first use, is loaded before tracing starts:
    its modules are not the join's pair arrays."""
    import numpy  # noqa: F401

    reads = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: next(reads) / 1000.0)
    tracemalloc.start()
    try:
        with pytest.raises(QueryTimeout):
            run(q, d, Policy("static"), timeout_ms=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestTimeoutAndValidation:
    def test_cartesian_blowup_times_out(self):
        d = uncorrelated_uniform()
        q = parse_query("SELECT * WHERE { ?a <a> ?x . ?b <b> ?y . ?c <c> ?z . }")
        with pytest.raises(QueryTimeout):
            run(q, d, Policy("static"), timeout_ms=20)

    def test_cartesian_blowup_stops_before_its_index_lists(self, monkeypatch):
        # The join grows its probe- and build-index lists chunk by chunk
        # with a budget check between chunks, so it stops long before the
        # two lists of one pointer per row of the product exist.
        d = uncorrelated_uniform()
        q = parse_query("SELECT * WHERE { ?a <a> ?x . ?b <b> ?y . ?c <c> ?z . }")
        smallest = min(len(scan(resolve(d, pattern)).rows) for pattern in q.patterns)
        assert smallest == 2776
        index_lists_bytes = 2 * smallest**2 * struct.calcsize("P")
        assert peak_before_timeout(monkeypatch, q, d) < index_lists_bytes / 20

    @pytest.mark.parametrize("optional", [False, True])
    def test_hot_key_blowup_stops_before_its_pair_lists(self, monkeypatch, optional):
        # Every row shares the one join key, so the equi-join is a product.
        # The OPTIONAL's right input is the larger, and the one it hashes:
        # every left row finds all of its rows, and the pair lists must
        # still grow chunk by chunk.
        left, right = 2000, 4000
        d = Dataset.from_strings(
            [(f"a{i}", "p", "k") for i in range(left)]
            + [(f"b{i}", "q", "k") for i in range(right)]
        )
        inner = "?b <q> ?k ." if not optional else "OPTIONAL { ?b <q> ?k . }"
        q = parse_query(f"SELECT * WHERE {{ ?a <p> ?k . {inner} }}")
        index_lists_bytes = 2 * left * right * struct.calcsize("P")
        assert peak_before_timeout(monkeypatch, q, d) < index_lists_bytes / 20

    @pytest.mark.parametrize("optional", [False, True])
    def test_hot_key_bind_join_stops_before_its_pair_lists(self, monkeypatch, optional):
        # A leaf of 300 rows binds a range of 40,000 rows, and every row of
        # both shares the one key: one lookup finds the whole range, and the
        # join's pairs must still grow chunk by chunk.
        left, right = 300, 40000
        d = Dataset.from_strings(
            [(f"a{i}", "p", "k") for i in range(left)]
            + [(f"b{i}", "q", "k") for i in range(right)]
        )
        inner = "?b <q> ?k ." if not optional else "OPTIONAL { ?b <q> ?k . }"
        q = parse_query(f"SELECT * WHERE {{ ?a <p> ?k . {inner} }}")
        plan = compile_cs(plan_cs(build_qrg(q, d.stats, d.dict)), None, None, d)
        assert isinstance(plan, BindJoin)
        index_lists_bytes = 2 * left * right * struct.calcsize("P")
        assert peak_before_timeout(monkeypatch, q, d) < index_lists_bytes / 20

    def test_hot_key_join_in_optional_group_stops_before_its_pair_lists(self, monkeypatch):
        # The left input holds the one key of the group's two scans, so
        # their reduction to its keys drops no row, and their join is a
        # product that must still grow chunk by chunk.
        rows = 4000
        d = Dataset.from_strings(
            [(f"a{i}", "p", "k") for i in range(10)]
            + [("k", "q", f"b{i}") for i in range(rows)]
            + [("k", "r", f"c{i}") for i in range(rows)]
        )
        q = parse_query("SELECT * WHERE { ?a <p> ?k . OPTIONAL { ?k <q> ?b . ?k <r> ?c . } }")
        plan = compile_cs(plan_cs(build_qrg(q, d.stats, d.dict)), None, None, d)
        assert isinstance(plan, LeftOuterJoin) and _reducible(plan.right)
        index_lists_bytes = 2 * rows * rows * struct.calcsize("P")
        assert peak_before_timeout(monkeypatch, q, d) < index_lists_bytes / 20

    @pytest.mark.parametrize(
        "case, args",
        [
            (test_hot_key_blowup_stops_before_its_pair_lists, (False,)),
            (test_hot_key_blowup_stops_before_its_pair_lists, (True,)),
            (test_hot_key_bind_join_stops_before_its_pair_lists, (False,)),
            (test_hot_key_bind_join_stops_before_its_pair_lists, (True,)),
            (test_hot_key_join_in_optional_group_stops_before_its_pair_lists, ()),
        ],
        ids=["blowup", "blowup-optional", "bind", "bind-optional", "optional-group"],
    )
    def test_hot_key_pair_lists_on_the_vector_path(self, monkeypatch, case, args):
        # the hot-key cases above, with every equi-join on one variable
        # paired in numpy: its pair arrays grow part by part as well
        monkeypatch.setattr(executor, "VECTOR_ROWS", 0)
        case(self, monkeypatch, *args)

    @pytest.mark.parametrize(
        "kind, site, raiser",
        [
            # the loop's check before the second step
            ("static", "profile_unit", "_run_incremental"),
            # the materialization's evaluation, and the final execution
            ("eager", "evaluate", "_eval"),
            ("static", "execute", "_eval"),
        ],
    )
    def test_timeout_reports_the_run_budget(self, monkeypatch, kind, site, raiser):
        # the clock jumps an hour ahead once `site` is first called
        late = []
        real_site = getattr(runtime, site)

        def jump(*args):
            late.append(True)
            return real_site(*args)

        now = time.monotonic
        clock = SimpleNamespace(
            perf_counter=time.perf_counter, monotonic=lambda: now() + 3600.0 * bool(late)
        )
        monkeypatch.setattr(executor, "time", clock)
        monkeypatch.setattr(runtime, site, jump)
        d = load_ntriples(D_TOY_NT)
        q = parse_query("SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }")
        with pytest.raises(QueryTimeout) as err:
            run(q, d, Policy(kind), timeout_ms=250)
        assert err.value.budget_ms == 250
        assert str(err.value) == "query exceeded 250 ms budget"
        frames = [frame.name for frame in traceback.extract_tb(err.value.__traceback__)]
        assert frames[-2:] == [raiser, "check"]
        # an evaluation times out inside the call that moved the clock, the
        # step check only after it returned
        assert ("jump" in frames) == (site != "profile_unit")

    def test_one_time_builds_stay_off_the_query_clock(self, monkeypatch):
        # POS takes 0.2 s to build here, and the query itself far less than
        # its 100 ms timeout; the build happens before the clock starts
        pos = Dataset.__dict__["pos"]
        build = pos.build

        def slow(d):
            time.sleep(0.2)
            return build(d)

        monkeypatch.setattr(pos, "build", slow)
        d = load_ntriples(D_TOY_NT)
        q = parse_query("SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }")
        rel, trace = run(q, d, Policy("rosie"), timeout_ms=100)
        assert "pos" in d.__dict__
        assert bag(rel) == evaluate_query(q, d)
        assert trace.total_ms < 200

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            Policy("nonsense")
        with pytest.raises(ValueError):
            Policy("rosie", tau=0.5)
        with pytest.raises(ValueError):
            Policy("rosie", sigma=0.0)
        with pytest.raises(ValueError):
            Policy("rosie", sigma=1.5)
        with pytest.raises(ValueError):
            Policy("rosie", tau=float("nan"))
        with pytest.raises(ValueError):
            Policy("rosie", sigma=float("nan"))


class TestSoakRegressions:
    def test_filter_above_optional_survives_eager_materialization(self):
        # an eager run materializes (T1 And T2) before the Opt step; the
        # group filter linearizes after the Opt and must still be applied
        d = Dataset.from_strings(
            [
                ("a", "p2", "n5"),
                ("n5", "p2", "n5"),
                ("x", "p6", "a"),
            ]
        )
        text = (
            "SELECT * WHERE { ?v0 <p2> ?v1 . ?v1 <p2> ?v1 . "
            'FILTER regex(str(?v1), "9") '
            "OPTIONAL { ?v2 <unknown3> ?v0 . ?v0 <p6> ?v2 . } }"
        )
        q = parse_query(text)
        expected = evaluate_query(q, d)
        for kind in ALL_POLICIES:
            rel, _ = run(q, d, Policy(kind))
            assert bag(rel) == expected, kind

    def test_aggressive_materialization_agrees_with_reference(self):
        rng = random.Random(424242)
        policies = [
            Policy("rosie", tau=1.0, sigma=1.0),
            Policy("rosie", tau=1.0, sigma=0.01),
        ]
        for _ in range(40):
            d = random_dataset(rng, 200)
            q = parse_query(random_query_text(rng, max_tps=6))
            expected = evaluate_query(q, d)
            for pol in policies:
                rel, _ = run(q, d, pol)
                assert bag(rel) == expected
