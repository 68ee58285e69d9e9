import random

import pytest

from rosie.errors import DegenerateCard, ZeroEstimate
from rosie.estimator import (
    JOIN_TYPES,
    CardinalityInterval,
    adjusted_upper_error,
    classify_join,
    cs_bounds,
    error_ratio,
    estimate_join,
    estimate_tp,
    filter_interval,
    join_interval,
    join_selectivity_bounds,
    tp_bounds,
)
from rosie.frontend import AND, OPT, parse_query
from rosie.runtime import Policy, StepState, UnitProfile, run, should_materialize
from rosie.store import Dataset

from conftest import make_stats
from naive_eval import evaluate_query
from test_store import tp

REL = 1e-9


def close(a, b):
    return a == pytest.approx(b, rel=REL)


@pytest.fixture
def ex4():
    """|D|=5000 with the worked-example histogram values."""
    return make_stats(
        5000,
        p_counts={"creator_of": 200, "content": 500, "type": 300, "pad": 4000},
        o_counts={"Post": 70},
    )


class TestEstimateTp:
    def test_bound_predicate_object(self, d_toy):
        pattern = tp("?x", "type", "Post")
        assert close(estimate_tp(pattern, d_toy.stats, d_toy.dict), 0.75)

    def test_all_unbounded_is_dataset_size(self, d_toy):
        assert estimate_tp(tp("?s", "?p", "?o"), d_toy.stats, d_toy.dict) == 8.0

    def test_underestimate_on_correlated_pair(self, d_toy):
        pattern = tp("u1", "creator_of", "?y")
        assert close(estimate_tp(pattern, d_toy.stats, d_toy.dict), 1.0)

    def test_absent_term_is_zero(self, d_toy):
        assert estimate_tp(tp("?x", "nope", "?y"), d_toy.stats, d_toy.dict) == 0.0


class TestEstimateJoin:
    def test_containment(self):
        assert estimate_join(2.0, 2.0, "SS") == 2.0

    def test_cartesian(self):
        assert estimate_join(3.0, 7.0, "NONE") == 21.0

    def test_empty_operand(self):
        assert estimate_join(0.0, 5.0, "SO") == 0.0

    def test_max_divisor_guards_fractions(self):
        assert estimate_join(0.25, 0.5, "SS") == 0.125


class TestTpBounds:
    def test_one_unbound_on_toy(self, d_toy):
        iv = tp_bounds(tp("?s", "type", "Post"), d_toy.stats, d_toy.dict)
        assert close(iv.lo, 1.0) and close(iv.hi, 2.0)
        # actual count is inside
        assert iv.lo <= 2 <= iv.hi

    def test_two_unbound_exact(self, ex4):
        stats, dictionary = ex4
        iv = tp_bounds(tp("?s", "creator_of", "?o"), stats, dictionary)
        assert iv.lo == iv.hi == 200.0

    def test_example_values(self, ex4):
        stats, dictionary = ex4
        iv = tp_bounds(tp("?s", "type", "Post"), stats, dictionary)
        assert close(iv.lo, 4.2) and close(iv.hi, 70.0)

    def test_subject_bound_shape(self, d_toy):
        iv = tp_bounds(tp("u1", "creator_of", "?o"), d_toy.stats, d_toy.dict)
        assert close(iv.lo, 1.0) and close(iv.hi, 2.0)

    def test_predicate_unbound_shape(self, d_toy):
        iv = tp_bounds(tp("u1", "?p", "u2"), d_toy.stats, d_toy.dict)
        # |s=u1| = 4, |o=u2| = 1
        assert close(iv.lo, 1.0) and close(iv.hi, 1.0)

    def test_fully_bound_is_zero_to_one(self, d_toy):
        # at most one triple matches, found or not: no lookup is needed
        present = tp_bounds(tp("p1", "type", "Post"), d_toy.stats, d_toy.dict)
        absent = tp_bounds(tp("u1", "type", "Post"), d_toy.stats, d_toy.dict)
        assert (present.lo, present.hi) == (absent.lo, absent.hi) == (0.0, 1.0)
        # a term the data lacks still makes it empty
        missing = tp_bounds(tp("p1", "type", "nope"), d_toy.stats, d_toy.dict)
        assert missing.is_empty

    def test_absent_bound_term(self, d_toy):
        iv = tp_bounds(tp("?x", "nope", "?y"), d_toy.stats, d_toy.dict)
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_wildcard_is_dataset_size(self, d_toy):
        iv = tp_bounds(tp("?s", "?p", "?o"), d_toy.stats, d_toy.dict)
        assert iv.lo == iv.hi == 8.0


class TestJoinSelectivityBounds:
    def test_ss_shape(self):
        lo, hi = join_selectivity_bounds("SS", 70.0, 500.0)
        assert close(lo, 1.0 / 35000.0) and close(hi, 1.0 / 500.0)

    def test_so_shape(self):
        lo, hi = join_selectivity_bounds("SO", 2.0, 2.0)
        assert close(lo, 0.25) and close(hi, 1.0)

    def test_point(self):
        assert join_selectivity_bounds("OP", 1.0, 1.0) == (1.0, 1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateCard):
            join_selectivity_bounds("SS", 0.5, 10.0)

    def test_cartesian_is_exact_one(self):
        assert join_selectivity_bounds("NONE", 3.0, 9.0) == (1.0, 1.0)


class TestCsBounds:
    def test_worked_example_chain(self, ex4):
        stats, dictionary = ex4
        t4 = tp_bounds(tp("?p1", "type", "Post"), stats, dictionary)
        t6 = tp_bounds(tp("?p1", "content", "?pc"), stats, dictionary)
        t3 = tp_bounds(tp("?u1", "creator_of", "?p1"), stats, dictionary)
        iv = cs_bounds([(t4, None), (t6, "SS"), (t3, "SO")])
        assert close(iv.hi, 1.4e4)
        assert iv.lo == 1.0

    def test_single_step_equals_tp_bounds(self, d_toy):
        base = tp_bounds(tp("?s", "type", "Post"), d_toy.stats, d_toy.dict)
        iv = cs_bounds([(base, None)])
        assert (iv.lo, iv.hi) == (base.lo, base.hi)

    def test_toy_pair_contains_actual(self, d_toy):
        a = tp_bounds(tp("?x", "type", "Post"), d_toy.stats, d_toy.dict)
        b = tp_bounds(tp("?x", "content", "?c"), d_toy.stats, d_toy.dict)
        iv = cs_bounds([(a, None), (b, "SS")])
        assert close(iv.lo, 1.0) and close(iv.hi, 2.0)
        # brute force: posts with content
        actual = 2
        assert iv.lo <= actual <= iv.hi

    def test_empty_operand_collapses(self):
        iv = cs_bounds(
            [
                (CardinalityInterval(0.0, 0.0), None),
                (CardinalityInterval(5.0, 5.0), "SS"),
            ]
        )
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_widening_inputs_never_narrows(self):
        rng = random.Random(3)
        for _ in range(300):
            steps = []
            for i in range(rng.randrange(1, 5)):
                lo = rng.uniform(1, 50)
                hi = lo + rng.uniform(0, 100)
                jt = rng.choice(["SS", "SO", "OO", "SP", "OP", "PP", "NONE"])
                steps.append((CardinalityInterval(lo, hi), None if i == 0 else jt))
            base = cs_bounds(steps)
            k = rng.randrange(len(steps))
            iv, jt = steps[k]
            steps[k] = (CardinalityInterval(max(1.0, iv.lo * 0.5), iv.hi * 2.0), jt)
            widened = cs_bounds(steps)
            assert widened.lo <= base.lo + 1e-12
            assert widened.hi >= base.hi - 1e-12


# variable positions on each side that make `classify_join` give a join type
JOIN_SIDES = {
    "SS": ("S", "S"), "SO": ("S", "O"), "OO": ("O", "O"),
    "SP": ("S", "P"), "OP": ("O", "P"), "PP": ("P", "P"),
}


class TestIntervalPrimitives:
    def test_cs_bounds_is_the_runtime_fold(self):
        """`cs_bounds` gives exactly what the runtime's `extend_state`
        computes when it walks the same chain step by step."""
        rng = random.Random(11)
        for _ in range(500):
            steps = []
            for i in range(rng.randrange(1, 6)):
                if rng.random() < 0.05:
                    iv = CardinalityInterval(0.0, 0.0)
                else:
                    lo = rng.uniform(1, 50)
                    iv = CardinalityInterval(lo, lo + rng.uniform(0, 100))
                steps.append((iv, None if i == 0 else rng.choice(JOIN_TYPES)))
            state = StepState.start(UnitProfile("T0", steps[0][0], 1.0, {}), {})
            for k, (iv, jt) in enumerate(steps[1:], start=1):
                if jt == "NONE":
                    positions = {f"w{k}": "S"}
                else:
                    state.positions[f"v{k}"], right = JOIN_SIDES[jt]
                    positions = {f"v{k}": right}
                state.advance(UnitProfile(f"T{k}", iv, 1.0, positions), AND)
            iv = cs_bounds(steps)
            assert (iv.lo, iv.hi) == (state.cum.lo, state.cum.hi), steps

    def test_cartesian_chain_clamps_lo_at_each_step(self):
        # the SS step's lo, 5 * 5 / 100, clamps to 1 before the product with 8
        iv = cs_bounds([
            (CardinalityInterval(5.0, 10.0), None),
            (CardinalityInterval(5.0, 10.0), "SS"),
            (CardinalityInterval(8.0, 8.0), "NONE"),
        ])
        assert (iv.lo, iv.hi) == (8.0, 80.0)

    def test_empty_sides(self):
        empty = CardinalityInterval(0.0, 0.0)
        full = CardinalityInterval(3.0, 9.0)
        for jt in JOIN_TYPES:
            assert join_interval(empty, full, jt, OPT) == empty
            assert join_interval(full, empty, jt, OPT) == full
            assert join_interval(empty, full, jt, AND) == empty
            assert join_interval(full, empty, jt, AND) == empty
        assert join_interval(full, full, "SS", OPT) == CardinalityInterval(3.0, 90.0)

    def test_filter_interval(self):
        iv = CardinalityInterval
        assert filter_interval(iv(0.0, 0.0), 0.1) == iv(0.0, 0.0)
        # lo = max(1, 10 * 0.1 * 0.5), hi = 100 * min(1, 0.1 * 2)
        assert filter_interval(iv(10.0, 100.0), 0.1) == iv(1.0, 20.0)
        # hi, 40 * 0.02, is raised to lo, which is clamped to 1
        assert filter_interval(iv(40.0, 40.0), 0.01) == iv(1.0, 1.0)


class TestErrorRatio:
    def test_worked_values(self):
        assert error_ratio(200, 30) == pytest.approx(6.666666666666667, rel=REL)
        assert error_ratio(500, 30) == pytest.approx(16.666666666666668, rel=REL)

    def test_exact(self):
        assert error_ratio(30, 30) == 1.0

    def test_zero_estimate(self):
        with pytest.raises(ZeroEstimate):
            error_ratio(5, 0.0)
        assert error_ratio(0, 0.0) == 1.0


def decide(current, alt, est, sigma, tau=2.0):
    """`should_materialize` for a next step and one alternative whose
    extended prefixes have the given bounds and estimate: a Cartesian
    step from a one-row prefix leaves a unit's interval and estimate as
    they are."""
    state = StepState.start(UnitProfile("R", CardinalityInterval.point(1.0), 1.0, {}), {})
    return should_materialize(
        state,
        UnitProfile("T1", current, est, {}),
        [UnitProfile("T2", alt, est, {})],
        Policy("rosie", tau=tau, sigma=sigma),
    )


class TestErrorCondition:
    def test_identical_sides_hold(self):
        iv = CardinalityInterval(1.0, 100.0)
        assert decide(iv, iv, 10.0, 0.5) is False

    def test_worked_magnitudes_re_optimize(self):
        current = CardinalityInterval(1.0, 7e6)
        alt = CardinalityInterval(1.0, 1.4e4)
        assert decide(current, alt, 4.2, 1.0) is True

    def test_tiny_sigma_clamps_to_lo(self):
        current = CardinalityInterval(1.0, 7e6)
        alt = CardinalityInterval(1.0, 1.4e4)
        # both adjusted errors clamp to lo / est = 0.24, below any tau
        assert decide(current, alt, 4.2, 1e-9) is False
        # with lo above tau * est the clamped errors tie, and a tie holds
        current = CardinalityInterval(100.0, 7e6)
        alt = CardinalityInterval(100.0, 1.4e4)
        assert decide(current, alt, 4.2, 1e-9) is False
        assert decide(current, alt, 4.2, 1.0) is True

    def test_adjusted_upper_error(self):
        iv = CardinalityInterval(2.0, 1000.0)
        assert adjusted_upper_error(iv, 4.0, 0.05) == pytest.approx(12.5)
        assert adjusted_upper_error(iv, 4.0, 1e-6) == pytest.approx(0.5)
        with pytest.raises(ZeroEstimate):
            adjusted_upper_error(iv, 0.0, 0.5)


class TestPostHocErrorContainment:
    def test_ratio_lies_in_propagated_interval_on_fk_data(self):
        """On data satisfying containment/independence (every subject has
        exactly one edge per predicate), the realized error ratio of a join
        falls inside the propagated interval divided by the estimate."""
        n = 40
        triples = []
        for i in range(n):
            triples.append((f"s{i}", "p", f"a{i}"))
            triples.append((f"s{i}", "q", f"b{i}"))
        d = Dataset.from_strings(triples)
        a = tp("?s", "p", "?x")
        b = tp("?s", "q", "?y", tp_id=2)

        est_a = estimate_tp(a, d.stats, d.dict)
        est_b = estimate_tp(b, d.stats, d.dict)
        est_join = estimate_join(est_a, est_b, "SS")
        actual = n  # one q-edge per p-subject
        ratio = error_ratio(actual, est_join)

        iv = join_interval(
            tp_bounds(a, d.stats, d.dict), tp_bounds(b, d.stats, d.dict), "SS", AND
        )
        assert iv.lo / est_join - 1e-9 <= ratio <= iv.hi / est_join + 1e-9


class TestClassifyJoin:
    def test_kinds(self):
        a = {"x": "S", "y": "O"}  # ?x p ?y
        assert classify_join(a, {"x": "S", "z": "O"}, {"x": 0})[0] == "SS"
        assert classify_join(a, {"z": "S", "x": "O"}, {"x": 0})[0] == "SO"
        assert classify_join({"a": "S", "x": "O"}, {"b": "S", "x": "O"}, {"x": 0})[0] == "OO"
        assert classify_join(a, {"s": "S", "x": "P", "o": "O"}, {"x": 0})[0] == "SP"
        assert classify_join(
            {"a": "S", "x": "O"}, {"s": "S", "x": "P", "o": "O"}, {"x": 0}
        )[0] == "OP"
        assert classify_join(
            {"a": "S", "x": "P", "b": "O"}, {"c": "S", "x": "P", "d": "O"}, {"x": 0}
        )[0] == "PP"
        assert classify_join(a, {"q": "S", "w": "O"}, {})[0] == "NONE"

    def test_first_shared_variable_by_query_order(self):
        left = {"a": "S", "b": "O"}  # ?a p ?b
        right = {"a": "S", "b": "O"}  # ?a q ?b
        # both shared; the variable earlier in query order classifies
        kind, var = classify_join(left, right, {"a": 0, "b": 1})
        assert (kind, var) == ("SS", "a")
        kind, var = classify_join(left, right, {"b": 0, "a": 1})
        assert (kind, var) == ("OO", "b")


class TestBoundSoundness:
    def test_ss_upper_bound_breaks_without_a_key_faithful(self):
        """Faithful record of an unsound join bound: the SS (and OO, PP)
        upper selectivity 1/max(|Ti|, |Tj|) holds only when the join
        variable is a key on one side. Here ?v0 is s1 in both patterns'
        two rows, so each left row meets both right rows: the join has 4
        rows, and the bound of 2 * 2 / 2 = 2 is broken. The eager trace
        records the broken interval beside the actual count, and the oracle
        agrees with the count.
        """
        d = Dataset.from_strings(
            [("s1", "p0", "a"), ("s1", "p0", "b"), ("s1", "p4", "c"), ("s1", "p4", "d")]
        )
        q = parse_query("SELECT * WHERE { ?v0 <p0> ?v1 . ?v0 <p4> ?v2 . }")
        two = CardinalityInterval(2.0, 2.0)
        assert join_interval(two, two, "SS", AND) == CardinalityInterval(1.0, 2.0)
        _, trace = run(q, d, Policy("eager"))
        step = next(s for s in trace.steps if s.leaf == "T2")
        assert (step.lo, step.hi, step.actual) == (1.0, 2.0, 4)
        assert sum(evaluate_query(q, d).values()) == 4

    def test_one_unbound_upper_bound_holds_on_random_data(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(1, 300)
            d = Dataset.from_strings(
                (
                    f"s{rng.randrange(20)}",
                    f"p{rng.randrange(6)}",
                    f"o{rng.randrange(25)}",
                )
                for _ in range(n)
            )
            rows = list(d.triples())
            for _ in range(60):
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
                assert actual <= iv.hi + 1e-12
