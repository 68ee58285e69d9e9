"""Executor kernels against the brute-force oracle, branch by branch.

Each property draws a small dataset and fills a query template aimed at
one branch of `store.scan` or of the executor's operators (repeated
variables, constant positions, one or two join keys, unbound join cells
from UNION and OPTIONAL on either side of a join, empty operands, regex
and numeric filters, ORDER BY over unbound cells, DISTINCT over unbound
cells). The query tree is
lowered to physical operators as written, so the template, not the
planner, decides which operand sits on which side; the same query also
runs through `run` under every policy. The equi-join pair builder is
also checked on its own against a nested loop, index list by index list.
Bind joins run against the hash joins they replace, row for row, with
the choice forced through `RATIO`, and the choice rule itself is pinned.
A query resolves each pattern once, before its clock starts, and a plan
prints and compares without the extents its scans carry.
An OPTIONAL group reduced to the keys of its left input gives the rows of
the unreduced group in the same order. The numpy pair builder of large
equi-joins, forced on through `VECTOR_ROWS`, gives the Python kernel's
rows in the same order, and its pairs match the nested loop's.
The pinned tests at the end fix the exact row order on the shared
fixtures.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from string import Template

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rosie import executor, runtime
from rosie.datagen import ADVERSARIAL_QUERY, adversarial_fanout
from rosie.executor import (
    BindJoin,
    FetchIntermediate,
    HashJoin,
    LeftOuterJoin,
    Deadline,
    Scan,
    _index_lists,
    _matches,
    _vector_pairs,
    bind_inputs,
    compile_cs,
    evaluate,
    execute,
)
from rosie.frontend import FilterNode, Leaf, parse_query, query_variables
from rosie.planner import CSFilter, CSNode, PatternLeaf, RelationLeaf, plan_cs
from rosie.qrg import build_qrg
from rosie.runtime import Policy, run
from rosie.store import (
    Dataset,
    load_ntriples,
    make_literal,
    register_intermediate,
    resolve,
    scan,
)

from conftest import D_TOY_NT, QE_TEXT, qe_weights_dataset
from naive_eval import _order_key, eval_node, evaluate_query
from test_store import tp

# Subjects, predicates and objects overlap so that repeated-variable
# patterns such as `?x ?x ?y` and `?x ?p ?x` find matches.
SUBJECTS = ["s0", "s1", "p0"]
PREDICATES = ["p0", "p1", "p2"]
OBJECTS = ["s0", "s1", "p1"] + [make_literal(x) for x in ("1", "7", "12", "ab", "Ba")]
VOCABULARY = {
    "P": PREDICATES + ["nope"],
    "Q": PREDICATES,
    "R": PREDICATES,
    "S": SUBJECTS,
    "O": ["s0", "s1", "p1"],
}

SCANS = [
    "?x <$P> ?x .",
    "?x ?x ?y .",
    "?x ?p ?x .",
    "?x ?x ?x .",
    "<$S> <$P> ?o .",
    "?s <$P> <$O> .",
    "<$S> ?p <$O> .",
    "<$S> ?p ?o .",
    "?s ?p <$O> .",
    "?s ?p ?o .",
]

JOINS = [
    # one shared variable, two shared variables, none (cross product)
    "?x <$P> ?y . ?y <$Q> ?z .",
    "?x <$P> ?y . ?x <$Q> ?y .",
    "?a <$P> ?b . ?c <$Q> ?d .",
    # an empty operand on either side, inner and outer
    "?x <$P> ?y . ?y <nope> ?z .",
    "?y <nope> ?z . ?x <$P> ?y .",
    "?x <$P> ?y . OPTIONAL { ?y <nope> ?z . }",
    "?x <nope> ?y . OPTIONAL { ?y <$Q> ?z . }",
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . }",
    "?x <$P> ?y . OPTIONAL { ?a <$Q> ?b . }",
    "?x <$P> ?y . OPTIONAL { ?a <nope> ?b . }",
]

WILD = [
    # UNION leaves ?y unbound in its second branch; the big union probes
    # a small build side, or a small union builds against a big probe side
    "{ ?x ?p1 ?y . } UNION { ?x ?p2 ?z . } ?y <$P> ?w .",
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } ?y ?p ?w .",
    # two shared variables, one of them unbound in some rows
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } ?x <$R> ?y .",
    "{ ?x ?p1 ?y . } UNION { ?x ?p2 ?z . } ?x <$R> ?y .",
    # unbound in different key cells on the two sides
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } { ?x <$R> ?y . } UNION { ?y <$P> ?w . }",
    # OPTIONAL leaves ?z unbound; the next join keys on it
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . } ?z <$R> ?w .",
    "?x ?q ?y . OPTIONAL { ?y <$Q> ?z . } ?z <$R> ?w .",
    # outer joins with unbound keys on the right and on the left
    "?y <$R> ?w . OPTIONAL { { ?x <$P> ?y . } UNION { ?x <$Q> ?z . } }",
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } OPTIONAL { ?y <$R> ?w . }",
]

# OPTIONAL groups that join two patterns; the outer join reduces the scans
# of a group that is a join of two plain scans to the keys of its left
# input (`executor._reducible`)
OPTIONAL_GROUPS = [
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . ?z <$R> ?w . }",
    # two shared variables, each restricting on its own
    "?x <$P> ?y . OPTIONAL { ?x <$Q> ?z . ?y <$R> ?z . }",
    # ?y unbound in some left rows: it restricts nothing
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } OPTIONAL { ?y <$R> ?w . ?w <$P> ?v . }",
    # a union or a filter over the join: not reduced
    "?x <$P> ?y . OPTIONAL { { ?y <$Q> ?z . ?z <$R> ?w . } UNION { ?w <$Q> ?z . ?z <$R> ?v . } }",
    "?x <$P> ?y . OPTIONAL { { ?y <$Q> ?z . ?z <$R> ?w . } UNION { ?y <$R> ?v . } }",
    '?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . ?z <$R> ?w . FILTER regex(str(?w), "1") }',
    # a repeated variable: not reduced
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?y . ?y <$R> ?w . }",
    # an empty left input, and an empty group
    "?x <nope> ?y . OPTIONAL { ?y <$Q> ?z . ?z <$R> ?w . }",
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . ?z <nope> ?w . }",
]

# $F is the filter expression; every expression meets every shape
FILTERS = [
    "?s ?p ?o . FILTER $F",
    "?s <$P> ?o . FILTER ($F && ?s != <s1>)",
    # ?o unbound in the rows without an OPTIONAL match
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?o . } FILTER $F",
    # ?o is out of scope inside the OPTIONAL group
    "?o <$P> ?y . OPTIONAL { ?y <$Q> ?z . FILTER $F }",
]
FILTER_EXPRESSIONS = [
    f'regex(str(?o), "{pattern}"{flags})'
    for pattern in ("a", "^1", "^b", "B", "[0-9]+", "^s", "(")
    for flags in ("", ', "i"')
] + [
    f"(?o {op} {operand})"
    for op in ("=", "!=", "<", "<=", ">", ">=")
    for operand in ("1", "7", "10", '"ab"', '"B"')
]

triple = st.tuples(
    st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)
triples = st.lists(triple, max_size=24)
# at least a dozen triples, so that most join operands find rows; the
# templates with <nope> keep the empty operands
dense_triples = st.lists(triple, min_size=12, max_size=40)
PROPERTY = settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def filled(templates: list[str]):
    """Queries: a template with its `$` placeholders drawn from their
    vocabularies."""
    values = st.fixed_dictionaries(
        {key: st.sampled_from(choices) for key, choices in VOCABULARY.items()}
    )
    return st.tuples(st.sampled_from(templates), values).map(
        lambda pair: Template(pair[0]).safe_substitute(pair[1])
    )


def as_written(node):
    """The query tree lowered one to one, without the planner."""
    if isinstance(node, Leaf):
        return PatternLeaf(node.tp)
    if isinstance(node, FilterNode):
        return CSFilter(as_written(node.child), node.constraint, "C")
    return CSNode(node.kind, as_written(node.left), as_written(node.right))


def check_against_oracle(rows, text: str, order_by: str = "", distinct: int = 0) -> None:
    """The query `text` over `rows`, as written and under every policy,
    against the oracle. With `distinct`, it is SELECT DISTINCT over the
    first `distinct` variables of the pattern."""
    d = Dataset.from_strings(rows)
    head = "*"
    if distinct:
        variables = query_variables(parse_query(f"SELECT * WHERE {{ {text} }}"))
        head = "DISTINCT " + " ".join(f"?{v}" for v in variables[:distinct])
    q = parse_query(f"SELECT {head} WHERE {{ {text} }} {order_by}")
    expected = evaluate_query(q, d)
    plan = compile_cs(as_written(q.tree), q.projection, q.modifiers, d)
    rel = execute(plan, d)
    assert Counter(rel.rows) == expected, text
    for kind in ("static", "eager", "rosie"):
        got, _ = run(q, d, Policy(kind))
        assert Counter(got.rows) == expected, (kind, text)
        assert d.intermediates == {}
    if q.modifiers.order_by:
        ((var, ascending),) = q.modifiers.order_by
        col = rel.schema.index(var)
        keys = sorted(
            (_order_key(b.get(var), d) for b in eval_node(q.tree, d)),
            reverse=not ascending,
        )
        assert [_order_key(r[col], d) for r in rel.rows] == keys


@PROPERTY
@given(triples, filled(SCANS))
def test_scan_kernels(rows, text):
    check_against_oracle(rows, text)


@PROPERTY
@given(dense_triples, filled(JOINS))
# the right input outnumbers the outer join's output, and the unmatched
# row takes the pad
@example([("a", "p0", "b"), ("c", "p0", "d"), ("e1", "p1", "b"),
          ("e2", "p1", "f"), ("e3", "p1", "g"), ("e4", "p1", "h")],
         "?x <p0> ?y . OPTIONAL { ?z <p1> ?y . }")
# keys repeat on both sides of the join
@example([("a", "p0", "k1"), ("b", "p0", "k2"), ("c", "p0", "k1"), ("d", "p0", "k1"),
          ("k1", "p1", "x"), ("k2", "p1", "y"), ("k1", "p1", "z"), ("k1", "p1", "w")],
         "?x <p0> ?y . ?y <p1> ?z .")
# an OPTIONAL whose every left row finds a match: no pad
@example([("a", "p0", "b"), ("c", "p0", "b"), ("e1", "p1", "b"), ("e2", "p1", "b")],
         "?x <p0> ?y . OPTIONAL { ?z <p1> ?y . }")
def test_join_kernels(rows, text):
    check_against_oracle(rows, text)
    check_vector_kernel(rows, text)


@PROPERTY
@given(dense_triples, filled(WILD))
# both branches bind ?y: the union's key column is a list with no unbound
# cell, which the numpy pair builder takes
@example([("a", "p0", "b"), ("c", "p1", "b"), ("d", "p1", "e"), ("b", "p2", "f"), ("e", "p2", "g")],
         "{ ?x <p0> ?y . } UNION { ?x <p1> ?y . } ?y <p2> ?w .")
def test_join_kernels_with_unbound_keys(rows, text):
    check_against_oracle(rows, text)
    check_vector_kernel(rows, text)


@PROPERTY
@given(dense_triples, filled(JOINS + WILD), st.integers(min_value=1, max_value=4))
def test_distinct_over_padded_columns(rows, text, distinct):
    # UNION and OPTIONAL leave unbound cells in the projected columns, and
    # a short projection makes rows repeat
    check_against_oracle(rows, text, distinct=distinct)


@pytest.mark.parametrize("expression", FILTER_EXPRESSIONS)
@settings(PROPERTY, max_examples=8)
@given(dense_triples, filled(FILTERS))
def test_filter_kernels(expression, rows, text):
    # every object under every predicate, so each comparison meets each kind
    # of term: numbers, strings that differ only in case, IRIs
    every_object = [("s0", p, o) for p in PREDICATES for o in OBJECTS]
    check_against_oracle(rows + every_object, Template(text).substitute(F=expression))


@PROPERTY
@given(triples, filled(["?s <$P> ?o . OPTIONAL { ?o <$Q> ?z . }"]), st.sampled_from(["ASC", "DESC"]))
def test_order_by_unbound_cells(rows, text, direction):
    check_against_oracle(rows, text, f"ORDER BY {direction}(?z)")


def policy_rows(d: Dataset, q, kind: str | None) -> list[tuple]:
    """The rows of `q` over `d`, as written (`kind` None) or under the
    policy `kind`."""
    if kind is None:
        return execute(compile_cs(as_written(q.tree), q.projection, q.modifiers, d), d).rows
    return run(q, d, Policy(kind))[0].rows


def unreduced_rows(d: Dataset, q, kind: str | None) -> list[tuple]:
    """`policy_rows` with no OPTIONAL group reduced to the keys of its left
    input."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "_reducible", lambda plan: False)
        return policy_rows(d, q, kind)


@contextmanager
def vector_kernel():
    """Every equi-join on one variable whose key cells are all bound pairs
    its rows in numpy, however small its inputs and wide its key span."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "VECTOR_ROWS", 0)
        mp.setattr(executor, "SPAN", NEVER)
        yield


def check_vector_kernel(rows, text: str) -> None:
    """The query `text` over `rows` with the numpy pair builder, as written
    and under every policy: the oracle's bag, in the order of the Python
    kernel's rows."""
    d = Dataset.from_strings(rows)
    q = parse_query(f"SELECT * WHERE {{ {text} }}")
    expected = evaluate_query(q, d)
    for kind in (None, "static", "eager", "rosie"):
        with vector_kernel():
            got = policy_rows(d, q, kind)
        assert Counter(got) == expected, (kind, text)
        assert got == policy_rows(d, q, kind), (kind, text)


@PROPERTY
@given(dense_triples, filled(OPTIONAL_GROUPS))
# the reduction leaves <p1> two of its four rows and <p2> all three; the
# join keeps the order of <p1>, the larger input before the reduction
@example([("a", "p0", "b"), ("b", "p1", "c1"), ("b", "p1", "c2"),
          ("e", "p1", "c3"), ("e", "p1", "c4"),
          ("c2", "p2", "d1"), ("c1", "p2", "d2"), ("c3", "p2", "d3")],
         "?x <p0> ?y . OPTIONAL { ?y <p1> ?z . ?z <p2> ?w . }")
# ?y is unbound in the second branch's rows, which match every group row
@example([("a", "p0", "b"), ("a", "p1", "z"), ("b", "p2", "c"), ("c", "p0", "d"),
          ("e", "p2", "c"), ("f", "p2", "g"), ("g", "p0", "h")],
         "{ ?x <p0> ?y . } UNION { ?x <p1> ?z . } OPTIONAL { ?y <p2> ?w . ?w <p0> ?v . }")
def test_optional_group_reduction(rows, text):
    check_against_oracle(rows, text)
    d = Dataset.from_strings(rows)
    q = parse_query(f"SELECT * WHERE {{ {text} }}")
    for kind in (None, "static", "eager", "rosie"):
        assert policy_rows(d, q, kind) == unreduced_rows(d, q, kind), (kind, text)
    check_vector_kernel(rows, text)


def test_optional_group_reduction_choice():
    d = Dataset.from_strings([("s0", "p0", "s1")])
    reducible = []
    for text in OPTIONAL_GROUPS:
        q = parse_query("SELECT * WHERE { %s }" % Template(text).substitute(P="p0", Q="p1", R="p2"))
        plan = compile_cs(as_written(q.tree), None, None, d)
        assert isinstance(plan, LeftOuterJoin)
        reducible.append(executor._reducible(plan.right))
    # only an inner join of two plain scans is cut: not one under a union
    # or a filter, nor one over a repeated variable
    assert reducible == [True] * 3 + [False] * 4 + [True] * 2
    # a lone scan on the right is left to the outer join's hash probe
    q = parse_query("SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y <p1> ?z . } }")
    assert not executor._reducible(compile_cs(as_written(q.tree), None, None, d).right)


@pytest.mark.parametrize(
    "keys, kept",
    [
        # a fifth of the rows match, nearly every row matches, or one hot
        # key matches every row
        ([f"u{i}" for i in range(0, 200, 5)], 40),
        ([f"u{i}" for i in range(190)], 190),
        (["hot"], 200),
    ],
)
def test_optional_group_scan_cut_keeps_the_matching_rows_in_scan_order(keys, kept):
    rows = [(f"u{i}", "p1", f"z{i}") for i in range(200)]
    rows += [("hot", "p2", f"z{i}") for i in range(200)]
    d = Dataset.from_strings(rows)
    pred = "p2" if keys == ["hot"] else "p1"
    plan = compile_cs(as_written(parse_query(f"SELECT * WHERE {{ ?y <{pred}> ?z . }}").tree), None, None, d)
    assert isinstance(plan, Scan)
    cells = {"y": {d.dict.lookup(k) for k in keys}}
    rel, size = executor._semi_scan(plan, cells, Deadline())
    assert (rel.size, size) == (kept, 200)
    full = scan(resolve(d, plan.tp)).rows
    assert rel.rows == [row for row in full if row[0] in cells["y"]]


def nested_loop_pairs(probe_keys, build_keys, outer: bool) -> tuple[list, list]:
    """Every (probe row, build row) pair of equal keys, probe order first and
    build order within; with `outer`, a probe row without a match pairs once
    with the pad index len(build_keys)."""
    probe_idx, build_idx = [], []
    for i, key in enumerate(probe_keys):
        matches = [j for j, other in enumerate(build_keys) if other == key]
        if outer and not matches:
            matches = [len(build_keys)]
        probe_idx += [i] * len(matches)
        build_idx += matches
    return probe_idx, build_idx


join_keys = st.lists(st.integers(min_value=0, max_value=5), max_size=40)


def hashed_pairs(probe_keys, build_keys, outer: bool) -> tuple[list, list, bool]:
    """The pairs the Python kernel makes of keys whose cells are all bound."""
    deadline = Deadline()
    hits = _matches(probe_keys, build_keys, True, False, False, deadline)
    return _index_lists(hits, len(build_keys), outer, deadline)


class CountingDeadline(Deadline):
    """A deadline without a timeout that counts its checks."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self, amount: int = 1) -> None:
        self.checks += 1


@PROPERTY
@given(join_keys, join_keys, st.booleans(), st.booleans())
@example([], [1, 1], True, False)
@example([1, 1], [], True, False)
@example([], [], True, True)
@example([2, 1, 9, 1], [1, 3, 1, 2, 1, 2], True, True)
# many build rows per key, so an unstable sort would reorder them; with
# and without an unmatched probe row
@example([0, 1, 2, 1], [k % 3 for k in range(60)], True, True)
@example([7, 0, 7], [k % 3 for k in range(60)], True, False)
def test_pair_builder_against_nested_loop(probe_keys, build_keys, outer, columns):
    # `_matches` hashes the build keys whichever side is the larger, and
    # both size relations run; a store column is an array, an
    # intermediate's a list
    if columns:
        probe_keys, build_keys = array("I", probe_keys), array("I", build_keys)
    probe_idx, build_idx, padded = hashed_pairs(probe_keys, build_keys, outer)
    assert (probe_idx, build_idx) == nested_loop_pairs(probe_keys, build_keys, outer)
    assert padded == (len(build_keys) in build_idx)
    # the numpy builder gives the same pairs whatever the size of the parts
    # it grows them in, with one deadline check before each part
    for part in (1, 3, executor._TIMEOUT_CHECK_EVERY):
        deadline = CountingDeadline()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "_TIMEOUT_CHECK_EVERY", part)
            vector_probe, vector_build, vector_padded = _vector_pairs(
                probe_keys, build_keys, outer, deadline
            )
        assert (vector_probe.tolist(), vector_build.tolist()) == (probe_idx, build_idx)
        assert vector_padded == padded
        assert deadline.checks == -(-len(probe_idx) // part)


def test_vector_pairs_only_over_narrow_key_spans():
    # keys spanning SPAN ids per input row are paired in numpy; one id more
    # leaves the join to the Python kernel
    for span, paired in ((2 * executor.SPAN, True), (2 * executor.SPAN + 1, False)):
        probe, build = array("I", [5]), array("I", [5 + span - 1])
        assert (_vector_pairs(probe, build, True, Deadline()) is not None) == paired


@PROPERTY
@given(triples, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS))
def test_scan_all_positions_constant(rows, s, p, o):
    # the parser wants a variable per pattern; the store serves this shape
    d = Dataset.from_strings(rows)
    pattern = tp(s, p, o)
    rel = scan(resolve(d, pattern))
    assert rel.schema == ()
    assert rel.rows == [()] * len(eval_node(Leaf(pattern), d))


# ---------------------------------------------------------------------------
# Bind joins: RATIO 0 binds every join that may bind, NEVER none of them
# ---------------------------------------------------------------------------

NEVER = 10**12

BIND = [
    # the leaf on the left and on the right; one and two shared variables
    "?x <$P> <$O> . ?x <$Q> ?y .",
    "?x <$Q> ?y . ?x <$P> <$O> .",
    "<$S> ?p ?y . ?x ?p ?y .",
    "?x <$P> ?y . ?x <$Q> ?y .",
    # a repeated variable in the scanned pattern: an inner join hashes
    "?x <$P> <$O> . ?x <$Q> ?x .",
    "<$S> ?p ?x . ?x <$Q> ?x .",
    "?x <$P> <$O> . OPTIONAL { ?x <$Q> ?x . }",
    "?x <$P> <$O> . OPTIONAL { ?x ?x ?y . }",
    "?x <$P> <$O> . OPTIONAL { ?x ?y ?y . }",
    # a constant absent from the dictionary: an empty leaf, an empty scan
    "?x <nope> ?y . ?x <$Q> ?z .",
    "?x <nope> ?y . OPTIONAL { ?x <$Q> ?z . }",
    "?x <$P> <$O> . ?x <nope> ?z .",
    # an OPTIONAL binds from its left input, even the larger one
    "?x <$P> <$O> . OPTIONAL { ?x <$Q> ?y . }",
    "<$S> <$P> ?y . OPTIONAL { ?x ?p ?y . }",
    "?x ?p ?y . OPTIONAL { ?x <$P> <$O> . }",
    # a leaf joined twice: the join result above it hashes
    "?x <$P> <$O> . ?x <$Q> ?y . ?y <$R> ?z .",
]

# a group materialized as an intermediate, joined with one pattern
MATERIALIZED = [
    "?x <$P> ?y . ?y <$Q> ?z .",
    "?x <$P> ?y . ?x <$Q> ?y .",
    "?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . }",
    "?x <$P> ?y . OPTIONAL { ?y ?y ?z . }",
    # unbound key cells from UNION and OPTIONAL: the hash path
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } ?y <$R> ?w .",
    "{ ?x <$P> ?y . OPTIONAL { ?y <$Q> ?z . } } ?z <$R> ?w .",
    "{ ?x <$P> ?y . } UNION { ?x <$Q> ?z . } OPTIONAL { ?y <$R> ?w . }",
]


# denser than `triples`, so that most leaves find rows
bind_triples = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS + ["s2"]),
        st.sampled_from(PREDICATES),
        st.sampled_from(["s0", "s1", "s2", "p0", "p1"]),
    ),
    min_size=12,
    max_size=40,
)


def bind_joins(plan) -> list[BindJoin]:
    """The bind joins of a physical plan."""
    if isinstance(plan, BindJoin):
        return [plan, *bind_joins(plan.leaf)]
    children = [getattr(plan, f, None) for f in ("left", "right", "child")]
    return [b for child in children if child is not None for b in bind_joins(child)]


def bound_and_hashed(d: Dataset, cs, q) -> tuple:
    """`cs` compiled with every join that may bind bound, and with none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "RATIO", 0)
        bound = compile_cs(cs, q.projection, q.modifiers, d)
        mp.setattr(executor, "RATIO", NEVER)
        hashed = compile_cs(cs, q.projection, q.modifiers, d)
    assert bind_joins(hashed) == []
    return bound, hashed


def check_bind_against_hash(d: Dataset, cs, q) -> BindJoin | None:
    """The bound plan of `cs` gives the hashed plan's rows in its order and
    the oracle's bag; its top join, if bound, is returned."""
    bound, hashed = bound_and_hashed(d, cs, q)
    rows = execute(bound, d).rows
    assert rows == execute(hashed, d).rows
    with vector_kernel():
        assert execute(bound, d).rows == rows
        assert execute(hashed, d).rows == rows
    assert Counter(rows) == evaluate_query(q, d)
    for join in bind_joins(bound):
        assert isinstance(join.leaf, (Scan, FetchIntermediate))
    return bound if isinstance(bound, BindJoin) else None


@PROPERTY
@given(bind_triples, filled(BIND))
@example([("s0", "p0", "s1"), ("s1", "p0", "s1")] + [(f"s{i}", "p1", "p1") for i in range(4)],
         "?x <p0> <s1> . ?x <p1> ?y .")
@example([("s0", "p0", "s1")] + [(f"s{i}", "p1", f"s{i}") for i in range(4)],
         "?x <p0> <s1> . OPTIONAL { ?x <p1> ?x . }")
# the scan's range outnumbers the leaf, its rows do not: leaf rows lead
@example([("s1", "p2", "s1"), ("s2", "p2", "s2"),
          ("s0", "p0", "s2"), ("s0", "p1", "s1"), ("s0", "p0", "s1"),
          ("s1", "p2", "s0"), ("s2", "p2", "s0"), ("s1", "p2", "s2")],
         "<s0> ?p ?x . ?x <p2> ?x .")
def test_bind_join_against_hash_join(rows, text):
    d = Dataset.from_strings(rows)
    q = parse_query(f"SELECT * WHERE {{ {text} }}")
    top = check_bind_against_hash(d, as_written(q.tree), q)
    if top is not None and not top.outer:
        atoms = (top.scan.tp.s, top.scan.tp.p, top.scan.tp.o)
        assert len(top.scan.schema) == sum(a.is_var() for a in atoms)


@PROPERTY
@given(bind_triples, filled(MATERIALIZED), st.booleans())
@example([("s0", "p0", "s1")] + [("s1", "p1", f"o{i}") for i in range(4)],
         "?x <p0> ?y . ?y <p1> ?z .", False)
def test_bind_join_from_an_intermediate(rows, text, leaf_right):
    d = Dataset.from_strings(rows)
    q = parse_query(f"SELECT * WHERE {{ {text} }}")
    group = evaluate(compile_cs(as_written(q.tree.left), None, None, d), d)
    rid = register_intermediate(d, group)
    leaf, pattern = RelationLeaf(rid), as_written(q.tree.right)
    inner = q.tree.kind == "And"
    cs = CSNode(q.tree.kind, *((pattern, leaf) if inner and leaf_right else (leaf, pattern)))
    top = check_bind_against_hash(d, cs, q)
    shared = [v for v in group.schema if v in resolve(d, pattern.tp).schema]
    if any(None in group.columns[group.schema.index(v)] for v in shared):
        assert top is None
    elif top is not None:
        assert isinstance(top.leaf, FetchIntermediate)


def test_bind_choice_reads_no_policy():
    assert list(inspect.signature(bind_inputs).parameters) == [
        "left", "right", "shared", "outer",
    ]
    assert not hasattr(executor, "Policy")


def test_join_result_never_binds(monkeypatch):
    # static's last join probes a join-result prefix, empty here, with the
    # 6,000 rows of T4; however cheap the lookups, that prefix never binds
    d = adversarial_fanout()
    q = parse_query(ADVERSARIAL_QUERY)
    cs = plan_cs(build_qrg(q, d.stats, d.dict))
    for ratio in (executor.RATIO, 0):
        monkeypatch.setattr(executor, "RATIO", ratio)
        plan = compile_cs(cs, None, None, d)
        assert isinstance(plan, HashJoin) and isinstance(plan.left, HashJoin)
        assert isinstance(plan.right, Scan) and plan.right.tp.p.value == "comment_on"


SEL2_TEXT = "SELECT ?s ?y WHERE { ?s <x> <v> . ?s <y> ?y . }"


def sel2_dataset() -> Dataset:
    """Two subjects carry <v>, and <y> has 400 rows."""
    rows = [(f"e{i}", "y", f"w{i % 7}") for i in range(400)]
    rows += [(f"e{i}", "x", "v" if i in (16, 202) else f"u{i % 5}") for i in range(0, 400, 2)]
    rows.append(("e16", "y", "w3b"))
    return Dataset.from_strings(rows)


def test_sel2_shape_binds_under_every_policy(monkeypatch):
    d = sel2_dataset()
    q = parse_query(SEL2_TEXT)
    expected = evaluate_query(q, d)
    assert sum(expected.values()) == 3
    plans = []

    def recording(*args):
        plans.append(compile_cs(*args))
        return plans[-1]

    monkeypatch.setattr(runtime, "compile_cs", recording)
    for kind in ("static", "eager", "rosie"):
        plans.clear()
        rel, _ = run(q, d, Policy(kind))
        assert Counter(rel.rows) == expected, kind
        assert any(bind_joins(plan) for plan in plans), kind
        with monkeypatch.context() as mp:
            mp.setattr(executor, "RATIO", NEVER)
            hashed, _ = run(q, d, Policy(kind))
        assert rel.rows == hashed.rows, kind


@pytest.mark.parametrize("kind", ["static", "eager", "rosie"])
@pytest.mark.parametrize("example", ["c6", "sel2"])
def test_each_pattern_is_resolved_once_before_the_clock(monkeypatch, kind, example):
    d, text = (qe_weights_dataset(), QE_TEXT) if example == "c6" else (sel2_dataset(), SEL2_TEXT)
    q = parse_query(text)
    resolved = []  # (module, pattern) of each resolve, in order
    lookups = []  # the bind join of each lookup
    at_clock = []  # the number of resolves when the query's clock starts

    def counted(module):
        original = module.resolve

        def resolve(d, tp, *keyed):
            resolved.append((module.__name__, tp))
            return original(d, tp, *keyed)

        return resolve

    def lookup(plan, *args):
        lookups.append(plan)
        return original_lookup(plan, *args)

    def clock(*args):
        at_clock.append(len(resolved))
        return Deadline(*args)

    original_lookup = executor._lookup
    for module in (runtime, executor):
        monkeypatch.setattr(module, "resolve", counted(module))
    monkeypatch.setattr(executor, "_lookup", lookup)
    monkeypatch.setattr(runtime, "Deadline", clock)
    rel, _ = run(q, d, Policy(kind))
    assert Counter(rel.rows) == evaluate_query(q, d)
    assert at_clock == [len(q.patterns)]
    assert resolved == [("rosie.runtime", tp) for tp in q.patterns] + [
        ("rosie.executor", plan.scan.tp) for plan in lookups
    ]
    assert bool(lookups) == (example == "sel2")


def test_a_plan_prints_and_compares_without_its_extents():
    # 5,000 triples: an extent's columns would print thousands of ids
    d = Dataset.from_strings((f"s{i}", f"p{i % 3}", f"o{i}") for i in range(5000))
    q = parse_query("SELECT * WHERE { ?s <p0> <o0> . ?s ?p ?x . }")
    plan = compile_cs(as_written(q.tree), q.projection, q.modifiers, d)
    assert bind_joins(plan)
    assert len(repr(plan)) < 2000
    for node in q.tree.left, q.tree.right:
        first, second = (compile_cs(as_written(node), None, None, d) for _ in range(2))
        assert first == second and first.extent is not second.extent


# ---------------------------------------------------------------------------
# Row order on the shared fixtures, pinned from the hash-join executor as
# it stood before the compile-once kernels; every policy gives these lists.
# ---------------------------------------------------------------------------

TOY_ROWS = [
    (
        "SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }",
        [("p1", '"a"'), ("p2", '"b"')],
    ),
    (
        "SELECT * WHERE { ?u <creator_of> ?p . ?p <type> ?t . ?p <content> ?c . }",
        [("u1", "p1", "Post", '"a"'), ("u1", "p2", "Post", '"b"')],
    ),
    (
        "SELECT * WHERE { ?u <creator_of> ?p . OPTIONAL { ?p <content> ?c . } "
        "OPTIONAL { ?u <knows> ?k . } }",
        [("u1", "p1", '"a"', "u2"), ("u1", "p2", '"b"', "u2")],
    ),
    (
        "SELECT * WHERE { { ?x <type> <Post> . } UNION { ?x <knows> ?y . } ?x <type> ?t . }",
        [("p1", None, "Post"), ("p2", None, "Post"), ("u1", "u2", "User")],
    ),
    (
        "SELECT * WHERE { ?x <knows> ?y . ?a <content> ?c . }",
        [("u1", "u2", "p1", '"a"'), ("u1", "u2", "p2", '"b"')],
    ),
    (
        'SELECT * WHERE { ?x ?p ?c . FILTER regex(str(?c), "^[abP]") }',
        [("p1", "type", "Post"), ("p1", "content", '"a"'),
         ("p2", "type", "Post"), ("p2", "content", '"b"')],
    ),
    (
        "SELECT ?s ?o WHERE { ?s ?p ?o . } ORDER BY DESC(?o) ?s",
        [("u1", "u2"), ("u1", "p2"), ("u1", "p1"), ("p2", '"b"'), ("p1", '"a"'),
         ("u1", "User"), ("p1", "Post"), ("p2", "Post")],
    ),
    (
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o . }",
        [("type",), ("content",), ("creator_of",), ("knows",)],
    ),
]

QE_ROWS = [
    (
        'SELECT ?e ?t WHERE { ?e <type> ?t . FILTER regex(str(?t), "Cls[12]$") } '
        "ORDER BY DESC(?e) LIMIT 4",
        [("e1299", "Cls2"), ("e1298", "Cls1"), ("e1290", "Cls2"), ("e1289", "Cls1")],
    ),
    (
        "SELECT * WHERE { { ?e <reply_of> ?x . } UNION { ?e <email> ?y . } "
        "OPTIONAL { ?e <knows> ?z . } } LIMIT 5",
        [(f"e{i}", f"n{i}", None, None) for i in range(850, 855)],
    ),
    (QE_TEXT, []),
]


def decoded_rows(d: Dataset, text: str, kind: str) -> list[tuple]:
    rel, _ = run(parse_query(text), d, Policy(kind))
    return [tuple(None if c is None else d.dict.decode(c) for c in row) for row in rel.rows]


@pytest.mark.parametrize("kind", ["static", "eager", "rosie"])
def test_row_order_pinned_on_toy(kind):
    d = load_ntriples(D_TOY_NT)
    for text, rows in TOY_ROWS:
        assert decoded_rows(d, text, kind) == rows, text


@pytest.mark.parametrize("kind", ["static", "eager", "rosie"])
def test_row_order_pinned_on_example_weights(kind):
    d = qe_weights_dataset()
    for text, rows in QE_ROWS:
        assert decoded_rows(d, text, kind) == rows, text


def test_row_order_pinned_on_optional_with_larger_right_side():
    # the right side is the larger, so the outer join hashes its left side;
    # keys repeat on both sides and s3 has no match
    d = Dataset.from_strings(
        [("s2", "l", "a1"), ("s1", "l", "a2"), ("s3", "l", "a3"), ("s1", "l", "a4")]
        + [("s1", "r", "b1"), ("s2", "r", "b2"), ("s1", "r", "b3"),
           ("s4", "r", "b4"), ("s2", "r", "b5"), ("s1", "r", "b6")]
    )
    text = "SELECT ?a ?s ?b WHERE { ?s <l> ?a . OPTIONAL { ?s <r> ?b . } }"
    rows = [
        ("a1", "s2", "b2"), ("a1", "s2", "b5"),
        ("a2", "s1", "b1"), ("a2", "s1", "b3"), ("a2", "s1", "b6"),
        ("a3", "s3", None),
        ("a4", "s1", "b1"), ("a4", "s1", "b3"), ("a4", "s1", "b6"),
    ]
    q = parse_query(text)
    left, right = (scan(resolve(d, pattern)) for pattern in q.patterns)
    assert left.size < right.size
    rel = execute(compile_cs(as_written(q.tree), q.projection, q.modifiers, d), d)
    assert [tuple(None if c is None else d.dict.decode(c) for c in row) for row in rel.rows] == rows
    for kind in ("static", "eager", "rosie"):
        assert decoded_rows(d, text, kind) == rows, kind
