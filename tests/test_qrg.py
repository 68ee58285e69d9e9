import random

import pytest

from rosie.errors import InvalidCollapse
from rosie.estimator import CardinalityInterval, estimate_tp, tp_bounds
from rosie.frontend import AND, OPT, parse_query
from rosie.qrg import (
    build_qrg,
    collapse_materialized,
    region_of,
    render_dot,
)

from conftest import make_stats, op_by_label
from genqueries import random_dataset, random_query_text


def simple_qrg(text, size=1000, p_counts=None, o_counts=None):
    q = parse_query(text)
    stats, dictionary = make_stats(size, p_counts=p_counts or {}, o_counts=o_counts or {})
    # make every query term known so estimates are non-zero
    for tp_ in q.patterns:
        for _pos, atom in tp_.atoms():
            if not atom.is_var() and dictionary.lookup(atom.value) is None:
                role = {"S": stats.s_hist, "P": stats.p_hist, "O": stats.o_hist}[_pos]
                role[dictionary.encode(atom.value)] = 1
    return q, build_qrg(q, stats, dictionary)


class TestBuild:
    def test_example_graph_shape(self, qe_qrg):
        g = qe_qrg
        assert len(g.leaves) == 11
        labels = sorted(op.label for op in g.ops.values())
        assert labels == ["And1", "And2", "And3", "And4", "Opt1", "Or1"]
        # edge (?p1 -> T4) labelled S
        assert ("S",) == g.leaves[4].var_edges["p1"]
        assert {"u1", "p1", "pc"} <= set(g.var_edges)

    def test_every_pattern_has_one_region_edge(self, qe_qrg):
        # |E1| = |V2| and regions partition the pattern vertices
        g = qe_qrg
        member_total = 0
        seen = set()
        for op_id in g.ops:
            members = region_of(g, op_id).members
            assert not (members & seen)
            seen |= members
            member_total += len(members)
        assert member_total == len(g.leaves)
        assert len(g.var_edges) == len(set(query_variables_of(g)))

    def test_single_pattern_gets_synthetic_root(self):
        _q, g = simple_qrg("SELECT ?x WHERE { ?x <p> <o> . }")
        assert len(g.ops) == 1
        root = g.ops[g.root_id]
        assert root.kind == AND
        assert region_of(g, g.root_id).members == frozenset({1})

    def test_disconnected_patterns_share_no_variable_vertex(self):
        _q, g = simple_qrg("SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }")
        for _var, edges in g.var_edges.items():
            assert len({leaf for leaf, _pos in edges}) == 1

    def test_weights_are_estimates(self, qe_qrg):
        assert qe_qrg.leaves[5].weight == pytest.approx(4.2)
        assert qe_qrg.leaves[3].weight == pytest.approx(200.0)


def query_variables_of(g):
    out = []
    for leaf in g.leaves.values():
        out.extend(leaf.var_edges)
    return out


class TestRegions:
    def test_main_region_members(self, qe_qrg):
        and2 = op_by_label(qe_qrg)["And2"]
        assert region_of(qe_qrg, and2.id).members == frozenset({1, 2, 3, 4, 5, 6})

    def test_singleton_region(self, qe_qrg):
        or1 = op_by_label(qe_qrg)["Or1"]
        assert region_of(qe_qrg, or1.id).members == frozenset({7})

    def test_operator_children_only_region_is_empty(self, qe_qrg):
        opt = op_by_label(qe_qrg)["Opt1"]
        assert region_of(qe_qrg, opt.id).members == frozenset()

    def test_exchangeability(self, qe_qrg):
        by_label = op_by_label(qe_qrg)
        assert region_of(qe_qrg, by_label["And2"].id).is_exchangeable(qe_qrg)
        assert region_of(qe_qrg, by_label["Or1"].id).is_exchangeable(qe_qrg)
        assert not region_of(qe_qrg, by_label["Opt1"].id).is_exchangeable(qe_qrg)


class TestVertexMemo:
    def test_vertices_carry_pattern_bounds_and_estimates(self, qe_query, qe_stats):
        stats, dictionary = qe_stats
        cases = [(qe_query, stats, dictionary)]
        rng = random.Random(515)
        for _ in range(60):
            d = random_dataset(rng, 300)
            cases.append((parse_query(random_query_text(rng)), d.stats, d.dict))
        for q, st, dic in cases:
            g = build_qrg(q, st, dic)
            for tp_ in q.patterns:
                v = g.leaves[tp_.id]
                assert v.interval == tp_bounds(tp_, st, dic)
                assert v.weight == estimate_tp(tp_, st, dic)
                assert g.by_label[tp_.label] is v

    def test_collapse_gives_a_point_and_keeps_live_intervals(self, qe_qrg):
        g2 = collapse_materialized(qe_qrg, {5, 4}, rel_id=1, exact_card=2)
        synth = g2.by_label["R1"]
        assert synth.is_materialized
        assert synth.interval == CardinalityInterval.point(2.0)
        for lid in set(qe_qrg.leaves) - {4, 5}:
            assert g2.leaves[lid].interval == qe_qrg.leaves[lid].interval
            assert g2.leaves[lid].weight == qe_qrg.leaves[lid].weight
        # a second collapse absorbs the first synthetic vertex
        g3 = collapse_materialized(g2, {synth.id, 6}, rel_id=2, exact_card=0)
        assert "R1" not in g3.by_label
        assert g3.by_label["R2"].interval.is_empty


class TestCollapse:
    def test_partial_region_collapse(self, qe_qrg):
        g2 = collapse_materialized(qe_qrg, {5, 4}, rel_id=1, exact_card=2)
        assert len(g2.leaves) == 10  # 9 patterns + 1 synthetic
        synth = [leaf for leaf in g2.leaves.values() if leaf.is_materialized]
        assert len(synth) == 1
        m = synth[0]
        assert m.weight == 2.0 and m.rel_id == 1
        # ?p1 still occurs outside (T3, T6): edge re-attached to the vertex
        assert any(leaf == m.id for leaf, _pos in g2.var_edges["p1"])
        # ?p2 occurred only inside the collapsed pair: no dangling edges
        assert all(leaf in g2.leaves for leaf, _ in g2.var_edges.get("p2", []))
        # the synthetic vertex joined the region the pair came from
        assert m.op_id == op_by_label(g2)["And2"].id

    def test_collapse_all(self, qe_qrg):
        g2 = collapse_materialized(qe_qrg, set(qe_qrg.leaves), rel_id=3, exact_card=7)
        assert len(g2.leaves) == 1
        only = next(iter(g2.leaves.values()))
        assert only.is_materialized and only.weight == 7.0
        assert len(g2.ops) == 1

    def test_collapse_single_pattern_keeps_structure(self, qe_qrg):
        g2 = collapse_materialized(qe_qrg, {5}, rel_id=2, exact_card=70)
        assert len(g2.leaves) == 11
        assert sorted(op.label for op in g2.ops.values()) == sorted(
            op.label for op in qe_qrg.ops.values()
        )
        m = [leaf for leaf in g2.leaves.values() if leaf.is_materialized][0]
        assert m.weight == 70.0

    def test_collapse_spanning_regions_contracts(self, qe_qrg):
        arranged = {1, 2, 3, 4, 5, 6, 7, 8, 9}
        g2 = collapse_materialized(qe_qrg, arranged, rel_id=4, exact_card=11)
        # everything mandatory folded: Opt(M, And(T10, T11)) remains
        assert len(g2.leaves) == 3
        kinds = sorted(op.kind for op in g2.ops.values())
        assert kinds == [AND, OPT]

    def test_optional_side_split_rejected(self, qe_qrg):
        with pytest.raises(InvalidCollapse):
            collapse_materialized(qe_qrg, {10}, rel_id=5, exact_card=1)

    def test_optional_side_without_mandatory_rejected(self, qe_qrg):
        with pytest.raises(InvalidCollapse):
            collapse_materialized(qe_qrg, {10, 11}, rel_id=5, exact_card=1)

    def test_empty_collapse_rejected(self, qe_qrg):
        with pytest.raises(InvalidCollapse):
            collapse_materialized(qe_qrg, set(), rel_id=5, exact_card=0)

    def test_pending_filter_survives_collapse(self):
        _q, g = simple_qrg(
            "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . FILTER(?c > 1) }",
            p_counts={"p": 5, "q": 10},
        )
        g2 = collapse_materialized(g, {1}, rel_id=1, exact_card=3)
        all_constraints = [c for op in g2.ops.values() for c in op.constraints]
        assert len(all_constraints) == 1

    def test_applied_filter_dropped_by_collapse(self):
        _q, g = simple_qrg(
            "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . FILTER(?b > 1) }",
            p_counts={"p": 5, "q": 10},
        )
        applied = frozenset(
            c.ordinal for op in g.ops.values() for c in op.constraints
        )
        g2 = collapse_materialized(
            g, {1, 2}, rel_id=1, exact_card=3, applied_constraints=applied
        )
        assert all(not op.constraints for op in g2.ops.values())

    def test_unapplied_filter_kept_even_when_vars_bound(self):
        # the fragment bound ?b but never ran the filter: it must survive
        _q, g = simple_qrg(
            "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . FILTER(?b > 1) }",
            p_counts={"p": 5, "q": 10},
        )
        g2 = collapse_materialized(g, {1, 2}, rel_id=1, exact_card=3)
        kept = [c for op in g2.ops.values() for c in op.constraints]
        assert len(kept) == 1


class TestDot:
    def test_deterministic_and_complete(self, qe_qrg):
        a = render_dot(qe_qrg)
        b = render_dot(qe_qrg)
        assert a == b
        assert a.startswith("digraph")
        for label in ("And1", "And2", "Or1", "Opt1", "T5 (4.2)", "?p1", "C"):
            assert label in a
        # every variable edge labelled with its position
        assert 'v_p1 -> t4 [label="S"];' in a


class TestRandomQueries:
    def test_structure_identities(self):
        rng = random.Random(5)
        shapes = [
            "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . OPTIONAL { ?c <r> ?d . } }",
            "SELECT * WHERE { { ?a <p> ?b . } UNION { ?a <q> ?b . } ?b <r> ?c . }",
            "SELECT * WHERE { ?a <p> ?b . FILTER(?b > 0) { ?b <q> ?c . ?c <s> ?a . } }",
            "SELECT * WHERE { ?x <p> ?y . }",
        ]
        for text in shapes:
            _q, g = simple_qrg(text, p_counts={"p": 3, "q": 4, "r": 5, "s": 6})
            total = sum(len(region_of(g, op_id).members) for op_id in g.ops)
            assert total == len(g.leaves)
