"""Query execution policies: static, eager, and adaptive (rosie).

The adaptive loop walks the planned candidate sequence step by step. Before
appending the next unit it bounds the real cardinality of the extended
prefix; when the adjusted upper error crosses the threshold and no
alternative ordering of the same region looks at least as good, the prefix
is materialized, the graph collapses around the exact intermediate, and
planning restarts from it. A materialized empty prefix short-circuits the
remaining steps (joins against an empty operand cannot produce rows).

`static` runs the initial plan unmodified; `eager` materializes after every
join step.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import QueryTimeout
from .estimator import (
    CardinalityInterval,
    adjusted_upper_error,
    check_error_condition,
    classify_join,
    constraint_selectivity,
    estimate_join,
    estimate_tp,
    join_selectivity_bounds,
    tp_bounds,
    tp_positions,
    FILTER_ERROR_HI,
    FILTER_ERROR_LO,
)
from .executor import compile_cs, execute
from .frontend import AND, FILTER, OPT, OR, Query, query_variables
from .planner import (
    CS,
    CSFilter,
    CSNode,
    PatternLeaf,
    RelationLeaf,
    cs_to_string,
    linearize,
    plan_cs,
)
from .qrg import QRG, build_qrg, collapse_materialized, region_of
from .store import Dataset, Relation, register_intermediate, release_intermediates

POLICY_KINDS = ("static", "eager", "rosie")


@dataclass(frozen=True)
class Policy:
    kind: str
    tau: float = 8.0
    sigma: float = 0.05

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.tau < 1.0:
            raise ValueError("tau must be >= 1")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must be in (0, 1]")


@dataclass
class StepRecord:
    idx: int
    leaf: str
    est: float
    lo: float
    hi: float
    hi_adj: float
    decision: str  # continue | materialize
    actual: Optional[int] = None
    ms: float = 0.0


@dataclass
class ExecutionTrace:
    query: str
    policy: str
    steps: list[StepRecord] = field(default_factory=list)
    result_cardinality: int = 0
    total_ms: float = 0.0
    plans: list[str] = field(default_factory=list)

    def materialization_count(self) -> int:
        return sum(1 for s in self.steps if s.decision == "materialize")


def emit_trace(trace: ExecutionTrace, sink) -> None:
    """Write the trace as one JSON document to a path or file object."""
    doc = {
        "query": trace.query,
        "policy": trace.policy,
        "steps": [
            {
                "idx": s.idx,
                "leaf": s.leaf,
                "est": s.est,
                "lo": s.lo,
                "hi": s.hi,
                "hi_adj": s.hi_adj,
                "decision": s.decision,
                **({"actual": s.actual} if s.actual is not None else {}),
                "ms": round(s.ms, 3),
            }
            for s in trace.steps
        ],
        "result_cardinality": trace.result_cardinality,
        "total_ms": round(trace.total_ms, 3),
    }
    if hasattr(sink, "write"):
        json.dump(doc, sink, indent=2)
        sink.write("\n")
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Step profiling: intervals and point estimates for plan fragments
# ---------------------------------------------------------------------------

@dataclass
class UnitProfile:
    label: str
    interval: CardinalityInterval
    est: float
    positions: dict[str, str]


@dataclass
class StepState:
    """Cumulative bounds/estimate of the executed prefix plus the pieces the
    next extension needs: the previous unit's interval (pairwise join
    selectivities) and the first-seen position of every bound variable."""

    cum: CardinalityInterval
    est: float
    prev: CardinalityInterval
    positions: dict[str, str]
    var_order: dict[str, int]

    @classmethod
    def start(cls, profile: UnitProfile, var_order: dict[str, int]) -> "StepState":
        return cls(profile.interval, profile.est, profile.interval,
                   dict(profile.positions), var_order)

    def advance(self, profile: UnitProfile, op: str) -> None:
        self.cum, self.est, _ = extend_state(self, profile, op)
        self.prev = profile.interval
        for var, pos in profile.positions.items():
            self.positions.setdefault(var, pos)

    def apply_filter_step(self, selectivity: float) -> None:
        self.est *= selectivity
        lo = max(1.0, self.cum.lo * selectivity * FILTER_ERROR_LO)
        hi = max(lo, self.cum.hi * min(1.0, selectivity * FILTER_ERROR_HI))
        if self.cum.is_empty:
            lo, hi = 0.0, 0.0
        self.cum = CardinalityInterval(lo, hi)


def _contains_fn(d: Dataset):
    def contains(s: str, p: str, o: str) -> bool:
        sid, pid, oid = d.dict.lookup(s), d.dict.lookup(p), d.dict.lookup(o)
        if sid is None or pid is None or oid is None:
            return False
        return d.has_triple(sid, pid, oid)

    return contains


def profile_unit(unit: CS, d: Dataset, var_order: dict[str, int]) -> UnitProfile:
    if isinstance(unit, PatternLeaf):
        iv = tp_bounds(unit.tp, d.stats, d.dict, _contains_fn(d))
        est = estimate_tp(unit.tp, d.stats, d.dict)
        return UnitProfile(unit.label, iv, est, tp_positions(unit.tp))
    if isinstance(unit, RelationLeaf):
        card = float(d.intermediates[unit.rel_id].exact_cardinality)
        return UnitProfile(unit.label, CardinalityInterval.point(card), card, {})
    if isinstance(unit, CSFilter):
        child = profile_unit(unit.child, d, var_order)
        sel = constraint_selectivity(unit.constraint)
        if child.interval.is_empty:
            return UnitProfile(cs_to_string(unit), child.interval, 0.0, child.positions)
        lo = max(1.0, child.interval.lo * sel * FILTER_ERROR_LO)
        hi = max(lo, child.interval.hi * min(1.0, sel * FILTER_ERROR_HI))
        return UnitProfile(
            cs_to_string(unit), CardinalityInterval(lo, hi),
            child.est * sel, child.positions,
        )
    assert isinstance(unit, CSNode)
    left = profile_unit(unit.left, d, var_order)
    right = profile_unit(unit.right, d, var_order)
    positions = dict(left.positions)
    for var, pos in right.positions.items():
        positions.setdefault(var, pos)
    if unit.op == OR:
        iv = CardinalityInterval(
            left.interval.lo + right.interval.lo,
            left.interval.hi + right.interval.hi,
        )
        return UnitProfile(cs_to_string(unit), iv, left.est + right.est, positions)
    jt, _ = classify_join(left.positions, right.positions, var_order)
    if unit.op == OPT:
        joined = estimate_join(left.est, right.est, jt)
        hi = left.interval.hi * right.interval.hi + left.interval.hi
        iv = CardinalityInterval(left.interval.lo, hi)
        return UnitProfile(cs_to_string(unit), iv, max(left.est, joined), positions)
    # nested And subtree
    if left.interval.is_empty or right.interval.is_empty:
        return UnitProfile(cs_to_string(unit), CardinalityInterval(0.0, 0.0), 0.0, positions)
    sel_lo, sel_hi = join_selectivity_bounds(
        jt, max(left.interval.hi, 1.0), max(right.interval.hi, 1.0)
    )
    iv = CardinalityInterval(
        max(1.0, left.interval.lo * right.interval.lo * sel_lo),
        left.interval.hi * right.interval.hi * sel_hi,
    )
    return UnitProfile(
        cs_to_string(unit), iv, estimate_join(left.est, right.est, jt), positions
    )


def extend_state(
    state: StepState, profile: UnitProfile, op: str
) -> tuple[CardinalityInterval, float, str]:
    """Hypothetical bounds/estimate after joining the next unit."""
    jt, _ = classify_join(state.positions, profile.positions, state.var_order)
    if state.cum.is_empty or profile.interval.is_empty:
        if op == OPT and not state.cum.is_empty:
            return state.cum, state.est, jt
        return CardinalityInterval(0.0, 0.0), 0.0, jt
    if op == OPT:
        hi = state.cum.hi * profile.interval.hi + state.cum.hi
        iv = CardinalityInterval(state.cum.lo, hi)
        est = max(state.est, estimate_join(state.est, profile.est, jt))
        return iv, est, jt
    sel_lo, sel_hi = join_selectivity_bounds(
        jt, max(state.cum.hi, 1.0), max(profile.interval.hi, 1.0)
    )
    iv = CardinalityInterval(
        max(1.0, state.cum.lo * profile.interval.lo * sel_lo),
        state.cum.hi * profile.interval.hi * sel_hi,
    )
    return iv, estimate_join(state.est, profile.est, jt), jt


def should_materialize(
    state: StepState,
    next_profile: UnitProfile,
    alternatives: list[UnitProfile],
    policy: Policy,
    op: str = AND,
) -> bool:
    """Decide whether to evaluate the prefix before taking the next step.

    Under `rosie` the adjusted upper error of the extended prefix must
    exceed tau, and additionally no alternative same-region extension may
    look at least as good; without alternatives the threshold decides alone.
    """
    if policy.kind == "static":
        return False
    if policy.kind == "eager":
        return True
    bounds_next, est_next, _ = extend_state(state, next_profile, op)
    if est_next <= 0.0 or bounds_next.is_empty:
        return False
    eps_cur = adjusted_upper_error(bounds_next, est_next, policy.sigma)
    if eps_cur <= policy.tau:
        return False
    best: Optional[tuple[CardinalityInterval, float]] = None
    best_eps = None
    for alt in alternatives:
        b, e, _ = extend_state(state, alt, op)
        if e <= 0.0 or b.is_empty:
            continue
        eps = adjusted_upper_error(b, e, policy.sigma)
        if best_eps is None or eps < best_eps:
            best, best_eps = (b, e), eps
    if best is None:
        return True
    return not check_error_condition(bounds_next, est_next, best[0], best[1], policy.sigma)


# ---------------------------------------------------------------------------
# The control loop
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self, timeout_ms: Optional[float]):
        self.t0 = time.perf_counter()
        self.timeout_ms = timeout_ms
        self.deadline = (
            time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None
        )

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout(self.timeout_ms or 0.0)

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0


def run(
    q: Query,
    d: Dataset,
    policy: Policy,
    timeout_ms: Optional[float] = None,
    query_text: str = "",
) -> tuple[Relation, ExecutionTrace]:
    """Evaluate a parsed query under one policy; results are policy-independent."""
    clock = _Clock(timeout_ms)
    trace = ExecutionTrace(query=query_text, policy=policy.kind)
    g = build_qrg(q, d.stats, d.dict)
    cs = plan_cs(g)
    trace.plans.append(cs_to_string(cs))
    var_order = {v: i for i, v in enumerate(query_variables(q))}

    if policy.kind == "static":
        _record_static_steps(trace, cs, d, var_order, policy)
        plan = compile_cs(cs, q.projection, q.modifiers, d)
        result = execute(plan, d, clock.deadline, timeout_ms)
    else:
        registered: list[int] = []
        try:
            result = _run_incremental(
                q, d, policy, g, cs, trace, var_order, clock, registered
            )
        finally:
            # the query's intermediates die with it, however it ended
            release_intermediates(d, registered)

    trace.result_cardinality = result.exact_cardinality
    trace.total_ms = clock.elapsed_ms()
    return result, trace


def _record_static_steps(
    trace: ExecutionTrace,
    cs: CS,
    d: Dataset,
    var_order: dict[str, int],
    policy: Policy,
) -> None:
    state: Optional[StepState] = None
    for step in linearize(cs):
        if step.op == FILTER:
            assert step.constraint is not None
            if state is not None:
                state.apply_filter_step(constraint_selectivity(step.constraint.constraint))
            continue
        assert step.unit is not None
        profile = profile_unit(step.unit, d, var_order)
        if state is None:
            state = StepState.start(profile, var_order)
        else:
            state.advance(profile, step.op or AND)
        trace.steps.append(
            StepRecord(
                idx=len(trace.steps) + 1,
                leaf=profile.label,
                est=state.est,
                lo=state.cum.lo,
                hi=state.cum.hi,
                hi_adj=max(state.cum.lo, policy.sigma * state.cum.hi),
                decision="continue",
            )
        )


def _applied_constraint_ordinals(unit: CS) -> set[int]:
    if isinstance(unit, CSFilter):
        return {unit.constraint.ordinal} | _applied_constraint_ordinals(unit.child)
    if isinstance(unit, CSNode):
        return _applied_constraint_ordinals(unit.left) | _applied_constraint_ordinals(unit.right)
    return set()


def _leaf_pattern_ids(unit: CS) -> set[int]:
    from .planner import cs_leaves

    out: set[int] = set()
    for leaf in cs_leaves(unit):
        if isinstance(leaf, PatternLeaf):
            out.add(leaf.tp.id)
    return out


def _qrg_ids_of_unit(g: QRG, unit: CS) -> set[int]:
    """Graph vertex ids covered by a plan fragment (patterns keep their tp
    ids; a relation leaf maps to its synthetic vertex)."""
    from .planner import cs_leaves

    out: set[int] = set()
    rel_by_id = {
        leaf.rel_id: lid for lid, leaf in g.leaves.items() if leaf.is_materialized
    }
    for leaf in cs_leaves(unit):
        if isinstance(leaf, PatternLeaf):
            out.add(leaf.tp.id)
        else:
            out.add(rel_by_id[leaf.rel_id])
    return out


def _alternatives(
    g: QRG, unit: CS, consumed: set[int], d: Dataset, var_order: dict[str, int]
) -> list[UnitProfile]:
    """Other unconsumed patterns of the same exchangeable region."""
    leaf: Optional[PatternLeaf] = None
    if isinstance(unit, PatternLeaf):
        leaf = unit
    elif isinstance(unit, CSFilter) and isinstance(unit.child, PatternLeaf):
        leaf = unit.child
    if leaf is None or leaf.tp.id not in g.leaves:
        return []
    vertex = g.leaves[leaf.tp.id]
    region = region_of(g, vertex.op_id)
    if not region.is_exchangeable(g):
        return []
    out = []
    for member in sorted(region.members):
        if member == leaf.tp.id or member in consumed:
            continue
        member_leaf = g.leaves[member]
        if member_leaf.is_materialized:
            continue
        out.append(profile_unit(PatternLeaf(member_leaf.tp), d, var_order))
    return out


def _run_incremental(
    q: Query,
    d: Dataset,
    policy: Policy,
    g: QRG,
    cs: CS,
    trace: ExecutionTrace,
    var_order: dict[str, int],
    clock: _Clock,
    registered: list[int],
) -> Relation:
    """Walk the plan under `eager` or `rosie`; every relation id it
    registers is appended to `registered` for the caller to release."""

    def materialize(prefix: CS) -> tuple[int, int]:
        rel = execute(
            compile_cs(prefix, None, None, d), d, clock.deadline, clock.timeout_ms
        )
        rid = register_intermediate(d, rel)
        registered.append(rid)
        return rid, rel.exact_cardinality

    steps = linearize(cs)
    k = 0
    cs_sub: Optional[CS] = None
    state: Optional[StepState] = None
    consumed: set[int] = set()
    short_circuited = False

    while k < len(steps):
        clock.check()
        step_t0 = time.perf_counter()
        step = steps[k]

        if step.op == FILTER:
            assert step.constraint is not None and cs_sub is not None and state is not None
            cs_sub = CSFilter(cs_sub, step.constraint.constraint, step.constraint.label)
            state.apply_filter_step(constraint_selectivity(step.constraint.constraint))
            k += 1
            continue

        assert step.unit is not None
        profile = profile_unit(step.unit, d, var_order)

        if cs_sub is None or state is None:
            cs_sub = step.unit
            state = StepState.start(profile, var_order)
            consumed |= _leaf_pattern_ids(step.unit)
            _record(trace, policy, profile.label, state, decision="continue", t0=step_t0)
            k += 1
            continue

        # Decide before appending; a lone materialized leaf is never
        # re-materialized (nothing new to learn). Rosie never splits at a
        # left-outer-join boundary; eager materializes everywhere.
        alts = _alternatives(g, step.unit, consumed, d, var_order)
        op = step.op or AND
        materialize_now = (
            (op != OPT or policy.kind == "eager")
            and not (isinstance(cs_sub, RelationLeaf) and policy.kind == "rosie")
            and should_materialize(state, profile, alts, policy, op)
        )

        if materialize_now:
            label = None
            if policy.kind == "eager":
                # eager takes the step first, then evaluates the extended
                # prefix; filters placed directly after the step belong to it
                cs_sub = CSNode(op, cs_sub, step.unit)
                state.advance(profile, op)
                consumed |= _leaf_pattern_ids(step.unit)
                label = profile.label
                k += 1
                while k < len(steps) and steps[k].op == FILTER:
                    trailing = steps[k].constraint
                    assert trailing is not None
                    cs_sub = CSFilter(cs_sub, trailing.constraint, trailing.label)
                    state.apply_filter_step(constraint_selectivity(trailing.constraint))
                    k += 1
            rid, card = materialize(cs_sub)
            # recorded from the estimate that led here, before the restart
            _record(trace, policy, label or f"R{rid}", state,
                    decision="materialize", actual=card, t0=step_t0)
            if card == 0:
                # annihilation: an empty prefix cannot produce result rows
                cs_sub = RelationLeaf(rid)
                short_circuited = True
                break
            g, cs, steps, cs_sub, state = _restart_from(
                g, d, rid, card, cs_sub, state, var_order, trace
            )
            if policy.kind == "eager":
                _record(trace, policy, f"R{rid}", state, decision="continue", t0=step_t0)
            k = 1
            continue

        cs_sub = CSNode(op, cs_sub, step.unit)
        state.advance(profile, op)
        consumed |= _leaf_pattern_ids(step.unit)
        _record(trace, policy, profile.label, state, decision="continue", t0=step_t0)
        k += 1

    assert cs_sub is not None
    plan = compile_cs(cs_sub, q.projection, q.modifiers, d)
    result = execute(plan, d, clock.deadline, clock.timeout_ms)
    if short_circuited:
        assert result.exact_cardinality == 0
    return result


def _restart_from(
    g: QRG,
    d: Dataset,
    rid: int,
    card: int,
    cs_sub: CS,
    state: StepState,
    var_order: dict[str, int],
    trace: ExecutionTrace,
):
    """Collapse the graph around the materialized prefix and re-plan."""
    arranged = _qrg_ids_of_unit(g, cs_sub)
    applied = frozenset(_applied_constraint_ordinals(cs_sub))
    g = collapse_materialized(g, arranged, rid, card, applied)
    cs = plan_cs(g)
    trace.plans.append(cs_to_string(cs))
    steps = linearize(cs)
    first = steps[0]
    assert first.unit is not None and isinstance(first.unit, RelationLeaf)
    profile = profile_unit(first.unit, d, var_order)
    positions = state.positions
    new_state = StepState.start(profile, var_order)
    new_state.positions = positions
    return g, cs, steps, first.unit, new_state


def _record(
    trace: ExecutionTrace,
    policy: Policy,
    leaf: str,
    state: StepState,
    decision: str,
    t0: float,
    actual: Optional[int] = None,
) -> None:
    trace.steps.append(
        StepRecord(
            idx=len(trace.steps) + 1,
            leaf=leaf,
            est=state.est,
            lo=state.cum.lo,
            hi=state.cum.hi,
            hi_adj=max(state.cum.lo, policy.sigma * state.cum.hi),
            decision=decision,
            actual=actual,
            ms=(time.perf_counter() - t0) * 1000.0,
        )
    )
