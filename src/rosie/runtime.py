"""Query execution policies: static, eager, and adaptive (rosie).

The adaptive loop walks the planned candidate sequence step by step. Before
appending the next unit it bounds the real cardinality of the extended
prefix; when the adjusted upper error crosses the threshold and no
alternative ordering of the same region looks at least as good, the prefix
is materialized and spliced into the plan: the rest of the plan continues
from a relation leaf that holds the exact intermediate, with the bounds
restarted at its row count. A materialized empty prefix short-circuits the
remaining steps (joins against an empty operand cannot produce rows).

One loop serves all three policies: `static` is the walk that never
materializes, so it executes the initial plan as planned; `eager`
materializes after every join step.

The decision code reads only the query graph: each leaf's estimate and
interval sit on its vertex, computed once per query by `build_qrg`; a
materialized prefix is known by its row count alone. Only execution touches
the dataset.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .estimator import (
    CardinalityInterval,
    adjusted_upper_error,
    classify_join,
    constraint_selectivity,
    estimate_join,
    filter_interval,
    join_interval,
)
from .executor import Deadline, compile_cs, evaluate, execute
from .frontend import AND, FILTER, OPT, OR, Query, query_variables
from .planner import (
    CS,
    CSFilter,
    CSNode,
    LinStep,
    PatternLeaf,
    RelationLeaf,
    cs_leaves,
    cs_to_string,
    linearize,
    plan_cs,
)
# bench/tracing.py rebinds `collapse_materialized` and `plan_cs` in this
# module by name to count their calls, so both names stay bound here,
# although the loop collapses no graph
from .qrg import QRG, LeafVertex, build_qrg, collapse_materialized, region_of  # noqa: F401
from .store import Dataset, Relation, register_intermediate, release_intermediates, resolve

POLICY_KINDS = ("static", "eager", "rosie")


@dataclass(frozen=True)
class Policy:
    kind: str
    tau: float = 8.0
    sigma: float = 0.05

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.kind!r}")
        if not self.tau >= 1.0:  # NaN fails too
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
    if not hasattr(sink, "write"):
        with open(sink, "w", encoding="utf-8") as fh:
            return emit_trace(trace, fh)
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
    json.dump(doc, sink, indent=2)
    sink.write("\n")


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
    """Cumulative bounds/estimate of the executed prefix plus the
    first-seen position of every bound variable, which the next extension
    needs to classify its join."""

    cum: CardinalityInterval
    est: float
    positions: dict[str, str]
    var_order: dict[str, int]

    @classmethod
    def start(cls, profile: UnitProfile, var_order: dict[str, int]) -> "StepState":
        return cls(profile.interval, profile.est, dict(profile.positions), var_order)

    def advance(self, profile: UnitProfile, op: str) -> None:
        self.cum, self.est = extend_state(self, profile, op)
        for var, pos in profile.positions.items():
            self.positions.setdefault(var, pos)

    def apply_filter_step(self, selectivity: float) -> None:
        self.est *= selectivity
        self.cum = filter_interval(self.cum, selectivity)


def _vertex_profile(v: LeafVertex) -> UnitProfile:
    """A leaf's profile: its vertex's interval and weight, and the first
    position of each variable (a synthetic vertex's edges have none)."""
    positions = {var: pos[0] for var, pos in v.var_edges.items() if pos}
    return UnitProfile(v.label, v.interval, v.weight, positions)


def profile_unit(unit: CS, g: QRG, var_order: dict[str, int]) -> UnitProfile:
    """Bounds and estimate of a plan fragment, folded from its leaves'
    vertices. Every estimate is 0 exactly when its interval is empty."""
    if isinstance(unit, (PatternLeaf, RelationLeaf)):
        return _vertex_profile(g.by_label[unit.label])
    if isinstance(unit, CSFilter):
        state = StepState.start(profile_unit(unit.child, g, var_order), var_order)
        state.apply_filter_step(constraint_selectivity(unit.constraint))
        return UnitProfile(cs_to_string(unit), state.cum, state.est, state.positions)
    assert isinstance(unit, CSNode)
    left = profile_unit(unit.left, g, var_order)
    right = profile_unit(unit.right, g, var_order)
    if unit.op == OR:
        # a union holds both sides' rows, whatever the join type
        iv, est = join_interval(left.interval, right.interval, "NONE", OR), left.est + right.est
    else:
        iv, est = extend_state(StepState.start(left, var_order), right, unit.op)
    # a variable keeps its first position, the left side's
    return UnitProfile(cs_to_string(unit), iv, est, {**right.positions, **left.positions})


def extend_state(
    state: StepState, profile: UnitProfile, op: str
) -> tuple[CardinalityInterval, float]:
    """Hypothetical bounds/estimate after joining the next unit."""
    jt, _ = classify_join(state.positions, profile.positions, state.var_order)
    est = estimate_join(state.est, profile.est, jt)
    return (
        join_interval(state.cum, profile.interval, jt, op),
        max(state.est, est) if op == OPT else est,
    )


def should_materialize(
    state: StepState,
    next_profile: UnitProfile,
    alternatives: list[UnitProfile],
    policy: Policy,
    op: str = AND,
) -> bool:
    """Decide whether to evaluate the prefix before taking the next step.

    Under `rosie` the adjusted upper error of the extended prefix must
    exceed tau, and additionally some alternative same-region extension
    must have a strictly lower adjusted upper error; without alternatives
    the threshold decides alone.
    """
    if policy.kind == "static":
        return False
    if policy.kind == "eager":
        return True

    def adjusted_error(profile: UnitProfile) -> Optional[float]:
        bounds, est = extend_state(state, profile, op)
        if est <= 0.0:
            return None
        return adjusted_upper_error(bounds, est, policy.sigma)

    eps_cur = adjusted_error(next_profile)
    if eps_cur is None or eps_cur <= policy.tau:
        return False
    eps_alts = [eps for eps in map(adjusted_error, alternatives) if eps is not None]
    return not eps_alts or eps_cur > min(eps_alts)


# ---------------------------------------------------------------------------
# The control loop
# ---------------------------------------------------------------------------

def run(
    q: Query,
    d: Dataset,
    policy: Policy,
    timeout_ms: Optional[float] = None,
    query_text: str = "",
) -> tuple[Relation, ExecutionTrace]:
    """Evaluate a parsed query under one policy; results are policy-independent.

    The statistics are read, and each pattern is resolved once for every
    plan of the query, before the clock starts, so the one-time builds of
    a fresh dataset count against neither `timeout_ms` nor `total_ms`.
    """
    stats = d.stats
    extents = {tp: resolve(d, tp) for tp in q.patterns}
    deadline = Deadline(timeout_ms)
    trace = ExecutionTrace(query=query_text, policy=policy.kind)
    g = build_qrg(q, stats, d.dict)
    cs = plan_cs(g)
    trace.plans.append(cs_to_string(cs))
    var_order = {v: i for i, v in enumerate(query_variables(q))}

    registered: list[int] = []
    try:
        result = _run_incremental(
            q, d, policy, g, cs, trace, var_order, deadline, registered, extents
        )
    finally:
        # the query's intermediates die with it, however it ended
        release_intermediates(d, registered)

    trace.result_cardinality = result.exact_cardinality
    trace.total_ms = deadline.elapsed_ms()
    return result, trace


def _qrg_ids_of_unit(g: QRG, unit: CS) -> set[int]:
    """Graph vertex ids covered by a plan fragment."""
    return {g.by_label[leaf.label].id for leaf in cs_leaves(unit)}


def _alternatives(g: QRG, unit: CS, consumed: set[int]) -> list[UnitProfile]:
    """Other vertices of the same exchangeable region that are not yet
    `consumed` by the prefix, materialized or not."""
    leaf = unit.child if isinstance(unit, CSFilter) else unit
    if not isinstance(leaf, PatternLeaf):
        return []
    vertex = g.by_label[leaf.label]
    region = region_of(g, vertex.op_id)
    if not region.is_exchangeable(g):
        return []
    return [
        _vertex_profile(g.leaves[member])
        for member in sorted(region.members)
        if member != vertex.id and member not in consumed
    ]


def _run_incremental(
    q: Query,
    d: Dataset,
    policy: Policy,
    g: QRG,
    cs: CS,
    trace: ExecutionTrace,
    var_order: dict[str, int],
    deadline: Deadline,
    registered: list[int],
    extents: dict,
) -> Relation:
    """Walk the plan step by step under any policy (`static` never
    materializes), compiling from the patterns' `extents`; every relation
    id it registers is appended to `registered` for the caller to release."""

    def materialize(prefix: CS) -> tuple[int, int]:
        rel = evaluate(compile_cs(prefix, None, None, d, extents), d, deadline)
        rid = register_intermediate(d, rel)
        registered.append(rid)
        return rid, rel.exact_cardinality

    steps = linearize(cs)
    k = 0
    cs_sub: Optional[CS] = None
    state: Optional[StepState] = None
    consumed: set[int] = set()  # vertex ids of the patterns taken so far
    short_circuited = False

    while k < len(steps):
        deadline.check()
        step_t0 = time.perf_counter()
        step = steps[k]

        if step.op == FILTER:
            assert cs_sub is not None and state is not None
            cs_sub, k = _take_filters(steps, k, cs_sub, state)
            continue

        assert step.unit is not None
        profile = profile_unit(step.unit, g, var_order)

        # counted before it is taken: a step is never its own alternative
        consumed |= _qrg_ids_of_unit(g, step.unit)
        if cs_sub is None or state is None:
            cs_sub = step.unit
            state = StepState.start(profile, var_order)
            _record(trace, policy, profile.label, state, decision="continue", t0=step_t0)
            k += 1
            continue

        # Decide before appending. Rosie never splits at a left-outer-join
        # boundary and never re-materializes a lone materialized leaf
        # (nothing new to learn); eager materializes everywhere.
        op = step.op or AND
        if policy.kind == "rosie":
            materialize_now = (
                op != OPT
                and not isinstance(cs_sub, RelationLeaf)
                and should_materialize(
                    state, profile, _alternatives(g, step.unit, consumed), policy, op,
                )
            )
        else:
            materialize_now = should_materialize(state, profile, [], policy, op)

        if materialize_now:
            label = None
            if policy.kind == "eager":
                # eager takes the step first, then evaluates the extended
                # prefix; filters placed directly after the step belong to it
                cs_sub = CSNode(op, cs_sub, step.unit)
                state.advance(profile, op)
                label = profile.label
                cs_sub, k = _take_filters(steps, k + 1, cs_sub, state)
            rid, card = materialize(cs_sub)
            # recorded from the estimate that led here, before the splice
            _record(trace, policy, label or f"R{rid}", state,
                    decision="materialize", actual=card, t0=step_t0)
            cs_sub = RelationLeaf(rid)
            if card == 0:
                # annihilation: an empty prefix cannot produce result rows
                short_circuited = True
                break
            # the rest of the plan continues from the intermediate, whose
            # bounds are its exact row count
            steps = [LinStep(None, cs_sub), *steps[k:]]
            trace.plans.append(cs_to_string(_fold(steps)))
            point = CardinalityInterval.point(float(card))
            state = StepState(point, float(card), state.positions, var_order)
            if policy.kind == "eager":
                _record(trace, policy, f"R{rid}", state, decision="continue", t0=step_t0)
            k = 1
            continue

        cs_sub = CSNode(op, cs_sub, step.unit)
        state.advance(profile, op)
        _record(trace, policy, profile.label, state, decision="continue", t0=step_t0)
        k += 1

    assert cs_sub is not None
    plan = compile_cs(cs_sub, q.projection, q.modifiers, d, extents)
    result = execute(plan, d, deadline)
    if short_circuited:
        assert result.exact_cardinality == 0
    return result


def _take_filters(steps: list, k: int, cs_sub: CS, state: StepState) -> tuple[CS, int]:
    """The prefix with the FILTER steps from step `k` on applied, and the
    index of the first step after them; `state` takes their selectivity."""
    while k < len(steps) and steps[k].op == FILTER:
        filtered = steps[k].constraint
        assert filtered is not None
        cs_sub = CSFilter(cs_sub, filtered.constraint, filtered.label)
        state.apply_filter_step(constraint_selectivity(filtered.constraint))
        k += 1
    return cs_sub, k


def _fold(steps: list[LinStep]) -> CS:
    """The plan whose linearization is `steps`."""
    cs = steps[0].unit
    assert cs is not None
    for step in steps[1:]:
        if step.op == FILTER:
            assert step.constraint is not None
            cs = CSFilter(cs, step.constraint.constraint, step.constraint.label)
        else:
            assert step.op is not None and step.unit is not None
            cs = CSNode(step.op, cs, step.unit)
    return cs


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
