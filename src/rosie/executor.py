"""Physical plan compilation and bag-semantics evaluation.

A candidate sequence maps directly onto physical operators: joins for And,
a padded-schema union for Or, a left outer join for Opt, row filters for
constraints. Rows are tuples over an ordered variable schema with None for
unbound cells; join matching follows solution-mapping compatibility, so an
unbound shared variable matches anything and adopts the other side's value.

Each operator works out its column positions once per evaluation (key and
merge `itemgetter`s, pad layouts, compiled filter tests) and then runs a
tight loop over its rows. Joins whose keys are bound on both sides take a
hash path with no per-row branching; only rows with an unbound key cell
go through the pairwise compatibility check.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from itertools import compress
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Callable, Optional, Union

from .errors import QueryTimeout, UnresolvedLeaf
from .frontend import AND, OPT, OR, Constraint, FilterExpr, Modifiers, TriplePattern
from .planner import CS, CSFilter, CSNode, PatternLeaf, RelationLeaf
from .store import Dataset, Relation, lexical_form, pattern_schema, scan

log = logging.getLogger(__name__)

_TIMEOUT_CHECK_EVERY = 4096


@dataclass
class Scan:
    tp: TriplePattern
    schema: tuple[str, ...]


@dataclass
class FetchIntermediate:
    rel_id: int
    schema: tuple[str, ...]


@dataclass
class HashJoin:
    left: "PhysicalPlan"
    right: "PhysicalPlan"
    shared: tuple[str, ...]
    schema: tuple[str, ...]


@dataclass
class LeftOuterJoin:
    left: "PhysicalPlan"
    right: "PhysicalPlan"
    shared: tuple[str, ...]
    schema: tuple[str, ...]


@dataclass
class UnionOp:
    left: "PhysicalPlan"
    right: "PhysicalPlan"
    schema: tuple[str, ...]


@dataclass
class FilterOp:
    child: "PhysicalPlan"
    constraint: Constraint
    schema: tuple[str, ...]


@dataclass
class Project:
    child: "PhysicalPlan"
    schema: tuple[str, ...]


@dataclass
class Distinct:
    child: "PhysicalPlan"
    schema: tuple[str, ...]


@dataclass
class Sort:
    child: "PhysicalPlan"
    keys: tuple[tuple[str, bool], ...]
    schema: tuple[str, ...]


@dataclass
class Slice:
    child: "PhysicalPlan"
    limit: Optional[int]
    offset: Optional[int]
    schema: tuple[str, ...]


PhysicalPlan = Union[
    Scan, FetchIntermediate, HashJoin, LeftOuterJoin, UnionOp, FilterOp,
    Project, Distinct, Sort, Slice,
]


def _merged_schema(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    return left + tuple(v for v in right if v not in left)


def compile_cs(
    cs: CS,
    projection: Optional[list[str]],
    modifiers: Optional[Modifiers],
    d: Dataset,
) -> PhysicalPlan:
    """Lower a candidate sequence to a physical operator tree.

    Projection/modifiers may be None to compile a bare fragment (used when
    materializing partial results mid-query).
    """
    plan = _compile_node(cs, d)
    if modifiers and modifiers.order_by:
        plan = Sort(plan, modifiers.order_by, plan.schema)
    if projection is not None:
        plan = Project(plan, tuple(projection))
    if modifiers and modifiers.distinct:
        plan = Distinct(plan, plan.schema)
    if modifiers and (modifiers.limit is not None or modifiers.offset is not None):
        plan = Slice(plan, modifiers.limit, modifiers.offset, plan.schema)
    return plan


def _compile_node(cs: CS, d: Dataset) -> PhysicalPlan:
    if isinstance(cs, PatternLeaf):
        return Scan(cs.tp, pattern_schema(cs.tp))
    if isinstance(cs, RelationLeaf):
        rel = d.intermediates.get(cs.rel_id)
        if rel is None:
            raise UnresolvedLeaf(f"intermediate R{cs.rel_id} is not registered")
        return FetchIntermediate(cs.rel_id, rel.schema)
    if isinstance(cs, CSFilter):
        child = _compile_node(cs.child, d)
        return FilterOp(child, cs.constraint, child.schema)
    assert isinstance(cs, CSNode)
    left = _compile_node(cs.left, d)
    right = _compile_node(cs.right, d)
    schema = _merged_schema(left.schema, right.schema)
    shared = tuple(v for v in left.schema if v in right.schema)
    if cs.op == AND:
        return HashJoin(left, right, shared, schema)
    if cs.op == OPT:
        return LeftOuterJoin(left, right, shared, schema)
    assert cs.op == OR
    return UnionOp(left, right, schema)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _Budget:
    def __init__(self, deadline: Optional[float], budget_ms: Optional[float] = None):
        self.deadline = deadline
        self.budget_ms = budget_ms or 0.0
        self._tick = 0

    def check(self, amount: int = 1) -> None:
        if self.deadline is None:
            return
        self._tick += amount
        if self._tick >= _TIMEOUT_CHECK_EVERY:
            self._tick = 0
            if time.monotonic() > self.deadline:
                raise QueryTimeout(self.budget_ms)


def execute(
    plan: PhysicalPlan,
    d: Dataset,
    deadline: Optional[float] = None,
    budget_ms: Optional[float] = None,
) -> Relation:
    """Evaluate a plan to a relation (a bag; row order is deterministic)."""
    budget = _Budget(deadline, budget_ms)
    rows = _eval(plan, d, budget)
    return Relation(plan.schema, rows)


def _eval(plan: PhysicalPlan, d: Dataset, budget: _Budget) -> list[tuple]:
    if isinstance(plan, Scan):
        budget.check(_TIMEOUT_CHECK_EVERY)
        return scan(d, plan.tp).rows
    if isinstance(plan, FetchIntermediate):
        rel = d.intermediates.get(plan.rel_id)
        if rel is None:
            raise UnresolvedLeaf(f"intermediate R{plan.rel_id} is not registered")
        return rel.rows
    if isinstance(plan, (HashJoin, LeftOuterJoin)):
        left_rows = _eval(plan.left, d, budget)
        right_rows = _eval(plan.right, d, budget)
        return _join(
            left_rows, plan.left.schema, right_rows, plan.right.schema,
            plan.shared, plan.schema, isinstance(plan, LeftOuterJoin), budget,
        )
    if isinstance(plan, UnionOp):
        left_rows = _eval(plan.left, d, budget)
        right_rows = _eval(plan.right, d, budget)
        out = _relayout(left_rows, plan.left.schema, plan.schema)
        out += _relayout(right_rows, plan.right.schema, plan.schema)
        return out
    if isinstance(plan, FilterOp):
        rows = _eval(plan.child, d, budget)
        budget.check(len(rows))
        return _filter_rows(rows, plan.child.schema, plan.constraint, d)
    if isinstance(plan, Project):
        return _relayout(_eval(plan.child, d, budget), plan.child.schema, plan.schema)
    if isinstance(plan, Distinct):
        return list(dict.fromkeys(_eval(plan.child, d, budget)))
    if isinstance(plan, Sort):
        child_rows = _eval(plan.child, d, budget)
        schema = plan.child.schema
        rows = list(child_rows)
        keys: dict = {}  # term id -> sort key, shared by every key pass
        for var, ascending in reversed(plan.keys):
            col = schema.index(var)
            for tid in {row[col] for row in rows}.difference(keys):
                keys[tid] = _sort_key(tid, d)
            rows.sort(key=lambda r: keys[r[col]], reverse=not ascending)
        return rows
    if isinstance(plan, Slice):
        child_rows = _eval(plan.child, d, budget)
        start = plan.offset or 0
        end = None if plan.limit is None else start + plan.limit
        return child_rows[start:end]
    raise TypeError(f"unknown plan node {plan!r}")


def _tuple_getter(idx: list[int]):
    """A callable picking `idx` from a sequence, always as a tuple."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda row: (row[i],)
    return lambda row: ()


def _relayout(
    rows: list[tuple], schema: tuple[str, ...], out_schema: tuple[str, ...]
) -> list[tuple]:
    """A new list of the rows laid out over `out_schema`; a variable that
    `schema` lacks is unbound."""
    # a missing variable points one past the row, at a None appended to it
    idx = [schema.index(v) if v in schema else len(schema) for v in out_schema]
    pick = _tuple_getter(idx)
    if len(schema) in idx:
        return [pick(row + (None,)) for row in rows]
    return list(map(pick, rows))


def _sort_key(cell, d: Dataset):
    """Unbound first, then numerics by value, then strings by codepoint."""
    if cell is None:
        return (0, 0.0, "")
    lexical = lexical_form(d.dict.decode(cell))
    try:
        return (1, float(lexical), lexical)
    except ValueError:
        return (2, 0.0, lexical)


def _join(
    left_rows: list[tuple],
    left_schema: tuple[str, ...],
    right_rows: list[tuple],
    right_schema: tuple[str, ...],
    shared: tuple[str, ...],
    out_schema: tuple[str, ...],
    outer: bool,
    budget: _Budget,
) -> list[tuple]:
    """Compatibility join. Rows whose shared variables are all bound go
    through a hash table; rows with unbound shared cells ("wild" rows) are
    compared pairwise (they are compatible with anything at those
    positions). Output follows the probe (left) rows, each one's matches in
    right-row order, bucket matches before wild ones."""
    if not outer and shared and len(left_rows) <= len(right_rows):
        # smaller (or tied) side builds the hash table
        left_rows, right_rows = right_rows, left_rows
        left_schema, right_schema = right_schema, left_schema

    # compiled once: the merged row of `lrow + rrow`, shared cells taken
    # from the left, which is exact whenever the left key is bound; an
    # all-unbound right row turns it into the outer join's padded row
    n_left = len(left_schema)
    merged = _tuple_getter([
        left_schema.index(v) if v in left_schema else n_left + right_schema.index(v)
        for v in out_schema
    ])
    unmatched = ((None,) * len(right_schema),) if outer else ()
    out: list[tuple] = []

    if not shared:
        matches = right_rows or unmatched
        for lrow in left_rows:
            budget.check(max(1, len(right_rows)))
            out += [merged(lrow + rrow) for rrow in matches]
        return out

    left_idx = [left_schema.index(v) for v in shared]
    right_idx = [right_schema.index(v) for v in shared]
    # one shared variable: the key is the cell itself, else a tuple
    left_keys = list(map(itemgetter(*left_idx), left_rows))
    right_keys = list(map(itemgetter(*right_idx), right_rows))
    if len(shared) == 1:
        left_wild, right_wild = None in left_keys, None in right_keys
    else:
        left_wild = any(map(_has_unbound, left_keys))
        right_wild = any(map(_has_unbound, right_keys))

    buckets: dict = {}
    wild: list[tuple] = []
    for key, rrow in zip(right_keys, right_rows):
        if right_wild and _has_unbound(key):
            wild.append(rrow)
        elif key in buckets:
            buckets[key].append(rrow)
        else:
            buckets[key] = [rrow]
    get = buckets.get

    if not (left_wild or right_wild):
        # every key bound on both sides: a tight loop over probe chunks,
        # each producing about _TIMEOUT_CHECK_EVERY rows at most; an inner
        # join first drops the probe rows without a partner
        if not outer:
            found = list(map(buckets.__contains__, left_keys))
            left_rows = list(compress(left_rows, found))
            left_keys = list(compress(left_keys, found))
        widest = max(map(len, buckets.values()), default=1)
        chunk = max(1, _TIMEOUT_CHECK_EVERY // widest)
        for start in range(0, len(left_rows), chunk):
            budget.check(_TIMEOUT_CHECK_EVERY)
            end = start + chunk
            out += [
                merged(lrow + rrow)
                for lrow, key in zip(left_rows[start:end], left_keys[start:end])
                for rrow in get(key, unmatched)
            ]
        return out

    merge_plan = _merge_plan(left_schema, right_schema, out_schema)
    for lrow, key in zip(left_rows, left_keys):
        if _has_unbound(key):
            budget.check(1 + len(right_rows))
            matches = [
                _merge(lrow, rrow, merge_plan)
                for rrow in right_rows
                if _compatible(lrow, left_idx, rrow, right_idx)
            ]
        else:
            bucket = get(key, ())
            budget.check(1 + len(bucket) + len(wild))
            matches = [merged(lrow + rrow) for rrow in bucket]
            matches += [
                merged(lrow + rrow)
                for rrow in wild
                if _compatible(lrow, left_idx, rrow, right_idx)
            ]
        out += matches or [merged(lrow + pad) for pad in unmatched]
    return out


def _has_unbound(key) -> bool:
    """A join key with an unbound cell: None itself or a tuple holding one."""
    return key is None or (type(key) is tuple and None in key)


def _compatible(lrow: tuple, left_idx: list[int], rrow: tuple, right_idx: list[int]) -> bool:
    for li, ri in zip(left_idx, right_idx):
        lv, rv = lrow[li], rrow[ri]
        if lv is not None and rv is not None and lv != rv:
            return False
    return True


def _merge_plan(
    left_schema: tuple[str, ...],
    right_schema: tuple[str, ...],
    out_schema: tuple[str, ...],
) -> list[tuple[Optional[int], Optional[int]]]:
    """For each output variable, its left and right column (None if absent)."""
    return [
        (
            left_schema.index(v) if v in left_schema else None,
            right_schema.index(v) if v in right_schema else None,
        )
        for v in out_schema
    ]


def _merge(lrow: tuple, rrow: tuple, plan) -> tuple:
    """Merge two compatible rows: the left value unless it is unbound."""
    out = []
    for li, ri in plan:
        value = None if li is None else lrow[li]
        if value is None and ri is not None:
            value = rrow[ri]
        out.append(value)
    return tuple(out)


# ---------------------------------------------------------------------------
# Filter evaluation
# ---------------------------------------------------------------------------

_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _filter_rows(
    rows: list[tuple], schema: tuple[str, ...], constraint: Constraint, d: Dataset
) -> list[tuple]:
    """Rows satisfying every expression of a constraint, in input order.

    Each expression is compiled once and decided once per distinct term id
    in its variable's column; no other column is decoded.
    """
    for expr in constraint.exprs:
        if not rows:
            break
        if expr.var not in schema:
            return []  # unbound in every row
        col = schema.index(expr.var)
        holds = _compile_filter(expr)
        verdict = {
            tid: tid is not None and holds(lexical_form(d.dict.decode(tid)))
            for tid in {row[col] for row in rows}
        }
        rows = [row for row in rows if verdict[row[col]]]
    return rows


def _compile_filter(expr: FilterExpr) -> Callable[[str], bool]:
    """Compile one atomic filter to a test on a term's lexical form.

    Numeric comparison applies when both sides parse as numbers, else
    codepoint comparison of the lexical forms. An invalid regex or unknown
    operator logs one warning here and yields a test that drops every row.
    """
    if expr.op == "regex":
        flags = re.IGNORECASE if "i" in expr.flags else 0
        try:
            search = re.compile(expr.operand, flags).search
        except re.error as exc:
            log.warning("regex filter failed (%s); dropping rows", exc)
            return lambda lexical: False
        return lambda lexical: search(lexical) is not None

    compare = _COMPARE.get(expr.op)
    if compare is None:
        log.warning("unknown filter operator %r; dropping rows", expr.op)
        return lambda lexical: False
    operand = expr.operand
    try:
        operand_num: Optional[float] = float(operand)
    except ValueError:
        operand_num = None

    def holds(lexical: str) -> bool:
        if operand_num is not None:
            try:
                return compare(float(lexical), operand_num)
            except ValueError:
                pass
        return compare(lexical, operand)

    return holds
