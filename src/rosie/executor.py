"""Physical plan compilation and bag-semantics evaluation over id columns.

A candidate sequence maps directly onto physical operators: joins for And,
a padded-schema union for Or, a left outer join for Opt, row filters for
constraints. Every operator takes and returns a `Relation` of columns, one
sequence of term ids per schema variable plus a row count, with None for
an unbound cell. Join matching follows solution-mapping compatibility, so
an unbound shared variable matches anything and adopts the other side's
value.

A scan slices the range its pattern resolved to (`store.resolve`). A join
pairs probe rows with build rows as two index lists and gathers each
output column once over one of them. When every key cell is bound, the
build input is hashed and each probe key looks its rows up: an inner
join's orientation makes the build input the smaller one, and an outer
join hashes its right input. A join on one variable whose inputs hold
VECTOR_ROWS rows or more, over keys that span at most SPAN ids per row,
builds the same pairs in numpy, imported by `run` for a range that large
or on that first join, so small joins never load it (`_vector_pairs`); row
order is unchanged. A join of a small leaf input (a scan or an
intermediate) with a scan whose range is much larger binds instead: the
scan's range is narrowed to each distinct key of the leaf, and the rows
found, sorted back into scan order, are joined as above (`bind_inputs`
states the rule). An OPTIONAL whose right input joins two scans first
cuts those scans to the keys of its evaluated left input (`_reducible`
states the rule). Filter and slice cut every column alike; distinct and
sort gather them by row index. Row tuples are built only by `execute`,
for the result; `evaluate`, which materializes partial results, builds
none.

`compile_cs` chooses every access path and looks up every leaf: a scan
carries its resolved extent, an intermediate its relation and a bind join
its keyed extent. Evaluation reads the dataset only to decode the terms
that filters and sorts compare.

Row order is deterministic and the same under every policy: an outer join
gives its left rows in order, an inner join the rows of its larger input,
each with its matches in the other input's order. The README's "Executor"
section states the rule as a contract, and the pinned tests in
tests/test_kernels.py hold the executor to it.
"""

from __future__ import annotations

import logging
import re
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import eq, ge, gt, itemgetter, le, lt, mul, ne
from typing import Callable, Optional, Union

from .errors import QueryTimeout, UnresolvedLeaf
from .frontend import AND, OPT, OR, Constraint, FilterExpr, Modifiers, TriplePattern
from .planner import CS, CSFilter, CSNode, PatternLeaf, RelationLeaf
from .store import NUMERAL, _U32_ARRAY, Dataset, Extent, Relation, lexical_form, resolve, scan

log = logging.getLogger(__name__)

_TIMEOUT_CHECK_EVERY = 4096

# One lookup of a bind join costs about as much as hashing RATIO scanned
# rows, and the bind join's own set-up about one lookup, as measured on
# joins of 0 to 1,024 keys against 64 to 62,500 rows (see `bind_inputs`).
RATIO = 64

# An equi-join on one variable whose two inputs hold VECTOR_ROWS rows or
# more pairs them in numpy (see `_vector_pairs`); on smaller joins numpy's
# fixed cost per call, and its one-time import, outweigh what it saves.
VECTOR_ROWS = 16384

# ... provided the keys of both inputs span at most SPAN ids per input
# row: the dense count over the span holds 16 bytes per id, and at wider
# spans it costs more time than the numpy path saves.
SPAN = 8


@dataclass
class Scan:
    tp: TriplePattern
    schema: tuple[str, ...]
    # the pattern resolved once; a plan compares and prints without it
    extent: Extent = field(repr=False, compare=False)


@dataclass
class FetchIntermediate:
    rel_id: int
    schema: tuple[str, ...]
    # the intermediate looked up once, at compile time
    rel: Relation = field(repr=False, compare=False)


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
class BindJoin:
    """A join that evaluates its leaf input and looks its scan input up
    once per distinct key of the leaf; an OPTIONAL when `outer`, with the
    leaf on the left."""

    leaf: Union[Scan, FetchIntermediate]
    scan: Scan
    shared: tuple[str, ...]
    schema: tuple[str, ...]
    outer: bool
    # the scan's pattern resolved with the shared variables keyed
    keyed: Extent = field(repr=False, compare=False)


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
    Scan, FetchIntermediate, HashJoin, LeftOuterJoin, BindJoin, UnionOp, FilterOp,
    Project, Distinct, Sort, Slice,
]


def _merged_schema(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    return left + tuple(v for v in right if v not in left)


def compile_cs(
    cs: CS,
    projection: Optional[list[str]],
    modifiers: Optional[Modifiers],
    d: Dataset,
    extents: Optional[dict[TriplePattern, Extent]] = None,
) -> PhysicalPlan:
    """Lower a candidate sequence to a physical operator tree.

    Projection/modifiers may be None to compile a bare fragment (used when
    materializing partial results mid-query). `extents` holds patterns
    already resolved; a pattern it lacks is resolved here.
    """
    plan = _compile_node(cs, d, extents or {})
    if modifiers and modifiers.order_by:
        plan = Sort(plan, modifiers.order_by, plan.schema)
    if projection is not None:
        plan = Project(plan, tuple(projection))
    if modifiers and modifiers.distinct:
        plan = Distinct(plan, plan.schema)
    if modifiers and (modifiers.limit is not None or modifiers.offset is not None):
        plan = Slice(plan, modifiers.limit, modifiers.offset, plan.schema)
    return plan


def _compile_node(cs: CS, d: Dataset, extents: dict) -> PhysicalPlan:
    if isinstance(cs, PatternLeaf):
        ext = extents.get(cs.tp) or resolve(d, cs.tp)
        return Scan(cs.tp, ext.schema, ext)
    if isinstance(cs, RelationLeaf):
        rel = d.intermediates.get(cs.rel_id)
        if rel is None:
            raise UnresolvedLeaf(f"intermediate R{cs.rel_id} is not registered")
        return FetchIntermediate(cs.rel_id, rel.schema, rel)
    if isinstance(cs, CSFilter):
        child = _compile_node(cs.child, d, extents)
        return FilterOp(child, cs.constraint, child.schema)
    assert isinstance(cs, CSNode)
    left = _compile_node(cs.left, d, extents)
    right = _compile_node(cs.right, d, extents)
    schema = _merged_schema(left.schema, right.schema)
    shared = tuple(v for v in left.schema if v in right.schema)
    if cs.op == OR:
        return UnionOp(left, right, schema)
    outer = cs.op == OPT
    bound = bind_inputs(left, right, shared, outer)
    if bound is not None:
        leaf, other = bound
        return BindJoin(leaf, other, shared, schema, outer, resolve(d, other.tp, shared))
    if outer:
        return LeftOuterJoin(left, right, shared, schema)
    assert cs.op == AND
    return HashJoin(left, right, shared, schema)


def bind_inputs(
    left: PhysicalPlan,
    right: PhysicalPlan,
    shared: tuple[str, ...],
    outer: bool,
) -> Optional[tuple[Union[Scan, FetchIntermediate], Scan]]:
    """The (leaf, scan) inputs of a join that is to look its scan input up
    once per distinct key of its leaf input, or None to hash the join.

    Only a leaf's size is known soundly before it runs: a scan's index
    range length (an upper bound when a variable repeats) or an
    intermediate's row count. A join, filter or union result never binds.
    The leaf binds when (its rows + 1) times RATIO fall short of the range
    of the scan on the other side, and every key cell of it is bound. An
    inner join binds only when the scan is the larger input, with no
    repeated variable so that its range length is its row count: its rows
    then lead the output, as they would in the hash join. An OPTIONAL binds
    only from its left input, whose rows lead it either way.
    """
    if not shared:
        return None
    for leaf, other in ((left, right),) if outer else ((left, right), (right, left)):
        rows = _known_rows(leaf)
        if rows is None or not isinstance(other, Scan):
            continue
        length = _known_rows(other)
        if (rows + 1) * RATIO >= length:
            continue
        if not outer and (rows >= length or not _plain(other)):
            continue
        if isinstance(leaf, FetchIntermediate) and _keys(leaf.rel, shared)[1]:
            continue
        return leaf, other
    return None


def _plain(plan: PhysicalPlan) -> bool:
    """A scan with no repeated variable, whose range length is its row
    count."""
    return isinstance(plan, Scan) and not plan.extent.equal


def _known_rows(plan: PhysicalPlan) -> Optional[int]:
    """A leaf input's rows as known before it runs (see `bind_inputs`);
    None for any other input."""
    if isinstance(plan, Scan):
        return plan.extent.hi - plan.extent.lo
    if isinstance(plan, FetchIntermediate):
        return plan.rel.size
    return None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class Deadline:
    """One query's clock: its start, and with `timeout_ms` its deadline.

    Work is counted in rows; `check` reads the clock once every
    _TIMEOUT_CHECK_EVERY rows counted, and at once when given no count.
    """

    def __init__(self, timeout_ms: Optional[float] = None):
        self.t0 = time.perf_counter()
        self.timeout_ms = timeout_ms
        self.at = time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None
        self._tick = 0

    def check(self, amount: int = _TIMEOUT_CHECK_EVERY) -> None:
        """Count `amount` rows of work; QueryTimeout, reporting the
        budget, when the clock is read past the deadline."""
        if self.at is None:
            return
        self._tick += amount
        if self._tick >= _TIMEOUT_CHECK_EVERY:
            self._tick = 0
            if time.monotonic() > self.at:
                raise QueryTimeout(self.timeout_ms)

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0


def evaluate(plan: PhysicalPlan, d: Dataset, deadline: Optional[Deadline] = None) -> Relation:
    """Evaluate a plan to a relation of columns; no row tuple is built.

    The relation is a bag; its row order is deterministic (see the module
    docstring). A materialized intermediate is evaluated this way.
    """
    return _eval(plan, d, deadline or Deadline())


def execute(plan: PhysicalPlan, d: Dataset, deadline: Optional[Deadline] = None) -> Relation:
    """Evaluate a plan and build the row tuples of its result, once."""
    rel = evaluate(plan, d, deadline)
    return Relation(rel.schema, rel.columns, rel.size, rel.rows)


def _eval(plan: PhysicalPlan, d: Dataset, deadline: Deadline) -> Relation:
    if isinstance(plan, Scan):
        deadline.check()
        return scan(plan.extent)
    if isinstance(plan, FetchIntermediate):
        return plan.rel
    if isinstance(plan, HashJoin):
        left = _eval(plan.left, d, deadline)
        right = _eval(plan.right, d, deadline)
        return _inner_join(plan, left, right, left.size, right.size, deadline)
    if isinstance(plan, LeftOuterJoin):
        left = _eval(plan.left, d, deadline)
        if not left.size:
            return Relation(plan.schema, [[] for _ in plan.schema], 0)
        if _reducible(plan.right):
            # each shared variable bound in every left row cuts both scans
            # (an unbound left cell matches anything); the join is oriented
            # by the row counts before the cut, as it would be without it
            cells = {v: set(_column(left, v)) for v in plan.shared}
            cells = {v: seen for v, seen in cells.items() if None not in seen}
            (a, a_size), (b, b_size) = (
                _semi_scan(side, cells, deadline) for side in (plan.right.left, plan.right.right)
            )
            right = _inner_join(plan.right, a, b, a_size, b_size, deadline)
        else:
            right = _eval(plan.right, d, deadline)
        return _join(left, right, plan.shared, plan.schema, True, deadline)
    if isinstance(plan, BindJoin):
        leaf = _eval(plan.leaf, d, deadline)
        found = _lookup(plan, leaf, deadline)
        if plan.outer:
            return _join(leaf, found, plan.shared, plan.schema, True, deadline)
        # the scan is the larger input, so its rows lead, as in a hash join
        return _join(found, leaf, plan.shared, plan.schema, False, deadline)
    if isinstance(plan, UnionOp):
        left = _eval(plan.left, d, deadline)
        right = _eval(plan.right, d, deadline)
        columns = [
            list(chain(_column(left, v), _column(right, v))) for v in plan.schema
        ]
        return Relation(plan.schema, columns, left.size + right.size)
    if isinstance(plan, FilterOp):
        rel = _eval(plan.child, d, deadline)
        deadline.check(rel.size)
        return _filter(rel, plan.constraint, d)
    if isinstance(plan, Project):
        rel = _eval(plan.child, d, deadline)
        return Relation(plan.schema, [_column(rel, v) for v in plan.schema], rel.size)
    if isinstance(plan, Distinct):
        rel = _eval(plan.child, d, deadline)
        if not rel.columns:
            return Relation(plan.schema, [], min(rel.size, 1))
        cells = rel.columns[0] if len(rel.columns) == 1 else list(zip(*rel.columns))
        # walked backwards, each distinct row keeps its first index
        first = dict(zip(reversed(cells), range(rel.size - 1, -1, -1)))
        return _take(rel, sorted(first.values()))
    if isinstance(plan, Sort):
        rel = _eval(plan.child, d, deadline)
        order = list(range(rel.size))
        keys: dict = {}  # term id -> sort key, shared by every key pass
        for var, ascending in reversed(plan.keys):
            col = rel.columns[rel.schema.index(var)]
            for tid in set(col).difference(keys):
                keys[tid] = _sort_key(tid, d)
            # a stable sort of row indices, as of the rows themselves
            row_keys = list(map(keys.__getitem__, col))
            order.sort(key=row_keys.__getitem__, reverse=not ascending)
        return _take(rel, order)
    if isinstance(plan, Slice):
        rel = _eval(plan.child, d, deadline)
        start = plan.offset or 0
        end = None if plan.limit is None else start + plan.limit
        size = len(range(rel.size)[start:end])
        return Relation(plan.schema, [col[start:end] for col in rel.columns], size)
    raise TypeError(f"unknown plan node {plan!r}")


def _inner_join(
    plan: HashJoin, left: Relation, right: Relation, left_size: int, right_size: int,
    deadline: Deadline,
) -> Relation:
    """`plan`'s inner join of its evaluated inputs, the input of the larger
    size given probing, the right one on a tie."""
    if plan.shared and left_size <= right_size:
        left, right = right, left
    return _join(left, right, plan.shared, plan.schema, False, deadline)


def _reducible(plan: PhysicalPlan) -> bool:
    """Whether an OPTIONAL's right input is an inner join of two plain
    scans (no repeated variable), which `_eval` cuts to the keys of the
    left input.

    A lone scan is not cut, since the outer join's hash probe already
    drops its unmatched rows. Nor is any other join: an inner join's order
    follows its larger input, known before the cut only for plain scans.
    Each variable cuts on its own, so the cut join holds every row that
    matches and maybe more; the outer join pairs them exactly.
    """
    return isinstance(plan, HashJoin) and _plain(plan.left) and _plain(plan.right)


def _semi_scan(plan: Scan, cells: dict, deadline: Deadline) -> tuple[Relation, int]:
    """The rows of a scan whose cell of each variable in `cells` is one of
    its cells there, in scan order, and the scan's row count before that.

    Each cut takes a deadline check for the rows it reads. The columns stay
    `array`s, so `_keys` still knows that no cell is unbound.
    """
    deadline.check()
    rel = scan(plan.extent)
    size = rel.size
    for k, v in enumerate(rel.schema):
        if v not in cells or not rel.size:
            continue
        deadline.check(rel.size)
        keep = list(map(cells[v].__contains__, rel.columns[k]))
        columns = [array(_U32_ARRAY, compress(col, keep)) for col in rel.columns]
        rel = Relation(rel.schema, columns, len(columns[k]))
    return rel, size


def _column(rel: Relation, var: str):
    """The cells of `var` in `rel`, all unbound when `rel` lacks it."""
    if var in rel.schema:
        return rel.columns[rel.schema.index(var)]
    return [None] * rel.size


def _gather(columns, idx, pad: bool = False) -> list:
    """Each column's cells at the row indices `idx`, in that order; with
    `pad`, the index one past the end of the columns gives an unbound cell
    (see `_index_lists`)."""
    if not isinstance(idx, list):
        return _vector_gather(columns, idx, pad)
    if pad:
        columns = [(*col, None) for col in columns]
    if len(idx) > 1:
        pick = itemgetter(*idx)
        return [pick(col) for col in columns]
    # itemgetter of fewer than two items returns no tuple
    return [[col[i] for i in idx] for col in columns]


def _vector_gather(columns, idx, pad: bool) -> list:
    """`_gather` over a numpy index array (see `_vector_pairs`). An `array`
    column is gathered in numpy: it stays an `array`, or with `pad` it
    becomes a list with None in the pad's rows."""
    import numpy as np

    listed = None
    out = []
    for col in columns:
        if not isinstance(col, array):
            listed = idx.tolist() if listed is None else listed
            out += _gather([col], listed, pad)
            continue
        cells = np.frombuffer(col, np.uint32)
        if not pad:
            out.append(array(_U32_ARRAY, cells[idx].tobytes()))
            continue
        cells = np.append(cells, 0)[idx].astype(object)
        cells[idx == len(col)] = None
        out.append(cells.tolist())
    return out


def _take(rel: Relation, idx: list[int]) -> Relation:
    """The rows of `rel` at `idx`, in that order."""
    return Relation(rel.schema, _gather(rel.columns, idx), len(idx))


def _sort_key(cell, d: Dataset):
    """Unbound first, then numerics by value, then strings by codepoint."""
    if cell is None:
        return (0, 0.0, "")
    lexical = lexical_form(d.dict.decode(cell))
    number = numeric_value(lexical)
    if number is None:
        return (2, 0.0, lexical)
    return (1, number, lexical)


def _join(
    probe: Relation,
    build: Relation,
    shared: tuple[str, ...],
    schema: tuple[str, ...],
    outer: bool,
    deadline: Deadline,
) -> Relation:
    """Compatibility join of two relations, over columns, whose output
    follows the probe rows; an outer join keeps every probe row.

    The pairs come as a probe-index and a build-index list, in probe order
    and build order within, and every output column is one gather over one
    of them.
    """
    probe_keys, probe_unbound = _keys(probe, shared)
    build_keys, build_unbound = _keys(build, shared)
    pairs = None
    if (
        len(shared) == 1 and not (probe_unbound or build_unbound)
        and probe.size + build.size >= VECTOR_ROWS
    ):
        pairs = _vector_pairs(probe_keys, build_keys, outer, deadline)
    if pairs is None:
        if shared:
            hits = _matches(
                probe_keys, build_keys, len(shared) == 1,
                bool(probe_unbound), bool(build_unbound), deadline,
            )
        else:
            hits = [list(range(build.size))] * probe.size
        pairs = _index_lists(hits, build.size, outer, deadline)
    probe_idx, build_idx, padded = pairs

    # an unmatched row of an outer join pairs with the all-unbound build
    # row at index build.size
    probe_cols = dict(zip(probe.schema, _gather(probe.columns, probe_idx)))
    build_cols = dict(zip(build.schema, _gather(build.columns, build_idx, padded)))
    columns = []
    for v in schema:
        if v not in probe_cols:
            columns.append(build_cols[v])
        elif v in probe_unbound:
            # a key cell unbound on the probe side adopts the build value
            columns.append([b if p is None else p for p, b in zip(probe_cols[v], build_cols[v])])
        else:
            columns.append(probe_cols[v])
    return Relation(schema, columns, len(probe_idx))


def _lookup(plan: BindJoin, leaf: Relation, deadline: Deadline) -> Relation:
    """The rows of the scan input that join some row of `leaf`, in scan
    order.

    Each distinct key of `leaf` bisects the keyed extent and scans its
    rows, with a deadline check. The rows found are sorted back into the
    order of the scan's own range, which ascends in the cells of its
    extent's `order`.
    """
    shared = plan.shared
    keys, _ = _keys(leaf, shared)
    parts = []
    for key in set(keys):
        cells = key if len(shared) > 1 else (key,)
        rel = scan(plan.keyed.at(cells))
        deadline.check(1 + rel.size)
        if rel.size:
            parts.append((cells, rel))
    sizes = [rel.size for _, rel in parts]
    found = {
        v: array(_U32_ARRAY, chain.from_iterable(map(repeat, [c[k] for c, _ in parts], sizes)))
        for k, v in enumerate(shared)
    }
    free = [v for v in plan.scan.schema if v not in found]
    for k, v in enumerate(free):
        found[v] = array(_U32_ARRAY, chain.from_iterable(rel.columns[k] for _, rel in parts))
    rel = Relation(plan.scan.schema, [found[v] for v in plan.scan.schema], sum(sizes))
    order = [found[v] for v in plan.scan.extent.order]
    sort_keys = order[0] if len(order) == 1 else list(zip(*order))
    if any(map(gt, sort_keys, islice(sort_keys, 1, None))):
        return _take(rel, sorted(range(rel.size), key=sort_keys.__getitem__))
    return rel


def _vector_pairs(probe_keys, build_keys, outer: bool, deadline: Deadline) -> Optional[tuple]:
    """The pairs that `_index_lists` makes of `_matches` for keys whose
    cells are all bound, in numpy, imported here on first use: the same
    pairs in the same order, as two index arrays, or None when the keys
    span more than SPAN ids per input row.

    One sort groups the build rows by key, in build order within a key,
    and a dense count over the span of both sides' keys gives each probe
    row its group. The pairs are expanded _TIMEOUT_CHECK_EVERY at a time,
    with a deadline check before each part, so a blow-up times out before
    its arrays exist.
    """
    import numpy as np

    probe, build = (
        np.frombuffer(k, np.uint32) if isinstance(k, array) else np.array(k, np.int64)
        for k in (probe_keys, build_keys)
    )
    n_build = len(build)
    sides = [k for k in (probe, build) if len(k)]
    lo = min((int(k.min()) for k in sides), default=0)
    span = max((int(k.max()) + 1 - lo for k in sides), default=0)
    if span > SPAN * (len(probe) + n_build):
        return None
    key = build.astype(np.int64) - lo
    # slot `span` holds no key and starts at n_build, where `order` has the pad
    count = np.bincount(key, minlength=span + 1)
    first = np.cumsum(count) - count
    # each build row in key order and build order within, as a stable
    # argsort would give them, but from one far faster plain sort
    order = np.append(np.sort(key * n_build + np.arange(n_build)) % max(n_build, 1), n_build)
    slot = probe.astype(np.int64) - lo
    width = count[slot]
    padded = outer and not width.all()
    if padded:
        unmatched = width == 0
        slot[unmatched] = span
        width[unmatched] = 1
    rows = np.flatnonzero(width)
    width = width[rows]
    end = np.cumsum(width)
    # the build position of the pair at pair position k of a row is shift + k
    shift = first[slot[rows]] - (end - width)
    total = int(end[-1]) if len(end) else 0
    probe_parts, build_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for p0 in range(0, total, _TIMEOUT_CHECK_EVERY):
        deadline.check()
        p1 = min(p0 + _TIMEOUT_CHECK_EVERY, total)
        # the rows holding the part's first and last pair, and their share
        r0, r1 = np.searchsorted(end, (p0, p1 - 1), side="right").tolist()
        part = slice(r0, r1 + 1)
        share = np.minimum(end[part], p1) - np.maximum(end[part] - width[part], p0)
        probe_parts.append(np.repeat(rows[part], share))
        build_parts.append(order[np.repeat(shift[part], share) + np.arange(p0, p1)])
    return np.concatenate(probe_parts), np.concatenate(build_parts), padded


def _index_lists(
    hits: list, n_build: int, outer: bool, deadline: Deadline
) -> tuple[list[int], list[int], bool]:
    """The probe-index and build-index lists of the per-probe-row match
    lists `hits` (a falsy entry for no match), and whether a probe row took
    the pad: with `outer`, a row without a match pairs once with the pad
    index n_build.

    The lists grow about _TIMEOUT_CHECK_EVERY pairs at a time, with a
    deadline check before each part, so a blow-up times out before they
    exist.
    """
    padded = outer and not all(hits)
    if padded:
        pad = (n_build,)
        hits = [h or pad for h in hits]
    rows = list(compress(range(len(hits)), hits))
    hits = list(filter(None, hits))
    widest = max(map(len, hits), default=1)
    step = max(1, _TIMEOUT_CHECK_EVERY // widest)
    probe_idx: list[int] = []
    build_idx: list[int] = []
    for start in range(0, len(hits), step):
        deadline.check()
        part = hits[start : start + step]
        part_rows = rows[start : start + step]
        if widest > 1:
            # each row as a 1-tuple, repeated once per match
            part_rows = chain.from_iterable(map(mul, zip(part_rows), map(len, part)))
        probe_idx += part_rows
        build_idx += chain.from_iterable(part)
    return probe_idx, build_idx, padded


def _table(keys) -> dict:
    """Each distinct key mapped to its rows in order: a 1-tuple for a key
    seen once, else a list.

    The dict is built in C and first holds each key's last row; only the
    rows whose key repeats pass through a Python loop.
    """
    n = len(keys)
    table = dict(zip(keys, zip(range(n))))
    if len(table) < n:
        lists: dict = {}
        last = map(itemgetter(0), map(table.__getitem__, keys))
        for j in compress(range(n), map(ne, last, range(n))):
            lists.setdefault(keys[j], []).append(j)
        for key, rows in lists.items():
            rows += table[key]
            table[key] = rows
    return table


def _matches(
    probe_keys, build_keys, single: bool, probe_wild: bool, build_wild: bool,
    deadline: Deadline,
) -> list:
    """For each probe key, the indices of the compatible build keys in build
    order (bound-key matches before wild ones), or a falsy value for none.

    The build keys are hashed and each probe key looks its rows up. A
    "wild" key, with an unbound cell as UNION and OPTIONAL produce, is
    compatible with anything at that cell, so it is compared pairwise;
    `probe_wild` and `build_wild` say whether a side holds one.
    """
    buckets = _table(build_keys)
    wild: list[int] = []
    if build_wild:
        # the rows of every key with an unbound cell, in build order
        wild = sorted(chain.from_iterable(
            buckets.pop(key) for key in list(filter(_has_unbound, buckets))
        ))
    hits = list(map(buckets.get, probe_keys))
    if not (probe_wild or build_wild):
        return hits

    # an unbound single-variable key matches every build row, and a bound
    # one every wild build row; tuple keys are compared cell by cell
    every = list(range(len(build_keys)))
    wild_keys = [(j, build_keys[j]) for j in wild]
    for i, key in enumerate(probe_keys):
        if _has_unbound(key):
            deadline.check(1 + len(build_keys))
            hits[i] = every if single else [
                j for j, other in enumerate(build_keys) if _compatible(key, other)
            ]
        elif wild:
            bucket = hits[i] or ()
            deadline.check(1 + len(bucket) + len(wild))
            hits[i] = [*bucket, *(wild if single else [
                j for j, other in wild_keys if _compatible(key, other)
            ])]
    return hits


def _keys(rel: Relation, shared: tuple[str, ...]) -> tuple:
    """The join key of every row (the cell itself for one shared variable,
    else a tuple of cells), and the shared variables unbound in some row."""
    columns = [rel.columns[rel.schema.index(v)] for v in shared]
    # a store column holds no unbound cell
    unbound = {
        v for v, col in zip(shared, columns) if not isinstance(col, array) and None in col
    }
    if len(columns) == 1:
        return columns[0], unbound
    return list(zip(*columns)), unbound


def _has_unbound(key) -> bool:
    """A join key with an unbound cell: None itself or a tuple holding one."""
    return key is None or (type(key) is tuple and None in key)


def _compatible(key: tuple, other: tuple) -> bool:
    """Two multi-variable keys that agree wherever both cells are bound."""
    return all(a is None or b is None or a == b for a, b in zip(key, other))


# ---------------------------------------------------------------------------
# Filter evaluation
# ---------------------------------------------------------------------------

_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _filter(rel: Relation, constraint: Constraint, d: Dataset) -> Relation:
    """The rows satisfying every expression of a constraint, in input order.

    Each expression is compiled once and decided once per distinct term id
    in its variable's column; no other column is decoded.
    """
    columns, size = rel.columns, rel.size
    for expr in constraint.exprs:
        if not size:
            break
        if expr.var not in rel.schema:
            return Relation(rel.schema, [[] for _ in rel.schema], 0)  # unbound in every row
        col = columns[rel.schema.index(expr.var)]
        holds = _compile_filter(expr)
        verdict = {
            tid: tid is not None and holds(lexical_form(d.dict.decode(tid)))
            for tid in set(col)
        }
        keep = list(map(verdict.__getitem__, col))
        columns = [list(compress(c, keep)) for c in columns]
        size = len(columns[0])
    return Relation(rel.schema, columns, size)


_NUMERAL = re.compile(NUMERAL)


def numeric_value(lexical: str) -> Optional[float]:
    """The value of a lexical form that is a SPARQL numeral, else None.

    Only the INTEGER, DECIMAL and DOUBLE grammar counts: no surrounding
    whitespace, digit separators, `NaN` or `INF`, all of which Python's
    `float` would take.
    """
    if _NUMERAL.fullmatch(lexical) is None:
        return None
    return float(lexical)


def _compile_filter(expr: FilterExpr) -> Callable[[str], bool]:
    """Compile one atomic filter to a test on a term's lexical form.

    Numeric comparison applies when both sides are SPARQL numerals, else
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
    operand_num = numeric_value(operand)

    def holds(lexical: str) -> bool:
        if operand_num is not None:
            number = numeric_value(lexical)
            if number is not None:
                return compare(number, operand_num)
        return compare(lexical, operand)

    return holds
