"""Query relation graph: the planner's view of one query.

Three vertex families: operator vertices (an n-ary And/Or group or a binary
Opt, derived from the semantics tree by merging maximal same-operator
chains), pattern vertices (one per triple pattern, weighted with its
cardinality estimate and carrying its cardinality interval), and variable
vertices (edges to every pattern that binds them, labelled with the
position). Filter constraints attach to the operator vertex whose group
they scope, as region annotations; they do not sit on the operator parent
chain.

A materialized intermediate enters the graph as a synthetic pattern vertex
whose weight and interval are its exact row count; `collapse_materialized`
rebuilds the graph around it. The graph is the per-query memo of these
numbers: the runtime reads each pattern's estimate and bounds off its vertex
and never recomputes them from the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidCollapse
from .estimator import CardinalityInterval, estimate_tp, tp_bounds
from .frontend import AND, OPT, OR, Constraint, FilterNode, Leaf, OpNode, Query, TriplePattern
from .store import Stats, TermDictionary

LeafId = int
OpId = int


@dataclass
class LeafVertex:
    """A triple pattern or a materialized intermediate relation."""

    id: LeafId
    weight: float
    op_id: OpId
    var_edges: dict[str, tuple[str, ...]]  # variable -> position labels
    interval: CardinalityInterval  # bounds on the real cardinality
    tp: Optional[TriplePattern] = None
    rel_id: Optional[int] = None

    @property
    def label(self) -> str:
        if self.tp is not None:
            return f"T{self.id}"
        return f"R{self.rel_id}"

    @property
    def is_materialized(self) -> bool:
        return self.tp is None


@dataclass
class OpVertex:
    id: OpId
    kind: str  # And | Or | Opt
    ordinal: int  # per-kind numbering in preorder
    parent_id: Optional[OpId]
    children: tuple[tuple[str, int], ...]  # ("op", op_id) | ("leaf", leaf_id)
    constraints: tuple[Constraint, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}{self.ordinal}"


@dataclass(frozen=True)
class Region:
    """All pattern vertices governed by one operator vertex."""

    operator: OpId
    members: frozenset[LeafId]

    def is_exchangeable(self, g: "QRG") -> bool:
        return g.ops[self.operator].kind in (AND, OR)


class QRG:
    def __init__(
        self,
        ops: dict[OpId, OpVertex],
        leaves: dict[LeafId, LeafVertex],
        root_id: OpId,
        constraint_labels: dict[int, str],
        next_leaf_id: int,
    ):
        self.ops = ops
        self.leaves = leaves
        self.root_id = root_id
        self.constraint_labels = constraint_labels
        self._next_leaf_id = next_leaf_id
        # plan leaves name vertices by label: T<pattern id> or R<relation id>
        self.by_label = {leaf.label: leaf for leaf in leaves.values()}
        self.var_edges: dict[str, list[tuple[LeafId, Optional[str]]]] = {}
        for leaf in leaves.values():
            for var, positions in leaf.var_edges.items():
                entries = self.var_edges.setdefault(var, [])
                if positions:
                    for pos in positions:
                        entries.append((leaf.id, pos))
                else:
                    entries.append((leaf.id, None))
        for var in self.var_edges:
            self.var_edges[var].sort(key=lambda e: (e[0], e[1] or ""))

    # -- basic accessors -----------------------------------------------------

    def subtree_leaves(self, child: tuple[str, int]) -> set[LeafId]:
        kind, ident = child
        if kind == "leaf":
            return {ident}
        out: set[LeafId] = set()
        for sub in self.ops[ident].children:
            out |= self.subtree_leaves(sub)
        return out

    def optional_leaves(self) -> set[LeafId]:
        """Leaves that live under the optional side of some Opt vertex."""
        out: set[LeafId] = set()
        for op in self.ops.values():
            if op.kind == OPT and len(op.children) == 2:
                out |= self.subtree_leaves(op.children[1])
        return out

    def op_chain(self, op_id: OpId) -> list[OpId]:
        chain = [op_id]
        while self.ops[chain[-1]].parent_id is not None:
            chain.append(self.ops[chain[-1]].parent_id)
        return chain


def build_qrg(q: Query, stats: Stats, dictionary: TermDictionary) -> QRG:
    """Derive the graph from a parsed query and dataset statistics."""
    root = _structure_of(q.tree)
    labels = {c.ordinal: q.constraint_label(c) for c in q.constraints}
    leaf_info = {
        tp.id: LeafVertex(
            id=tp.id,
            weight=estimate_tp(tp, stats, dictionary),
            op_id=-1,
            var_edges=_tp_var_edges(tp),
            interval=tp_bounds(tp, stats, dictionary),
            tp=tp,
        )
        for tp in q.patterns
    }
    next_leaf = max(leaf_info, default=0) + 1
    return _number(root, leaf_info, labels, next_leaf)


def _tp_var_edges(tp: TriplePattern) -> dict[str, tuple[str, ...]]:
    edges: dict[str, list[str]] = {}
    for pos, name in tp.variables():
        edges.setdefault(name, []).append(pos)
    return {name: tuple(positions) for name, positions in edges.items()}


# Structural skeleton used by both construction and collapse.

@dataclass
class _Group:
    kind: str
    children: list  # ("op", _Group) | ("leaf", leaf_id)
    constraints: list[Constraint] = field(default_factory=list)


def _structure_of(node) -> _Group:
    child = _build_child(node)
    if child[0] == "leaf":
        return _Group(AND, [child])
    return child[1]


def _build_child(node):
    if isinstance(node, Leaf):
        return ("leaf", node.tp.id)
    if isinstance(node, FilterNode):
        constraints = []
        inner = node
        while isinstance(inner, FilterNode):
            constraints.append(inner.constraint)
            inner = inner.child
        constraints.sort(key=lambda c: c.ordinal)
        sub = _build_child(inner)
        if sub[0] == "leaf":
            group = _Group(AND, [sub])
        else:
            group = sub[1]
        group.constraints.extend(constraints)
        return ("op", group)
    assert isinstance(node, OpNode)
    if node.kind == OPT:
        return ("op", _Group(OPT, [_build_child(node.left), _build_child(node.right)]))
    operands = _same_kind_operands(node, node.kind)
    return ("op", _Group(node.kind, [_build_child(o) for o in operands]))


def _same_kind_operands(node, kind) -> list:
    if isinstance(node, OpNode) and node.kind == kind:
        return _same_kind_operands(node.left, kind) + _same_kind_operands(node.right, kind)
    return [node]


def _number(
    root: _Group,
    leaf_info: dict[LeafId, LeafVertex],
    constraint_labels: dict[int, str],
    next_leaf_id: int,
) -> QRG:
    ops: dict[OpId, OpVertex] = {}
    leaves: dict[LeafId, LeafVertex] = {}
    kind_counters = {AND: 0, OR: 0, OPT: 0}
    counter = [0]

    def walk(group: _Group, parent_id: Optional[OpId]) -> OpId:
        op_id = counter[0]
        counter[0] += 1
        kind_counters[group.kind] += 1
        ordinal = kind_counters[group.kind]
        children: list[tuple[str, int]] = []
        # reserve this vertex before descending so preorder ids hold
        ops[op_id] = OpVertex(
            id=op_id,
            kind=group.kind,
            ordinal=ordinal,
            parent_id=parent_id,
            children=(),
            constraints=tuple(group.constraints),
        )
        for child in group.children:
            if child[0] == "leaf":
                leaf = leaf_info[child[1]]
                leaf.op_id = op_id
                leaves[leaf.id] = leaf
                children.append(("leaf", leaf.id))
            else:
                sub_id = walk(child[1], op_id)
                children.append(("op", sub_id))
        ops[op_id].children = tuple(children)
        return op_id

    root_id = walk(root, None)
    return QRG(ops, leaves, root_id, dict(constraint_labels), next_leaf_id)


# ---------------------------------------------------------------------------
# Queries over the graph
# ---------------------------------------------------------------------------

def region_of(g: QRG, op_id: OpId) -> Region:
    members = frozenset(
        ident for kind, ident in g.ops[op_id].children if kind == "leaf"
    )
    return Region(op_id, members)


def lowest_common_op(g: QRG, op_ids: set[OpId]) -> OpId:
    """The deepest operator vertex on the parent chain of every given one."""
    chains = [list(reversed(g.op_chain(op_id))) for op_id in op_ids]
    common = g.root_id
    for level in range(min(len(c) for c in chains)):
        tier = {c[level] for c in chains}
        if len(tier) == 1:
            common = tier.pop()
        else:
            break
    return common


def collapse_materialized(
    g: QRG,
    arranged: set[LeafId],
    rel_id: int,
    exact_card: float,
    applied_constraints: frozenset[int] = frozenset(),
) -> QRG:
    """Replace the arranged patterns with one synthetic vertex.

    The synthetic vertex carries the exact cardinality as its weight and
    as a point interval, and attaches under the lowest operator covering
    everything it absorbed; variables still needed by live patterns keep
    (unlabelled) edges to it; live vertices keep their weight and interval.
    Operators left without enough children are contracted away. The graph
    is rebuilt rather than patched; at the sizes this engine targets the
    difference is immaterial.

    `applied_constraints` names the filters (by ordinal) the materialized
    fragment already evaluated; those are dropped. Everything else stays
    pending — re-applying a filter is idempotent, dropping an unapplied
    one is not.
    """
    if not arranged:
        raise InvalidCollapse("nothing to collapse")
    unknown = arranged - set(g.leaves)
    if unknown:
        raise InvalidCollapse(f"unknown vertices {sorted(unknown)}")

    for op in g.ops.values():
        if op.kind != OPT or len(op.children) != 2:
            continue
        left = g.subtree_leaves(op.children[0])
        right = g.subtree_leaves(op.children[1])
        took_right = arranged & right
        if took_right and took_right != right:
            raise InvalidCollapse(
                f"collapse splits the optional side of {op.label}"
            )
        if took_right == right and right and not left <= arranged:
            raise InvalidCollapse(
                f"collapse takes the optional side of {op.label} without its "
                "mandatory side"
            )

    live = {lid for lid in g.leaves if lid not in arranged}
    arranged_vars: set[str] = set()
    for lid in arranged:
        arranged_vars.update(g.leaves[lid].var_edges)
    live_vars: set[str] = set()
    for lid in live:
        live_vars.update(g.leaves[lid].var_edges)

    new_id = g._next_leaf_id
    synthetic = LeafVertex(
        id=new_id,
        weight=float(exact_card),
        op_id=-1,
        var_edges={v: () for v in sorted(arranged_vars & live_vars)},
        interval=CardinalityInterval.point(float(exact_card)),
        rel_id=rel_id,
    )
    attach_at = lowest_common_op(g, {g.leaves[lid].op_id for lid in arranged})
    _reanchor: list[Constraint] = []

    def rebuild(op_id: OpId):
        """None when the subtree vanished, else a child tuple; operators
        left with a single live child (and no constraints to anchor) are
        contracted away."""
        op = g.ops[op_id]
        children: list = []
        if op_id == attach_at:
            children.append(("leaf", new_id))
        for kind, ident in op.children:
            if kind == "leaf":
                if ident in live:
                    children.append(("leaf", ident))
            else:
                sub = rebuild(ident)
                if sub is not None:
                    children.append(sub)
        constraints = [
            c for c in op.constraints if c.ordinal not in applied_constraints
        ]
        if not children:
            if constraints:
                _reanchor.extend(constraints)
            return None
        if len(children) == 1:
            only = children[0]
            if not constraints:
                return only
            if only[0] == "op":
                group = only[1]
                group.constraints = constraints + group.constraints
                return ("op", group)
            return ("op", _Group(AND, [only], constraints))
        return ("op", _Group(op.kind, children, constraints))

    rebuilt = rebuild(g.root_id)
    if rebuilt is None:
        new_root = _Group(AND, [("leaf", new_id)])
    elif rebuilt[0] == "leaf":
        new_root = _Group(AND, [rebuilt])
    else:
        new_root = rebuilt[1]
    if _reanchor:
        new_root.constraints.extend(_reanchor)

    leaf_info: dict[LeafId, LeafVertex] = {new_id: synthetic}
    for lid in live:
        old = g.leaves[lid]
        leaf_info[lid] = LeafVertex(
            id=old.id,
            weight=old.weight,
            op_id=-1,
            var_edges=dict(old.var_edges),
            interval=old.interval,
            tp=old.tp,
            rel_id=old.rel_id,
        )
    return _number(new_root, leaf_info, g.constraint_labels, new_id + 1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_dot(g: QRG) -> str:
    """Deterministic DOT text: operators as boxes, patterns as ellipses with
    weights, variables as diamonds, constraints as notes."""
    lines = ["digraph qrg {"]
    for op_id in sorted(g.ops):
        op = g.ops[op_id]
        lines.append(f'  op{op_id} [shape=box, label="{op.label}"];')
        for c in op.constraints:
            label = g.constraint_labels.get(c.ordinal, f"C{c.ordinal}")
            lines.append(f'  c{c.ordinal} [shape=note, label="{label}"];')
            lines.append(f"  c{c.ordinal} -> op{op_id};")
    for leaf_id in sorted(g.leaves):
        leaf = g.leaves[leaf_id]
        weight = f"{leaf.weight:g}"
        lines.append(
            f'  t{leaf_id} [shape=ellipse, label="{leaf.label} ({weight})"];'
        )
        lines.append(f"  t{leaf_id} -> op{leaf.op_id};")
    for op_id in sorted(g.ops):
        parent = g.ops[op_id].parent_id
        if parent is not None:
            lines.append(f"  op{op_id} -> op{parent};")
    for var in sorted(g.var_edges):
        lines.append(f'  v_{var} [shape=diamond, label="?{var}"];')
        for leaf_id, pos in g.var_edges[var]:
            if pos is None:
                lines.append(f"  v_{var} -> t{leaf_id};")
            else:
                lines.append(f'  v_{var} -> t{leaf_id} [label="{pos}"];')
        for op_id in sorted(g.ops):
            for c in g.ops[op_id].constraints:
                if var in c.variables():
                    lines.append(f"  v_{var} -> c{c.ordinal};")
    lines.append("}")
    return "\n".join(lines) + "\n"
