"""Brute-force reference evaluator, independent of the engine's execution path.

Evaluates the parsed operator tree directly: patterns by filtering every
triple, joins by nested-loop compatibility checks over binding dicts,
union by concatenation, the optional operator by per-row extension. Used
to differential-test the planner/executor/runtime stack; shares nothing
with them except the parsed query and the raw triple list.
"""

from __future__ import annotations

import re
from collections import Counter

from rosie.frontend import (
    AND,
    OPT,
    OR,
    FilterNode,
    Leaf,
    OpNode,
    Query,
)
from rosie.store import Dataset, lexical_form


def eval_node(node, d: Dataset) -> list[dict]:
    if isinstance(node, Leaf):
        out = []
        for s, p, o in d.triples():
            binding: dict = {}
            ok = True
            for pos_atom, value in ((node.tp.s, s), (node.tp.p, p), (node.tp.o, o)):
                if pos_atom.is_var():
                    if pos_atom.name in binding and binding[pos_atom.name] != value:
                        ok = False
                        break
                    binding[pos_atom.name] = value
                else:
                    tid = d.dict.lookup(pos_atom.value)
                    if tid is None or tid != value:
                        ok = False
                        break
            if ok:
                out.append(binding)
        return out
    if isinstance(node, FilterNode):
        rows = eval_node(node.child, d)
        return [
            row
            for row in rows
            if all(_filter_holds(e, row, d) for e in node.constraint.exprs)
        ]
    assert isinstance(node, OpNode)
    left = eval_node(node.left, d)
    right = eval_node(node.right, d)
    if node.kind == OR:
        return left + right
    if node.kind == AND:
        out = []
        for mu1 in left:
            for mu2 in right:
                merged = _merge(mu1, mu2)
                if merged is not None:
                    out.append(merged)
        return out
    assert node.kind == OPT
    out = []
    for mu1 in left:
        extensions = []
        for mu2 in right:
            merged = _merge(mu1, mu2)
            if merged is not None:
                extensions.append(merged)
        out.extend(extensions if extensions else [mu1])
    return out


def _merge(mu1: dict, mu2: dict):
    merged = dict(mu1)
    for var, value in mu2.items():
        if var in merged and merged[var] != value:
            return None
        merged[var] = value
    return merged


def _filter_holds(expr, row: dict, d: Dataset) -> bool:
    if expr.var not in row:
        return False
    lexical = lexical_form(d.dict.decode(row[expr.var]))
    if expr.op == "regex":
        flags = re.IGNORECASE if "i" in expr.flags else 0
        try:
            return re.search(expr.operand, lexical, flags) is not None
        except re.error:
            return False
    a, b = _number(lexical), _number(expr.operand)
    if a is None or b is None:
        a, b = lexical, expr.operand
    if expr.op == "=":
        return a == b
    if expr.op == "!=":
        return a != b
    if expr.op == "<":
        return a < b
    if expr.op == "<=":
        return a <= b
    if expr.op == ">":
        return a > b
    return a >= b


def evaluate_query(q: Query, d: Dataset) -> Counter:
    """Full evaluation (pattern tree plus modifiers) to a bag of projected rows."""
    rows = eval_node(q.tree, d)
    if q.modifiers.order_by:
        for var, ascending in reversed(q.modifiers.order_by):
            rows.sort(key=lambda r: _order_key(r.get(var), d), reverse=not ascending)
    projected = [tuple(row.get(v) for v in q.projection) for row in rows]
    if q.modifiers.distinct:
        seen = set()
        kept = []
        for row in projected:
            if row not in seen:
                seen.add(row)
                kept.append(row)
        projected = kept
    start = q.modifiers.offset or 0
    end = None if q.modifiers.limit is None else start + q.modifiers.limit
    projected = projected[start:end]
    return Counter(projected)


def _order_key(cell, d: Dataset):
    if cell is None:
        return (0, 0.0, "")
    lexical = lexical_form(d.dict.decode(cell))
    number = _number(lexical)
    if number is None:
        return (2, 0.0, lexical)
    return (1, number, lexical)


# SPARQL 1.1 grammar, productions [146]-[148] and their signed forms
_EXPONENT = "[eE][+-]?[0-9]+"
_INTEGER = "[0-9]+"
_DECIMAL = r"[0-9]*\.[0-9]+"
_DOUBLE = rf"(?:[0-9]+\.[0-9]*{_EXPONENT}|\.[0-9]+{_EXPONENT}|[0-9]+{_EXPONENT})"
_NUMERIC_LITERAL = re.compile(rf"[+-]?(?:{_INTEGER}|{_DECIMAL}|{_DOUBLE})")


def _number(lexical: str):
    """The value of a SPARQL numeral, None for any other lexical form."""
    return float(lexical) if _NUMERIC_LITERAL.fullmatch(lexical) else None


def bag_of_relation(rel) -> Counter:
    """Projected engine relation as a bag, comparable with evaluate_query."""
    return Counter(tuple(row) for row in rel.rows)


def eval_tree_bag(node, d: Dataset, variables: list[str]) -> Counter:
    """Bag over explicit variables, for comparing plan fragments."""
    return Counter(
        tuple(row.get(v) for v in variables) for row in eval_node(node, d)
    )
