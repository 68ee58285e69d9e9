"""SELECT-query parser for the supported SPARQL subset.

Supported: PREFIX prologue, WHERE with nested groups, '.'/';'/',' triple
separators, UNION, OPTIONAL, FILTER (comparisons and regex on a single
variable), and the DISTINCT/LIMIT/OFFSET/ORDER BY modifiers. Out-of-scope
constructs (ASK, property paths, FILTER EXISTS, MINUS, aggregates,
subqueries, ...) raise UnsupportedFeature; everything else malformed raises
QuerySyntaxError with a character offset.

The parse result is a Query holding the pattern list T, the operator kinds
O, the semantics tree S (binary; adjacent group members left-folded into
And, UNION into Or, OPTIONAL into Opt, FILTER wrapping its enclosing
group), and the derived variable correlations V.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import EscapeError, QuerySyntaxError, UnsupportedFeature
from .store import LANGTAG, NUMERAL, escape_literal, make_literal, unescape

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

AND = "And"
OR = "Or"
OPT = "Opt"
FILTER = "Filter"

POSITIONS = ("S", "P", "O")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """A bound position: canonical term string (see store module)."""

    value: str

    def is_var(self) -> bool:
        return False


@dataclass(frozen=True)
class Var:
    name: str

    def is_var(self) -> bool:
        return True


Atom = Union[Term, Var]


@dataclass(frozen=True)
class TriplePattern:
    id: int  # ordinal, 1-based, textual order
    s: Atom
    p: Atom
    o: Atom

    @property
    def label(self) -> str:
        return f"T{self.id}"

    def atoms(self):
        return (("S", self.s), ("P", self.p), ("O", self.o))

    def variables(self) -> list[tuple[str, str]]:
        """(position, name) pairs, S,P,O order, duplicates kept."""
        return [(pos, a.name) for pos, a in self.atoms() if a.is_var()]


@dataclass(frozen=True)
class FilterExpr:
    """One atomic constraint: a variable compared against a constant."""

    var: str
    op: str  # '=', '!=', '<', '<=', '>', '>=', 'regex'
    operand: str  # lexical form of the constant / regex pattern
    flags: str = ""


@dataclass(frozen=True)
class Constraint:
    """Conjunction of atomic filters introduced by one FILTER clause."""

    ordinal: int  # 1-based, textual order
    exprs: tuple[FilterExpr, ...]

    def variables(self) -> list[str]:
        seen: list[str] = []
        for e in self.exprs:
            if e.var not in seen:
                seen.append(e.var)
        return seen


@dataclass(frozen=True)
class Leaf:
    tp: TriplePattern


@dataclass(frozen=True)
class OpNode:
    kind: str  # And | Or | Opt
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class FilterNode:
    child: "Node"
    constraint: Constraint


Node = Union[Leaf, OpNode, FilterNode]


@dataclass(frozen=True)
class Modifiers:
    distinct: bool = False
    limit: Optional[int] = None
    offset: Optional[int] = None
    order_by: tuple[tuple[str, bool], ...] = ()  # (var, ascending)


@dataclass
class Query:
    patterns: list[TriplePattern]
    operators: set[str]
    tree: Node
    projection: list[str]
    modifiers: Modifiers
    constraints: list[Constraint]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.patterns == other.patterns
            and self.tree == other.tree
            and self.projection == other.projection
            and self.modifiers == other.modifiers
            and self.constraints == other.constraints
        )

    def constraint_label(self, c: Constraint) -> str:
        return "C" if len(self.constraints) == 1 else f"C{c.ordinal}"


def query_variables(q: Query) -> list[str]:
    """Distinct variables in first-occurrence (textual) order."""
    seen: list[str] = []
    for tp in q.patterns:
        for _, name in tp.variables():
            if name not in seen:
                seen.append(name)
    return seen


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\s]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z0-9_.-]*|:[A-Za-z0-9_.-]+)
  | (?P<NUMBER>""" + NUMERAL + r""")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<LANGTAG>@""" + LANGTAG + r""")
  | (?P<PUNCT>\^\^|&&|\|\||!=|<=|>=|[{}().,;=<>@!|/^*+])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QuerySyntaxError(pos, f"a token (got {text[pos]!r})")
        kind = m.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


_UNSUPPORTED_FORMS = {"ASK", "CONSTRUCT", "DESCRIBE", "INSERT", "DELETE"}
_UNSUPPORTED_MEMBERS = {
    "MINUS": "MINUS",
    "GRAPH": "named graphs",
    "SERVICE": "SERVICE",
    "BIND": "BIND",
    "VALUES": "VALUES",
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self.tp_counter = 0
        self.constraint_counter = 0
        self.patterns: list[TriplePattern] = []
        self.constraints: list[Constraint] = []

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text.upper() in words

    def expect_keyword(self, word: str) -> _Token:
        if not self.at_keyword(word):
            raise QuerySyntaxError(self.peek().pos, word)
        return self.next()

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            raise QuerySyntaxError(tok.pos, repr(text))
        return self.next()

    def at_punct(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text in texts

    # -- query ---------------------------------------------------------------

    def parse_query(self) -> Query:
        self.parse_prologue()
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text.upper() in _UNSUPPORTED_FORMS:
            raise UnsupportedFeature(f"{tok.text.upper()} query form")
        self.expect_keyword("SELECT")
        distinct = False
        if self.at_keyword("DISTINCT"):
            self.next()
            distinct = True
        elif self.at_keyword("REDUCED"):
            raise UnsupportedFeature("REDUCED")
        projection = self.parse_projection()
        if self.at_keyword("WHERE"):
            self.next()
        tree = self.parse_group()
        modifiers = self.parse_modifiers(distinct)
        if self.peek().kind != "EOF":
            raise QuerySyntaxError(self.peek().pos, "end of query")

        q = Query(
            patterns=self.patterns,
            operators=_collect_operators(tree),
            tree=tree,
            projection=[],
            modifiers=modifiers,
            constraints=self.constraints,
        )
        in_query = set(query_variables(q))
        if projection is None:
            q.projection = query_variables(q)
        else:
            for name, pos in projection:
                if name not in in_query:
                    raise QuerySyntaxError(pos, f"?{name} to occur in a pattern")
            q.projection = [name for name, _ in projection]
        for name, _asc in modifiers.order_by:
            if name not in in_query:
                raise QuerySyntaxError(0, f"ORDER BY variable ?{name} to occur in a pattern")
        return q

    def parse_prologue(self) -> None:
        while True:
            if self.at_keyword("PREFIX"):
                self.next()
                tok = self.peek()
                if tok.kind != "PNAME" or not tok.text.endswith(":"):
                    raise QuerySyntaxError(tok.pos, "prefix name ending in ':'")
                name = self.next().text[:-1]
                iri_tok = self.peek()
                if iri_tok.kind != "IRIREF":
                    raise QuerySyntaxError(iri_tok.pos, "an IRI")
                self.next()
                self.prefixes[name] = iri_tok.text[1:-1]
            elif self.at_keyword("BASE"):
                raise UnsupportedFeature("BASE declaration")
            else:
                return

    def parse_projection(self) -> Optional[list[tuple[str, int]]]:
        if self.at_punct("*"):
            self.next()
            return None
        names: list[tuple[str, int]] = []
        while self.peek().kind == "VAR":
            tok = self.next()
            names.append((tok.text[1:], tok.pos))
        if not names:
            tok = self.peek()
            if self.at_punct("("):
                raise UnsupportedFeature("expressions in SELECT")
            raise QuerySyntaxError(tok.pos, "'*' or at least one variable")
        return names

    def parse_modifiers(self, distinct: bool) -> Modifiers:
        limit = offset = None
        order: list[tuple[str, bool]] = []
        while True:
            if self.at_keyword("ORDER"):
                self.next()
                self.expect_keyword("BY")
                order = self.parse_order_keys()
            elif self.at_keyword("LIMIT"):
                self.next()
                limit = self.parse_int()
            elif self.at_keyword("OFFSET"):
                self.next()
                offset = self.parse_int()
            elif self.at_keyword("GROUP", "HAVING"):
                raise UnsupportedFeature("aggregates")
            else:
                break
        return Modifiers(distinct, limit, offset, tuple(order))

    def parse_order_keys(self) -> list[tuple[str, bool]]:
        keys: list[tuple[str, bool]] = []
        while True:
            if self.peek().kind == "VAR":
                keys.append((self.next().text[1:], True))
            elif self.at_keyword("ASC", "DESC"):
                asc = self.next().text.upper() == "ASC"
                self.expect_punct("(")
                tok = self.peek()
                if tok.kind != "VAR":
                    raise QuerySyntaxError(tok.pos, "a variable")
                keys.append((self.next().text[1:], asc))
                self.expect_punct(")")
            else:
                break
        if not keys:
            raise QuerySyntaxError(self.peek().pos, "at least one sort key")
        return keys

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not re.fullmatch(r"\d+", tok.text):
            raise QuerySyntaxError(tok.pos, "a non-negative integer")
        self.next()
        return int(tok.text)

    # -- group graph patterns ----------------------------------------------

    def parse_group(self) -> Node:
        open_tok = self.expect_punct("{")
        acc: Optional[Node] = None
        pending: list[Constraint] = []
        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind == "EOF":
                raise QuerySyntaxError(tok.pos, "'}'")
            if tok.kind == "IDENT" and tok.text.upper() in _UNSUPPORTED_MEMBERS:
                raise UnsupportedFeature(_UNSUPPORTED_MEMBERS[tok.text.upper()])
            if self.at_keyword("SELECT"):
                raise UnsupportedFeature("subqueries")
            if self.at_keyword("OPTIONAL"):
                self.next()
                sub = self.parse_group()
                if acc is None:
                    raise UnsupportedFeature("OPTIONAL as first group member")
                acc = OpNode(OPT, acc, sub)
            elif self.at_keyword("FILTER"):
                self.next()
                pending.append(self.parse_constraint())
            elif self.at_punct("{"):
                sub = self.parse_group_or_union()
                acc = sub if acc is None else OpNode(AND, acc, sub)
            else:
                for tp in self.parse_triples_block():
                    leaf = Leaf(tp)
                    acc = leaf if acc is None else OpNode(AND, acc, leaf)
        self.expect_punct("}")
        if acc is None:
            raise QuerySyntaxError(open_tok.pos, "a non-empty group")
        for c in pending:
            acc = FilterNode(acc, c)
        return acc

    def parse_group_or_union(self) -> Node:
        node = self.parse_group()
        while self.at_keyword("UNION"):
            self.next()
            right = self.parse_group()
            node = OpNode(OR, node, right)
        return node

    def parse_triples_block(self) -> list[TriplePattern]:
        out: list[TriplePattern] = []
        while True:
            start = self.peek()
            subject = self.parse_pattern_atom("subject")
            while True:
                predicate = self.parse_predicate_atom()
                while True:
                    obj = self.parse_pattern_atom("object")
                    self.tp_counter += 1
                    tp = TriplePattern(self.tp_counter, subject, predicate, obj)
                    if not any(a.is_var() for a in (tp.s, tp.p, tp.o)):
                        raise QuerySyntaxError(
                            start.pos, "at least one variable in the triple pattern"
                        )
                    self.patterns.append(tp)
                    out.append(tp)
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
                if self.at_punct(";"):
                    self.next()
                    if self.at_punct(".", "}"):  # dangling ';' is tolerated
                        break
                    continue
                break
            if self.at_punct("."):
                self.next()
            if self.at_punct("}") or self.at_punct("{") or self.peek().kind == "EOF":
                return out
            if self.at_keyword("OPTIONAL", "FILTER", "UNION", "MINUS", "GRAPH",
                               "SERVICE", "BIND", "VALUES", "SELECT"):
                return out

    def parse_pattern_atom(self, which: str) -> Atom:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Var(tok.text[1:])
        if tok.kind == "IRIREF":
            self.next()
            return Term(tok.text[1:-1])
        if tok.kind == "PNAME":
            self.next()
            return Term(self.expand_pname(tok))
        if tok.kind == "STRING":
            return Term(self.parse_literal()[1])
        if tok.kind == "NUMBER":
            self.next()
            return Term(make_literal(tok.text))
        if tok.kind == "IDENT" and tok.text == "a":
            self.next()
            return Term(RDF_TYPE)
        if tok.kind == "PUNCT" and tok.text == "^":
            raise UnsupportedFeature("property paths")
        raise QuerySyntaxError(tok.pos, f"a term or variable for the {which}")

    def parse_predicate_atom(self) -> Atom:
        atom = self.parse_pattern_atom("predicate")
        if self.at_punct("/", "|", "*", "+", "^"):
            raise UnsupportedFeature("property paths")
        return atom

    def parse_literal(self) -> tuple[str, str]:
        """A STRING token with its language tag or datatype, if any: the
        lexical form and the term."""
        tok = self.next()
        lexical = _unescape_string(tok.text, tok.pos)
        if self.peek().kind == "LANGTAG":
            return lexical, make_literal(lexical, lang=self.next().text[1:])
        if self.at_punct("@"):
            raise QuerySyntaxError(self.peek().pos, "a language tag")
        if self.at_punct("^^"):
            self.next()
            dt_tok = self.peek()
            if dt_tok.kind == "IRIREF":
                self.next()
                return lexical, make_literal(lexical, datatype=dt_tok.text[1:-1])
            if dt_tok.kind == "PNAME":
                self.next()
                return lexical, make_literal(lexical, datatype=self.expand_pname(dt_tok))
            raise QuerySyntaxError(dt_tok.pos, "a datatype IRI")
        return lexical, make_literal(lexical)

    def expand_pname(self, tok: _Token) -> str:
        prefix, _, local = tok.text.partition(":")
        if prefix not in self.prefixes:
            raise QuerySyntaxError(tok.pos, f"a declared prefix (got {prefix!r}:)")
        return self.prefixes[prefix] + local

    # -- filter constraints --------------------------------------------------

    def parse_constraint(self) -> Constraint:
        if self.at_keyword("EXISTS"):
            raise UnsupportedFeature("FILTER EXISTS")
        if self.at_keyword("NOT"):
            raise UnsupportedFeature("FILTER NOT EXISTS")
        exprs: list[FilterExpr]
        if self.at_punct("("):
            self.next()
            exprs = self.parse_filter_conjunction()
            self.expect_punct(")")
        elif self.at_keyword("REGEX"):
            exprs = [self.parse_regex_call()]
        else:
            raise QuerySyntaxError(self.peek().pos, "'(' or regex(...)")
        self.constraint_counter += 1
        c = Constraint(self.constraint_counter, tuple(exprs))
        self.constraints.append(c)
        return c

    def parse_filter_conjunction(self) -> list[FilterExpr]:
        exprs = [self.parse_filter_atom()]
        while True:
            if self.at_punct("&&"):
                self.next()
                exprs.append(self.parse_filter_atom())
            elif self.at_punct("||"):
                raise UnsupportedFeature("disjunctive filters")
            else:
                return exprs

    def parse_filter_atom(self) -> FilterExpr:
        if self.at_punct("("):
            self.next()
            inner = self.parse_filter_conjunction()
            if len(inner) != 1:
                raise UnsupportedFeature("nested filter conjunctions")
            self.expect_punct(")")
            return inner[0]
        if self.at_keyword("EXISTS"):
            raise UnsupportedFeature("FILTER EXISTS")
        if self.at_keyword("NOT"):
            raise UnsupportedFeature("FILTER NOT EXISTS")
        if self.at_keyword("REGEX"):
            return self.parse_regex_call()

        left_var, left_const = self.parse_filter_operand()
        op_tok = self.peek()
        if op_tok.kind != "PUNCT" or op_tok.text not in ("=", "!=", "<", "<=", ">", ">="):
            raise QuerySyntaxError(op_tok.pos, "a comparison operator")
        op = self.next().text
        right_var, right_const = self.parse_filter_operand()

        if left_var is not None and right_var is not None:
            raise UnsupportedFeature("variable-to-variable comparison")
        if left_var is None and right_var is None:
            raise UnsupportedFeature("constant-only filter")
        if left_var is not None:
            assert right_const is not None
            return FilterExpr(left_var, op, right_const)
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        assert left_const is not None and right_var is not None
        return FilterExpr(right_var, flipped, left_const)

    def parse_filter_operand(self) -> tuple[Optional[str], Optional[str]]:
        """Returns (var_name, None) or (None, constant_lexical)."""
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return tok.text[1:], None
        if tok.kind == "IDENT" and tok.text.upper() == "STR":
            self.next()
            self.expect_punct("(")
            var = self.parse_var_token()
            self.expect_punct(")")
            return var, None
        if tok.kind == "PNAME":
            self.next()
            if not self.at_punct("("):
                return None, self.expand_pname(tok)
            # cast syntax like xsd:integer(?v); comparisons are generic anyway
            self.next()
            var = self.parse_var_token()
            self.expect_punct(")")
            return var, None
        if tok.kind == "NUMBER":
            self.next()
            return None, tok.text
        if tok.kind == "STRING":
            return None, self.parse_literal()[0]
        if tok.kind == "IRIREF":
            self.next()
            return None, tok.text[1:-1]
        raise QuerySyntaxError(tok.pos, "a filter operand")

    def parse_var_token(self) -> str:
        tok = self.peek()
        if tok.kind != "VAR":
            raise QuerySyntaxError(tok.pos, "a variable")
        self.next()
        return tok.text[1:]

    def parse_regex_call(self) -> FilterExpr:
        self.expect_keyword("REGEX")
        self.expect_punct("(")
        var, const = self.parse_filter_operand()
        if var is None:
            raise QuerySyntaxError(self.peek().pos, "a variable as the regex subject")
        self.expect_punct(",")
        pat_tok = self.peek()
        if pat_tok.kind != "STRING":
            raise QuerySyntaxError(pat_tok.pos, "a string regex pattern")
        pattern = _unescape_string(self.next().text, pat_tok.pos)
        flags = ""
        if self.at_punct(","):
            self.next()
            flag_tok = self.peek()
            if flag_tok.kind != "STRING":
                raise QuerySyntaxError(flag_tok.pos, "a string of regex flags")
            flags = _unescape_string(self.next().text, flag_tok.pos)
        self.expect_punct(")")
        return FilterExpr(var, "regex", pattern, flags)


def _unescape_string(text: str, pos: int) -> str:
    """The value of the STRING token `text` at offset `pos`; its escapes
    are those of N-Triples literals."""
    try:
        return unescape(text[1:-1])
    except EscapeError as exc:
        raise QuerySyntaxError(pos + 1 + exc.offset, f"a valid escape ({exc.reason})") from None


def _collect_operators(node: Node) -> set[str]:
    if isinstance(node, Leaf):
        return set()
    if isinstance(node, FilterNode):
        return {FILTER} | _collect_operators(node.child)
    return {node.kind} | _collect_operators(node.left) | _collect_operators(node.right)


def parse_query(text: str) -> Query:
    """Parse one SELECT query. See module docstring for the subset."""
    return _Parser(text).parse_query()


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse_query)
# ---------------------------------------------------------------------------

def pretty_print(q: Query) -> str:
    head = "SELECT "
    if q.modifiers.distinct:
        head += "DISTINCT "
    head += " ".join(f"?{v}" for v in q.projection)
    body = _render_group(q.tree, q)
    parts = [head, "WHERE " + body]
    if q.modifiers.order_by:
        keys = " ".join(f"?{v}" if asc else f"DESC(?{v})" for v, asc in q.modifiers.order_by)
        parts.append(f"ORDER BY {keys}")
    if q.modifiers.limit is not None:
        parts.append(f"LIMIT {q.modifiers.limit}")
    if q.modifiers.offset is not None:
        parts.append(f"OFFSET {q.modifiers.offset}")
    return "\n".join(parts) + "\n"


def _render_group(node: Node, q: Query) -> str:
    return "{ " + " ".join(_render_seq(node, q, whole_group=True)) + " }"


def _render_seq(node: Node, q: Query, whole_group: bool) -> list[str]:
    if isinstance(node, OpNode) and node.kind == AND:
        return _render_seq(node.left, q, False) + [_render_member(node.right, q)]
    if isinstance(node, OpNode) and node.kind == OPT:
        return _render_seq(node.left, q, False) + [
            "OPTIONAL " + _render_group(node.right, q)
        ]
    if isinstance(node, FilterNode):
        if whole_group:
            return _render_seq(node.child, q, True) + [_render_filter(node.constraint)]
        return [_render_group(node, q)]
    return [_render_member(node, q)]


def _render_member(node: Node, q: Query) -> str:
    if isinstance(node, Leaf):
        return _render_triple(node.tp)
    if isinstance(node, OpNode) and node.kind == OR:
        return " UNION ".join(_render_group(b, q) for b in _flatten_or(node))
    return _render_group(node, q)


def _flatten_or(node: Node) -> list[Node]:
    if isinstance(node, OpNode) and node.kind == OR:
        return _flatten_or(node.left) + [node.right]
    return [node]


def _render_triple(tp: TriplePattern) -> str:
    return f"{_render_atom(tp.s)} {_render_atom(tp.p)} {_render_atom(tp.o)} ."


def _render_atom(atom: Atom) -> str:
    if atom.is_var():
        return f"?{atom.name}"
    value = atom.value
    if value.startswith('"') or value.startswith("_:"):
        return value
    return f"<{value}>"


def _render_filter(c: Constraint) -> str:
    parts = []
    for e in c.exprs:
        if e.op == "regex":
            flag_part = f', "{escape_literal(e.flags)}"' if e.flags else ""
            parts.append(f'regex(str(?{e.var}), "{escape_literal(e.operand)}"{flag_part})')
        else:
            operand = e.operand
            if not re.fullmatch(NUMERAL, operand):
                operand = f'"{escape_literal(operand)}"'
            parts.append(f"?{e.var} {e.op} {operand}")
    return "FILTER (" + " && ".join(parts) + ")"
