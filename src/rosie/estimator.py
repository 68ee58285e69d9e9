"""Cardinality and selectivity estimation with error intervals.

Point estimates follow the independence assumption for triple patterns and
the containment assumption for joins. Alongside every point estimate the
module can compute a [lo, hi] interval for the *real* cardinality from the
same single-value histograms; the ratio interval/estimate is the error
bound that drives mid-query re-optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateCard, ZeroEstimate
from .frontend import AND, OPT, OR
from .store import Stats, TermDictionary

JOIN_TYPES = ("SS", "SO", "OO", "SP", "OP", "PP", "NONE")

# Default selectivities for filter constraints; tunable plumbing.
EQUALITY_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
REGEX_SELECTIVITY = 0.25
FILTER_ERROR_LO = 0.5
FILTER_ERROR_HI = 2.0


@dataclass(frozen=True)
class CardinalityInterval:
    """[lo, hi] bounds on a real cardinality; exact values have lo == hi."""

    lo: float
    hi: float

    @classmethod
    def point(cls, value: float) -> "CardinalityInterval":
        return cls(value, value)

    @property
    def is_empty(self) -> bool:
        return self.hi <= 0.0


EMPTY = CardinalityInterval(0.0, 0.0)


def _bound_count(atom, stats: Stats, dictionary: TermDictionary, role: str) -> Optional[int]:
    """Histogram count for a bound position, or None when the atom is a var."""
    if atom.is_var():
        return None
    tid = dictionary.lookup(atom.value)
    if tid is None:
        return 0
    return stats.count(tid, role)


def estimate_tp(tp, stats: Stats, dictionary: TermDictionary) -> float:
    """Independence estimate |D| * p(S) * p(P) * p(O); 0 when a term is absent."""
    size = stats.size
    if size == 0:
        return 0.0
    p = 1.0
    for role, atom in tp.atoms():
        count = _bound_count(atom, stats, dictionary, role)
        if count is None:
            continue
        if count == 0:
            return 0.0
        p *= count / size
    return p * size


def estimate_join(card_i: float, card_j: float, jt: str) -> float:
    """Containment estimate of a join; Cartesian product when jt is NONE."""
    if jt == "NONE":
        return card_i * card_j
    return card_i * card_j / max(card_i, card_j, 1.0)


def tp_bounds(tp, stats: Stats, dictionary: TermDictionary) -> CardinalityInterval:
    """Real-cardinality bounds for one pattern.

    Patterns with two or more variables are captured exactly by the
    histograms. One-variable patterns get [max(1, product/|D|), min(counts)].
    A fully bound pattern (the parser rejects it; only a hand-built query
    has one) matches at most one triple: [0, 1]. A bound term absent from
    the data gives the empty interval, so the interval is empty exactly
    when `estimate_tp` is 0.
    """
    counts: list[int] = []
    for role, atom in tp.atoms():
        c = _bound_count(atom, stats, dictionary, role)
        if c is not None:
            if c == 0:
                return EMPTY
            counts.append(c)

    n_bound = len(counts)
    if n_bound == 0:
        return CardinalityInterval.point(float(stats.size))
    if n_bound == 1:
        return CardinalityInterval.point(float(counts[0]))
    if n_bound == 2:
        size = max(stats.size, 1)
        lo = max(1.0, counts[0] * counts[1] / size)
        hi = float(min(counts))
        return CardinalityInterval(lo, hi)
    return CardinalityInterval(0.0, 1.0)


def join_selectivity_bounds(jt: str, card_i: float, card_j: float) -> tuple[float, float]:
    """Selectivity interval of one join predicate (Cartesian: exactly 1)."""
    if jt == "NONE":
        return (1.0, 1.0)
    if card_i < 1.0 or card_j < 1.0:
        raise DegenerateCard(f"cards ({card_i}, {card_j}) must be >= 1")
    lo = 1.0 / (card_i * card_j)
    if jt in ("SS", "OO", "PP"):
        return (lo, 1.0 / max(card_i, card_j))
    return (lo, 1.0)


def join_interval(
    left: CardinalityInterval, right: CardinalityInterval, jt: str, op: str
) -> CardinalityInterval:
    """Bounds on the real cardinality of `left op right`.

    And: empty if either side is; otherwise the product of the sides and
    the join-selectivity interval, evaluated at the hi cardinalities (that
    keeps the map monotone in every input interval), with lo clamped to
    >= 1. Opt keeps every left row: empty only with an empty left side,
    the left interval itself with an empty right side, otherwise at most
    one extension per left row and right row plus each left row unmatched.
    Or adds the two sides' bounds (`jt` is ignored).
    """
    if op == OR:
        return CardinalityInterval(left.lo + right.lo, left.hi + right.hi)
    if op == OPT:
        if left.is_empty:
            return EMPTY
        if right.is_empty:
            return left
        return CardinalityInterval(left.lo, left.hi * right.hi + left.hi)
    if left.is_empty or right.is_empty:
        return EMPTY
    sel_lo, sel_hi = join_selectivity_bounds(jt, max(left.hi, 1.0), max(right.hi, 1.0))
    return CardinalityInterval(
        max(1.0, left.lo * right.lo * sel_lo), left.hi * right.hi * sel_hi
    )


def filter_interval(iv: CardinalityInterval, selectivity: float) -> CardinalityInterval:
    """Bounds after a filter of the given default selectivity, widened by
    FILTER_ERROR_LO/FILTER_ERROR_HI; empty stays empty."""
    if iv.is_empty:
        return EMPTY
    lo = max(1.0, iv.lo * selectivity * FILTER_ERROR_LO)
    return CardinalityInterval(lo, max(lo, iv.hi * min(1.0, selectivity * FILTER_ERROR_HI)))


def cs_bounds(steps: list[tuple[CardinalityInterval, Optional[str]]]) -> CardinalityInterval:
    """Bounds for a chain of joined patterns: a left fold of `join_interval`.

    `steps` pairs each pattern interval with the join type linking it to the
    chain built so far (the first entry's type is ignored; None means a
    Cartesian step). A non-empty result has lo >= 1.
    """
    if not steps:
        raise ValueError("need at least one step")
    acc = steps[0][0]
    for iv, jt in steps[1:]:
        acc = join_interval(acc, iv, jt or "NONE", AND)
    if acc.is_empty:
        return EMPTY
    return CardinalityInterval(max(acc.lo, 1.0), acc.hi)


def error_ratio(real: float, est: float) -> float:
    """real/estimated; < 1 flags an over-estimate, > 1 an under-estimate."""
    if est == 0.0:
        if real == 0.0:
            return 1.0
        raise ZeroEstimate(f"real cardinality {real} with zero estimate")
    return real / est


def adjusted_upper(bounds: CardinalityInterval, sigma: float) -> float:
    """The hi bound scaled down by sigma, never below lo."""
    return max(bounds.lo, sigma * bounds.hi)


def adjusted_upper_error(bounds: CardinalityInterval, est: float, sigma: float) -> float:
    """The adjusted upper bound over the estimate."""
    if est <= 0.0:
        raise ZeroEstimate("adjusted error needs a positive estimate")
    return adjusted_upper(bounds, sigma) / est


# ---------------------------------------------------------------------------
# Join classification
# ---------------------------------------------------------------------------

def classify_join(
    left_positions: dict[str, str],
    right_positions: dict[str, str],
    var_order: dict[str, int],
) -> tuple[str, Optional[str]]:
    """Join type between two operands given each side's variable positions.

    With several shared variables the first one (lowest query-order id)
    decides; no shared variable means a Cartesian product.
    """
    shared = set(left_positions) & set(right_positions)
    if not shared:
        return "NONE", None
    var = min(shared, key=lambda v: (var_order.get(v, len(var_order)), v))
    pair = frozenset((left_positions[var], right_positions[var]))
    if pair == frozenset(("S",)):
        kind = "SS"
    elif pair == frozenset(("S", "O")):
        kind = "SO"
    elif pair == frozenset(("O",)):
        kind = "OO"
    elif pair == frozenset(("S", "P")):
        kind = "SP"
    elif pair == frozenset(("O", "P")):
        kind = "OP"
    else:
        kind = "PP"
    return kind, var


def constraint_selectivity(constraint) -> float:
    """Product of per-comparison default selectivities for one constraint."""
    sel = 1.0
    for expr in constraint.exprs:
        if expr.op == "=":
            sel *= EQUALITY_SELECTIVITY
        elif expr.op == "regex":
            sel *= REGEX_SELECTIVITY
        elif expr.op == "!=":
            sel *= 1.0 - EQUALITY_SELECTIVITY
        else:
            sel *= RANGE_SELECTIVITY
    return sel
