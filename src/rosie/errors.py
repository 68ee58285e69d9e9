"""Exception types shared across the engine.

Names mirror the conditions they signal; a few carry structured fields
(line numbers, positions) so callers can render precise diagnostics.
"""

from __future__ import annotations


class RosieError(Exception):
    """Base class for all engine errors."""


class ParseError(RosieError):
    """Malformed N-Triples input; aborts the load."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EscapeError(RosieError):
    """Malformed escape in a string body; `offset` is the backslash's index.

    Each parser maps it to its own error with a line or a query offset.
    """

    def __init__(self, offset: int, reason: str):
        super().__init__(reason)
        self.offset = offset
        self.reason = reason


class SnapshotFormatError(RosieError):
    """Snapshot stream does not carry the expected magic/version."""


class QuerySyntaxError(RosieError):
    """Query text rejected; `pos` is a character offset into the input.

    Named to avoid shadowing the builtin SyntaxError.
    """

    def __init__(self, pos: int, expected: str):
        super().__init__(f"at offset {pos}: expected {expected}")
        self.pos = pos
        self.expected = expected


class UnsupportedFeature(RosieError):
    """Query uses a construct outside the supported subset."""

    def __init__(self, name: str):
        super().__init__(f"unsupported feature: {name}")
        self.feature = name


class InvalidCollapse(RosieError):
    """Requested collapse would reorder a left-outer-join boundary."""


class NotExchangeable(RosieError):
    """Exchange rewrite addressed a subtree that mixes operators."""


class ShapeMismatch(RosieError):
    """Distribute rewrite applied to a node that does not match the rule."""


class PlanningStuck(RosieError):
    """No admissible candidate during plan construction (malformed graph)."""


class DegenerateCard(RosieError):
    """Join selectivity bounds need operand cardinalities >= 1."""


class ZeroEstimate(RosieError):
    """Error ratio undefined: estimate is zero while the real count is not."""


class UnresolvedLeaf(RosieError):
    """Plan leaf references an unknown pattern or intermediate relation."""


class QueryTimeout(RosieError):
    """Configured wall-clock budget exceeded."""

    def __init__(self, budget_ms: float):
        super().__init__(f"query exceeded {budget_ms:.0f} ms budget")
        self.budget_ms = budget_ms
