"""Embeddable SPARQL-subset engine with greedy planning and mid-query
re-optimization over incrementally materialized partial results."""

from .errors import (
    DegenerateCard,
    InvalidCollapse,
    NotExchangeable,
    ParseError,
    PlanningStuck,
    QuerySyntaxError,
    QueryTimeout,
    RosieError,
    ShapeMismatch,
    SnapshotFormatError,
    UnresolvedLeaf,
    UnsupportedFeature,
    ZeroEstimate,
)
from .frontend import parse_query, pretty_print
from .planner import cs_to_string, plan_cs
from .qrg import build_qrg
from .runtime import Policy, emit_trace, run
from .store import Dataset, load_ntriples, resolve, scan, snapshot_load, snapshot_save

__all__ = [
    "Dataset",
    "Policy",
    "build_qrg",
    "cs_to_string",
    "emit_trace",
    "load_ntriples",
    "parse_query",
    "plan_cs",
    "pretty_print",
    "resolve",
    "run",
    "scan",
    "snapshot_load",
    "snapshot_save",
    "DegenerateCard",
    "InvalidCollapse",
    "NotExchangeable",
    "ParseError",
    "PlanningStuck",
    "QuerySyntaxError",
    "QueryTimeout",
    "RosieError",
    "ShapeMismatch",
    "SnapshotFormatError",
    "UnresolvedLeaf",
    "UnsupportedFeature",
    "ZeroEstimate",
]
