"""Spans for the traced pass, recorded from the benchmark's own files.

`Tracer.install` rebinds the layer entry points that the program calls
(for example `rosie.executor.scan`, which the executor calls for every
pattern) and the names through which the benchmark itself calls into the
program. Each call then records a span: name, start, end, parent span,
operation id and a count (rows, bytes) taken from its arguments or result.
Spans stay in memory and are written out when the run ends.

    python3 bench/tracing.py bench/out/spans-adaptive-seed1.json

prints each layer's share of operation time from such a dump.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads  # first: it puts the repository's src/ on sys.path
import rosie.executor
import rosie.runtime


def _rows(args, out):
    return len(out.rows)


# (module, attribute, span name, count). The first group is the benchmark's
# own calls into the program, the second the calls between layers.
HOOKS = (
    (workloads, "load_ntriples", "store.load_ntriples", None),
    (workloads, "snapshot_save", "store.snapshot_save", lambda args, out: args[1].tell()),
    (workloads, "snapshot_load", "store.snapshot_load", None),
    (workloads, "parse_query", "frontend.parse_query", None),
    (workloads, "run", "runtime.run", lambda args, out: len(out[0].rows)),
    (rosie.executor, "scan", "store.scan", _rows),
    (rosie.runtime, "register_intermediate", "store.register_intermediate",
     lambda args, out: len(args[1].rows)),
    (rosie.runtime, "build_qrg", "qrg.build_qrg", None),
    (rosie.runtime, "collapse_materialized", "qrg.collapse_materialized", None),
    (rosie.runtime, "plan_cs", "planner.plan_cs", None),
    (rosie.runtime, "linearize", "planner.linearize", None),
    (rosie.runtime, "profile_unit", "runtime.profile_unit", None),
    (rosie.runtime, "compile_cs", "executor.compile_cs", None),
    (rosie.runtime, "execute", "executor.execute", _rows),
)

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.next_op = 0
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = perf_counter()
            if count is not None:
                spans[idx][COUNT] = count(args, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, count in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def operation(self, op_fn):
        """`op_fn` wrapped in an `op` span that numbers the operations."""
        wrapped = self.wrap("op", op_fn)

        def op(*args):
            self.op = self.next_op
            self.next_op += 1
            try:
                return wrapped(*args)
            finally:
                self.op = -1

        return op

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_seconds(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [sp[END] - sp[START] for sp in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            own[sp[PARENT]] -= sp[END] - sp[START]
    return own


def layer_summary(spans: list[list], ops: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms (outermost spans of that name only,
    so a recursive layer is not counted twice), self ms and counts.

    Spans outside operations (set-up, the snapshot round trip) are summed
    separately under the same keys with `calls_all`/`ms_all`/`count_all`.
    """
    own = self_seconds(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for idx, sp in enumerate(spans):
        name = sp[NAME]
        parent = sp[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if nested:
            continue
        ms = (sp[END] - sp[START]) * 1000.0
        row = out[name]
        row["calls_all"] += 1
        row["ms_all"] += ms
        row["count_all"] += sp[COUNT]
        if sp[OP] >= 0:
            row["calls"] += 1 / ops
            row["ms"] += ms / ops
            row["self_ms"] += own[idx] * 1000.0 / ops
            row["count"] += sp[COUNT] / ops
    return out


def qerrors(traces) -> tuple[list[float], int]:
    """q-error of every step that carries an actual count, and the number
    of those steps whose actual count lies outside [lo, hi]."""
    errs, violations = [], 0
    for trace in traces:
        for step in trace.steps:
            if step.actual is None:
                continue
            est, actual = max(step.est, 1.0), max(float(step.actual), 1.0)
            errs.append(max(est / actual, actual / est))
            if not step.lo <= step.actual <= step.hi:
                violations += 1
    return errs, violations


def print_shares(path: str) -> None:
    """Self time per span name inside operations, as a share of the time
    of all `op` spans, largest first; `op` itself is the benchmark's glue."""
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    ops = 1 + max(sp[OP] for sp in spans)
    total = sum(sp[END] - sp[START] for sp in spans if sp[NAME] == "op")
    by_name: dict[str, float] = defaultdict(float)
    for sp, seconds in zip(spans, self_seconds(spans)):
        if sp[OP] >= 0:
            by_name[sp[NAME]] += seconds
    print(f"{'layer':32s} {'share':>7s} {'self ms/op':>11s}")
    for name, seconds in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"{name:32s} {seconds / total:7.1%} {seconds * 1000.0 / ops:11.3f}")


if __name__ == "__main__":
    print_shares(sys.argv[1])
