"""Golden traces: every policy's decisions, plans and rows stay as recorded.

Each run is one query on one dataset under one policy (`static`, `eager`,
`rosie`) and one tau (2 or 8). The golden file stores, per run, the trace
steps without their `ms` field (as `[leaf, est, lo, hi, hi_adj, decision,
actual]`), `trace.plans`, the result row count and a digest of the result
rows in order. It stores no query text: the runs are rebuilt from the
named fixtures and from seeded `genqueries` datasets and queries.

A refactor that must keep results and `--trace-json` decisions identical
passes this test unchanged. After a change that alters decisions on
purpose, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_trace_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from rosie.datagen import (
    ADVERSARIAL_QUERY,
    CORRELATED_STAR_QUERY,
    UNCORRELATED_STAR_QUERY,
    adversarial_fanout,
    correlated_star,
    uncorrelated_uniform,
)
from rosie.frontend import parse_query
from rosie.runtime import POLICY_KINDS, Policy, run
from rosie.store import load_ntriples

from conftest import D_TOY_NT, qe_weights_dataset
from genqueries import random_dataset, random_query_text
from test_acceptance import FIXTURE_QUERIES

GOLDEN = Path(__file__).with_name("data") / "trace_golden.json"
TAUS = (2.0, 8.0)
GEN_DATASETS = 100
GEN_QUERIES_PER_DATASET = 2


def named_workloads():
    """(name, dataset, query text) of the fixture runs, each on a fresh
    dataset so that its relation ids do not depend on the runs before it."""
    for fname, text in FIXTURE_QUERIES:
        d = qe_weights_dataset() if fname == "example.rq" else load_ntriples(D_TOY_NT)
        yield f"fixture:{fname}", d, text
    yield "correlated_star", correlated_star(), CORRELATED_STAR_QUERY
    yield "uncorrelated_uniform", uncorrelated_uniform(), UNCORRELATED_STAR_QUERY
    yield "adversarial_fanout", adversarial_fanout(), ADVERSARIAL_QUERY


def gen_workloads():
    """(name, dataset, query text) of the seeded `genqueries` runs."""
    for seed in range(GEN_DATASETS):
        rng = random.Random(f"trace-golden-{seed}")
        d = random_dataset(rng, 400)
        for i in range(GEN_QUERIES_PER_DATASET):
            yield f"gen:{seed}:{i}", d, random_query_text(rng, max_tps=8)


def record_runs(name, d, text):
    """Golden record of each policy and tau for one query, keyed by run name."""
    q = parse_query(text)
    out = {}
    for kind in POLICY_KINDS:
        for tau in TAUS:
            rel, trace = run(q, d, Policy(kind, tau=tau))
            rows = [
                [None if t is None else d.dict.decode(t) for t in row]
                for row in rel.rows
            ]
            payload = json.dumps([list(rel.schema), rows], separators=(",", ":"))
            out[f"{name}|{kind}|tau={tau:g}"] = {
                "steps": [
                    [s.leaf, s.est, s.lo, s.hi, s.hi_adj, s.decision, s.actual]
                    for s in trace.steps
                ],
                "plans": list(trace.plans),
                "rows": len(rel.rows),
                "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16],
            }
    # the file holds JSON; compare the same shapes and numbers it round-trips
    return json.loads(json.dumps(out))


def all_records(workloads):
    records = {}
    for name, d, text in workloads:
        records.update(record_runs(name, d, text))
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _mismatches(golden, got):
    return [key for key in got if golden.get(key) != got[key]]


def test_fixture_traces_match_golden(golden):
    got = all_records(named_workloads())
    bad = _mismatches(golden, got)
    assert not bad, bad


def test_genqueries_traces_match_golden(golden):
    got = all_records(gen_workloads())
    bad = _mismatches(golden, got)
    assert not bad, f"{len(bad)} of {len(got)} runs differ, first: {bad[:5]}"


def test_golden_covers_exactly_these_runs(golden):
    names = [name for name, _, _ in named_workloads()]
    names += [
        f"gen:{seed}:{i}"
        for seed in range(GEN_DATASETS)
        for i in range(GEN_QUERIES_PER_DATASET)
    ]
    expected = {
        f"{name}|{kind}|tau={tau:g}"
        for name in names for kind in POLICY_KINDS for tau in TAUS
    }
    assert set(golden) == expected


def write_golden() -> None:
    records = all_records(list(named_workloads()) + list(gen_workloads()))
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in records.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
