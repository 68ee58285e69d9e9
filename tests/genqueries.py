"""Seeded random datasets and queries for differential testing.

Queries are produced as text in the supported grammar: a conjunctive core
whose patterns chain on shared variables, optionally a union of small
groups, an optional block, and a filter over a bound variable. Terms mix
dataset vocabulary with occasional unknowns so empty scans stay covered.

Run as a script (`PYTHONPATH=src python tests/genqueries.py`), it prints
one SHA-256 over a fixed sweep (`sweep_digest`): a change that keeps every
result and every trace decision keeps the digest.
"""

from __future__ import annotations

import io
import json
import random

from rosie.frontend import parse_query
from rosie.runtime import POLICY_KINDS, Policy, emit_trace, run
from rosie.store import Dataset, make_literal


def random_dataset(rng: random.Random, max_triples: int = 400) -> Dataset:
    n = rng.randrange(0, max_triples)
    n_s = max(3, n // 8)
    n_p = rng.randrange(3, 10)
    n_o = max(4, n // 6)
    triples = []
    for _ in range(n):
        s = f"s{rng.randrange(n_s)}"
        p = f"p{rng.randrange(n_p)}"
        if rng.random() < 0.25:
            o = make_literal(f"lit{rng.randrange(8)}")
        elif rng.random() < 0.5:
            o = f"s{rng.randrange(n_s)}"  # subject/object overlap for chains
        else:
            o = f"o{rng.randrange(n_o)}"
        triples.append((s, p, o))
    return Dataset.from_strings(triples)


class QueryBuilder:
    def __init__(self, rng: random.Random, max_tps: int = 8):
        self.rng = rng
        self.max_tps = max_tps
        self.tp_budget = rng.randrange(1, max_tps + 1)
        self.used = 0
        self.vars: list[str] = []
        self.var_counter = 0

    def fresh_var(self) -> str:
        name = f"v{self.var_counter}"
        self.var_counter += 1
        self.vars.append(name)
        return name

    def some_var(self) -> str:
        if self.vars and self.rng.random() < 0.8:
            return self.rng.choice(self.vars)
        return self.fresh_var()

    def term(self, kind: str) -> str:
        rng = self.rng
        if rng.random() < 0.08:
            return f"<unknown{rng.randrange(5)}>"
        if kind == "P":
            return f"<p{rng.randrange(10)}>"
        if kind == "S":
            return f"<s{rng.randrange(12)}>"
        if rng.random() < 0.3:
            return f'"lit{rng.randrange(8)}"'
        return f"<{'s' if rng.random() < 0.5 else 'o'}{rng.randrange(12)}>"

    def triple(self) -> str:
        rng = self.rng
        self.used += 1
        s = f"?{self.some_var()}" if rng.random() < 0.8 else self.term("S")
        p = f"?{self.some_var()}" if rng.random() < 0.12 else self.term("P")
        o = f"?{self.some_var()}" if rng.random() < 0.65 else self.term("O")
        if not any(x.startswith("?") for x in (s, p, o)):
            o = f"?{self.fresh_var()}"
        return f"{s} {p} {o} ."

    def triples_block(self, count: int) -> str:
        return " ".join(self.triple() for _ in range(count))

    def build(self) -> str:
        rng = self.rng
        parts: list[str] = []
        main = max(1, min(self.tp_budget, rng.randrange(1, 4)))
        parts.append(self.triples_block(main))

        if self.tp_budget - self.used >= 2 and rng.random() < 0.5:
            left = self.triples_block(1)
            right = self.triples_block(min(2, self.tp_budget - self.used))
            parts.append("{ %s } UNION { %s }" % (left, right))

        if self.vars and rng.random() < 0.6:
            var = rng.choice(self.vars)
            if rng.random() < 0.4:
                parts.append('FILTER regex(str(?%s), "%s")' % (var, rng.choice("ls015")))
            else:
                op = rng.choice(["=", "!=", "<", ">", "<=", ">="])
                if rng.random() < 0.5:
                    parts.append("FILTER(?%s %s %d)" % (var, op, rng.randrange(9)))
                else:
                    parts.append('FILTER(?%s %s "lit%d")' % (var, op, rng.randrange(8)))

        if self.tp_budget - self.used >= 1 and rng.random() < 0.5:
            parts.append("OPTIONAL { %s }" % self.triples_block(
                min(2, max(1, self.tp_budget - self.used))
            ))

        return "SELECT * WHERE { %s }" % " ".join(parts)


def random_query_text(rng: random.Random, max_tps: int = 8) -> str:
    return QueryBuilder(rng, max_tps).build()


def sweep_digest(seeds: range = range(200), queries: int = 8) -> str:
    """One SHA-256 over `queries` random queries per seed, each run under
    every policy on a fresh copy of the seed's dataset, so that relation
    ids do not depend on earlier runs. Each run contributes its schema, its
    decoded rows in order, `trace.plans` and its `--trace-json` document
    without the `ms` and `total_ms` timings."""
    # imported here: hashlib loads OpenSSL, some 3.5 MB of resident memory
    # that every process importing this module (the benchmark's too) would
    # carry
    import hashlib

    digest = hashlib.sha256()
    for seed in seeds:
        rng = random.Random(seed)
        random_dataset(rng)
        for text in [random_query_text(rng) for _ in range(queries)]:
            q = parse_query(text)
            for kind in POLICY_KINDS:
                d = random_dataset(random.Random(seed))
                rel, trace = run(q, d, Policy(kind))
                rows = [[None if t is None else d.dict.decode(t) for t in row] for row in rel.rows]
                sink = io.StringIO()
                emit_trace(trace, sink)
                doc = json.loads(sink.getvalue())
                del doc["total_ms"]
                for step in doc["steps"]:
                    del step["ms"]
                record = [list(rel.schema), rows, trace.plans, doc]
                digest.update(json.dumps(record, separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()


if __name__ == "__main__":
    print(sweep_digest())
