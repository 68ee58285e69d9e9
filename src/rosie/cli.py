"""Command-line entry points: load data, run queries, benchmark policies.

Exit codes: 0 success, 1 parse/syntax error (a query file that is not
UTF-8 included), 2 I/O or snapshot error or a bad option value, 3 timeout,
4 unsupported query feature, 5 benchmark with zero successful queries.
Data goes to stdout (TSV/CSV); diagnostics go to stderr.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Optional

import click

from .errors import (
    ParseError,
    QuerySyntaxError,
    QueryTimeout,
    RosieError,
    SnapshotFormatError,
    UnsupportedFeature,
)
from .frontend import parse_query
from .planner import cs_to_string, plan_cs
from .qrg import build_qrg, render_dot
from .runtime import Policy, emit_trace, run
from .store import Dataset, load_ntriples, snapshot_load, snapshot_save

SNAPSHOT_NAME = "data.rosiedb"


@click.group()
def main() -> None:
    """An embeddable SPARQL-subset engine with runtime re-optimization."""


def _db_file(db: str) -> Path:
    return Path(db) / SNAPSHOT_NAME


def _load_dataset(db: str) -> Dataset:
    with open(_db_file(db), "rb") as fh:
        return snapshot_load(fh)


def _policies(kinds: list[str], tau: float, sigma: float) -> list[Policy]:
    """The policies of the given kinds, or a usage error naming the bad value."""
    try:
        return [Policy(kind, tau=tau, sigma=sigma) for kind in kinds]
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _positive(ctx, param, value: Optional[float]) -> Optional[float]:
    if value is not None and not value > 0:  # NaN fails too
        raise click.BadParameter("must be a positive number")
    return value


def format_ms(value: float) -> str:
    if value < 1.0:
        return f"{value:.1f}"
    return str(round(value))


@main.command("load")
@click.argument("source")
@click.option("--db", required=True, help="Directory for the snapshot file.")
def cmd_load(source: str, db: str) -> None:
    """Load an N-Triples file and write a snapshot."""
    try:
        with open(source, "rb") as fh:
            dataset = load_ntriples(fh)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(2)
    try:
        Path(db).mkdir(parents=True, exist_ok=True)
        # write beside the snapshot and rename over it, so that a failed
        # write leaves any previous snapshot whole
        tmp = Path(db) / f".{SNAPSHOT_NAME}.tmp"
        try:
            with open(tmp, "wb") as fh:
                snapshot_save(dataset, fh)
            os.replace(tmp, _db_file(db))
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"triples={dataset.size} terms={len(dataset.dict)}")


@main.command("query")
@click.option("--db", required=True)
@click.option("--file", "query_file", required=True)
@click.option("--policy", type=click.Choice(["static", "eager", "rosie"]), default="rosie")
@click.option("--tau", type=float, default=8.0, show_default=True)
@click.option("--sigma", type=float, default=0.05, show_default=True)
@click.option("--explain", is_flag=True, help="Print the query graph (DOT) and plan to stderr.")
@click.option("--trace-json", "trace_path", type=click.Path(), default=None)
@click.option("--timeout-ms", type=float, default=None, callback=_positive)
def cmd_query(db, query_file, policy, tau, sigma, explain, trace_path, timeout_ms) -> None:
    """Run one query file against a loaded snapshot; TSV rows to stdout."""
    (pol,) = _policies([policy], tau, sigma)
    try:
        dataset = _load_dataset(db)
    except (OSError, SnapshotFormatError) as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(2)
    try:
        text = Path(query_file).read_text(encoding="utf-8")
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(2)
    except UnicodeDecodeError as exc:
        click.echo(f"syntax error: {query_file}: not UTF-8: {exc}", err=True)
        sys.exit(1)

    try:
        q = parse_query(text)
    except QuerySyntaxError as exc:
        click.echo(f"syntax error: {exc}", err=True)
        sys.exit(1)
    except UnsupportedFeature as exc:
        click.echo(str(exc), err=True)
        sys.exit(4)

    if explain:
        g = build_qrg(q, dataset.stats, dataset.dict)
        click.echo(render_dot(g), err=True, nl=False)
        click.echo(f"CS: {cs_to_string(plan_cs(g))}", err=True)

    try:
        result, trace = run(q, dataset, pol, timeout_ms=timeout_ms, query_text=text.strip())
    except QueryTimeout as exc:
        click.echo(str(exc), err=True)
        sys.exit(3)
    except RosieError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)

    out = sys.stdout
    out.write("\t".join(f"?{v}" for v in result.schema) + "\n")
    for row in result.rows:
        cells = ["" if cell is None else dataset.dict.decode(cell) for cell in row]
        out.write("\t".join(cells) + "\n")
    out.flush()

    if trace_path:
        try:
            emit_trace(trace, trace_path)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(2)


@main.command("bench")
@click.option("--db", required=True)
@click.option("--queries", "queries_dir", required=True)
@click.option("--policies", default="static,eager,rosie", show_default=True)
@click.option("--runs", type=int, default=11, show_default=True)
@click.option("--tau", type=float, default=8.0)
@click.option("--sigma", type=float, default=0.05)
def cmd_bench(db, queries_dir, policies, runs, tau, sigma) -> None:
    """Repeat every query per policy, drop the warm-up run, report means.

    CSV columns: query,policy,mean_ms,gmean_group,result_count. The group
    column carries the geometric mean over all successful queries of the
    policy.
    """
    policy_list = _policies([p.strip() for p in policies.split(",") if p.strip()], tau, sigma)
    try:
        dataset = _load_dataset(db)
        files = sorted(
            p for p in Path(queries_dir).iterdir()
            if p.suffix in (".rq", ".sparql", ".txt")
        )
    except (OSError, SnapshotFormatError) as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(2)
    if not files:
        click.echo("no query files found", err=True)
        sys.exit(5)
    if runs < 2:
        click.echo("warning: runs < 2, warm-up drop skipped", err=True)

    results: dict[tuple[str, str], tuple] = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            click.echo(f"{path.name}: {exc}", err=True)
            results.update(((path.name, pol.kind), (None, None)) for pol in policy_list)
            continue
        for pol in policy_list:
            kind = pol.kind
            times: list[float] = []
            count = None
            try:
                q = parse_query(text)
                for _ in range(max(1, runs)):
                    rel, trace = run(q, dataset, pol, query_text=text.strip())
                    times.append(trace.total_ms)
                    if count is not None and rel.exact_cardinality != count:
                        raise RosieError("result count varies between runs")
                    count = rel.exact_cardinality
            except RosieError as exc:
                click.echo(f"{path.name} [{kind}]: {exc}", err=True)
                results[(path.name, kind)] = (None, None)
                continue
            timed = times[1:] if len(times) > 1 else times
            results[(path.name, kind)] = (sum(timed) / len(timed), count)

    any_success = any(mean is not None for mean, _ in results.values())
    kinds = [pol.kind for pol in policy_list]
    gmeans: dict[str, float] = {}
    for kind in kinds:
        vals = [
            results[(f.name, kind)][0]
            for f in files
            if results[(f.name, kind)][0] is not None
        ]
        if vals:
            gmeans[kind] = math.exp(sum(math.log(max(v, 1e-9)) for v in vals) / len(vals))

    click.echo("query,policy,mean_ms,gmean_group,result_count")
    for path in files:
        for kind in kinds:
            mean, count = results[(path.name, kind)]
            if mean is None:
                click.echo(f"{path.name},{kind},ERROR,ERROR,ERROR")
            else:
                click.echo(
                    f"{path.name},{kind},{format_ms(mean)},"
                    f"{format_ms(gmeans[kind])},{count}"
                )
    if not any_success:
        sys.exit(5)


if __name__ == "__main__":
    main()
