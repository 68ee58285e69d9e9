"""Benchmark for rosie: one workload per process, one closed-loop client.

    python3 bench/run.py --workload star-scale --seed 1 --seconds 25 --trace 0

Run from the repository root. With `--trace 0` the run sets up its inputs
three times (reporting the median as `setup_s`), then runs whole rounds of
the workload's operations until `--seconds` have passed and at least
MIN_OPS operations are done, then checks every output against results
computed apart from the engine. With `--trace 1` it sets up once, runs the
same loop with spans recorded (see tracing.py) and prints the per-layer
metrics instead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (first: it puts src/ on sys.path)
import tracing  # noqa: E402
from rosie.runtime import Policy  # noqa: E402

SETUPS = 3
# p90 needs at least ten operations beyond it
MIN_OPS = 110
OUT_DIR = Path(__file__).resolve().parent / "out"


def timed_rounds(op, fingerprint, round_size: int, seconds: float, after_round=None):
    """Whole rounds until `seconds` have passed and MIN_OPS ops are done."""
    latencies, prints = [], []
    start = perf_counter()
    round_no = 0
    while True:
        for i in range(round_size):
            t0 = perf_counter()
            out = op(i, round_no)
            latencies.append(perf_counter() - t0)
            prints.append(fingerprint(out))
            del out  # not alive during the next operation
        round_no += 1
        if after_round is not None:
            after_round(round_no)
        if perf_counter() - start >= seconds and len(latencies) >= MIN_OPS:
            return latencies, prints, perf_counter() - start


def count_failed(prints, expected) -> int:
    n = len(expected)
    return sum(1 for k, fp in enumerate(prints) if fp != expected[k % n])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds: float) -> dict:
    setups = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    latencies, prints, wall = timed_rounds(wl.op, wl.fingerprint, wl.round_size, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    expected, problems = wl.expected()
    ms = sorted(x * 1000.0 for x in latencies)
    print(f"{wl.name}: {len(ms)} ops in {wall:.2f} s, setups {setups}", file=sys.stderr)
    return finish(problems, prints, expected, {
        "latency_p50_ms": metric(statistics.median(ms), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "ops_per_s": metric(len(ms) / wall, "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    })


def finish(problems, prints, expected, metrics) -> dict:
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(prints),
        "failed": count_failed(prints, expected),
        "metrics": metrics,
    }


def traced(wl, seconds: float, seed: int) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    held = []
    is_query = isinstance(wl, workloads.QueryWorkload)
    outputs = {"materializations": 0, "replans": 0, "result_rows": 0}

    def fingerprint(out):
        if is_query:
            rel, trace = out
            outputs["materializations"] += trace.materialization_count()
            outputs["replans"] += len(trace.plans) - 1
            outputs["result_rows"] += len(rel.rows)
        return wl.fingerprint(out)

    def after_round(round_no):
        if round_no == 1 and is_query:
            held.append(len(wl.d.intermediates))

    try:
        wl.setup()
        latencies, prints, wall = timed_rounds(
            tracer.operation(wl.op), fingerprint, wl.round_size, seconds, after_round)
        if is_query:
            sink = io.BytesIO()
            workloads.snapshot_save(wl.d, sink)
            sink.seek(0)
            workloads.snapshot_load(sink)
    finally:
        tracer.uninstall()
    print(f"{wl.name} traced: {len(prints)} ops in {wall:.2f} s, "
          f"ops_per_s {len(prints) / wall:.2f}", file=sys.stderr)

    eager = []
    if isinstance(wl, workloads.Adaptive):
        for spec in wl.specs:
            q = workloads.parse_query(spec.text)
            eager.append(workloads.run(q, wl.d, Policy("eager"))[1])
    errs, violations = tracing.qerrors(eager)
    expected, problems = wl.expected()
    tracer.dump(OUT_DIR / f"spans-{wl.name}-seed{seed}.json")

    ops = len(prints)
    layers = tracing.layer_summary(tracer.spans, ops)

    def per_op(name, field, unit):
        return metric(layers[name][field] if name in layers else 0.0, unit)

    def per_call(name, unit, field="ms_all"):
        row = layers.get(name)
        return metric(row[field] / row["calls_all"] if row else 0.0, unit)

    scan_rows = layers["store.scan"]["count"] if "store.scan" in layers else 0.0
    result_rows = outputs["result_rows"] / ops
    metrics = {
        "store.load_ntriples.ms": per_call("store.load_ntriples", "ms"),
        "store.snapshot_save.ms": per_call("store.snapshot_save", "ms"),
        "store.snapshot_load.ms": per_call("store.snapshot_load", "ms"),
        "store.snapshot_bytes": per_call("store.snapshot_save", "bytes", "count_all"),
        "store.scan.calls": per_op("store.scan", "calls", "count/op"),
        "store.scan.ms": per_op("store.scan", "ms", "ms/op"),
        "store.scan.rows": per_op("store.scan", "count", "rows/op"),
        "store.intermediates.rows": per_op("store.register_intermediate", "count", "rows/op"),
        "store.intermediates_held": metric(held[0] if held else 0, "count"),
        "frontend.parse_query.ms": per_op("frontend.parse_query", "ms", "ms/op"),
        "qrg.build_qrg.ms": per_op("qrg.build_qrg", "ms", "ms/op"),
        "qrg.collapse_materialized.calls": per_op("qrg.collapse_materialized", "calls", "count/op"),
        "qrg.collapse_materialized.ms": per_op("qrg.collapse_materialized", "ms", "ms/op"),
        "planner.plan_cs.calls": per_op("planner.plan_cs", "calls", "count/op"),
        "planner.plan_cs.ms": per_op("planner.plan_cs", "ms", "ms/op"),
        "planner.linearize.ms": per_op("planner.linearize", "ms", "ms/op"),
        "runtime.profile_unit.calls": per_op("runtime.profile_unit", "calls", "count/op"),
        "runtime.profile_unit.ms": per_op("runtime.profile_unit", "ms", "ms/op"),
        "runtime.self_ms": per_op("runtime.run", "self_ms", "ms/op"),
        "runtime.materializations": metric(outputs["materializations"] / ops, "count/op"),
        "runtime.replans": metric(outputs["replans"] / ops, "count/op"),
        "estimator.qerror_p50": metric(statistics.median(errs) if errs else 0.0, "ratio"),
        "estimator.qerror_max": metric(max(errs, default=0.0), "ratio"),
        "estimator.bound_violations": metric(violations, "count"),
        "executor.compile_cs.ms": per_op("executor.compile_cs", "ms", "ms/op"),
        "executor.execute.calls": per_op("executor.execute", "calls", "count/op"),
        "executor.execute.ms": per_op("executor.execute", "ms", "ms/op"),
        "executor.execute.self_ms": per_op("executor.execute", "self_ms", "ms/op"),
        "executor.rows_out": per_op("executor.execute", "count", "rows/op"),
        "executor.rows_examined_per_result": metric(
            scan_rows / result_rows if result_rows else 0.0, "rows/row"),
    }
    return finish(problems, prints, expected, metrics)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    parser.add_argument("--policy", choices=("static", "eager", "rosie"), default="rosie",
                        help="policy of the query workloads, for the README's comparison")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    wl.policy = Policy(args.policy)
    if args.trace:
        result = traced(wl, args.seconds, args.seed)
    else:
        result = end_to_end(wl, args.seconds)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
