"""The benchmark's own self-test, run as part of the suite.

`bench/tracing.py` rebinds entry points of `rosie.runtime` and
`rosie.executor` by name, and `bench/workloads.py` calls the library
directly, so a refactor of `src/` can break the benchmark while every
other test stays green. This runs `python3 bench/test_bench.py` (a tiny
run of every workload, untraced and traced) in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "test_bench.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
