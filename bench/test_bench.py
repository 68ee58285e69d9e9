"""Self-test of the benchmark at a tiny size.

    python3 bench/test_bench.py

Checks that every metric BENCHMARK.json names is printed, with its unit,
for every workload; that the traced run prints every per-layer name the
README lists; and that an output that does not match its expected result
is counted as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "0.2", "--size", "tiny"]


def cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_is_printed_for_every_workload(self):
        for entry in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=entry["name"], trace=trace):
                    result = cli(entry["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, {m["name"]: m["unit"] for m in SPEC[key]})

    def test_traced_run_emits_every_layer_metric_of_the_readme(self):
        readme = (HERE / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Layer metrics", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"^\| `([a-z0-9_.]+)`", table, re.M))
        self.assertEqual(named, {m["name"] for m in SPEC["per_layer"]})
        self.assertTrue(named <= set(cli("adaptive", 1)["metrics"]))

    def test_wrong_expected_result_is_a_failed_operation(self):
        for name, cls in workloads.WORKLOADS.items():
            original = cls.expected

            def corrupted(self, original=original):
                expected, problems = original(self)
                return [("wrong",)] + expected[1:], problems

            with self.subTest(workload=name), mock.patch.object(cls, "expected", corrupted):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    result = run.main(["--workload", name, "--trace", "0", *TINY])
                wl = cls(3, "tiny")
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], result["attempted"] // wl.round_size)
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
