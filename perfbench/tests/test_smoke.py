"""Reduced-parameter smoke of every workload (q=4, h=8, RSA-512).

Runs each workload untraced and traced for about a second and checks that
every verdict matched ground truth and that every metric BENCHMARK.json
names is emitted. Uses the binary named by $PERFBENCH_BINARY when set
(the CTest registration does this), else goes through run.py, which builds
it first.

    python3 -m unittest -v perfbench/tests/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent.parent / "BENCHMARK.json"
WORKLOADS = ("audit_walk", "recall_scan", "campaign")


def run(workload, trace):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--reduced"]
    binary = os.environ.get("PERFBENCH_BINARY")
    cmd = [binary] + args if binary else [sys.executable,
                                          str(HERE.parent / "run.py")] + args
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600,
                          cwd=HERE.parent.parent)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads(BENCH.read_text())
        cls.expected = {0: {m["name"] for m in spec["end_to_end"]},
                        1: {m["name"] for m in spec["per_layer"]}}

    def check(self, workload, trace):
        code, result = run(workload, trace)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        missing = self.expected[trace] - set(metrics)
        self.assertFalse(missing, f"{workload} trace={trace} lacks {missing}")
        if trace:
            self.assertEqual(metrics["query_fail_ratio"]["value"], 0)
            self.assertEqual(metrics["net.retransmits_per_query"]["value"], 0)
        else:
            for name in self.expected[0]:
                self.assertGreater(metrics[name]["value"], 0, name)

    def test_audit_walk(self):
        self.check("audit_walk", 0)
        self.check("audit_walk", 1)

    def test_recall_scan(self):
        self.check("recall_scan", 0)
        self.check("recall_scan", 1)

    def test_campaign(self):
        self.check("campaign", 0)
        self.check("campaign", 1)


if __name__ == "__main__":
    unittest.main()
