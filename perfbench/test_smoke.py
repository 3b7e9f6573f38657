#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny smoke-size inputs.

    python3 perfbench/test_smoke.py

For every workload, in both modes, it runs perfbench/run.py with
--size smoke and asserts that the run is correct, that every metric
named in BENCHMARK.json is emitted with its unit, that every output
check of the workload ran and passed, and that a second run of the same
seed repeats the digests and deterministic counters exactly. Also
checks that the benchmark refuses to run without the repository's
sources. Takes a few seconds once the runner is built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Checks each workload must report (all passing) in every run.
CHECKS = {
    "clear-1e5": {"parse_ok", "converged", "certificate_pass",
                  "rounded_sums_equal_capacity", "digest_repeats",
                  "counters_repeat", "market_file_written",
                  "net_counters_zero"},
    "online-durable": {"durability_status_ok",
                       "allocate_count_equals_epochs",
                       "non_converged_epochs_agree", "final_snapshot_read",
                       "store_opens", "net_counters_zero"},
    "online-sharded": {"durability_status_ok",
                       "allocate_count_equals_epochs",
                       "non_converged_epochs_agree"},
}
# Checks only the traced run can make.
TRACED_CHECKS = {
    "clear-1e5": {"spans_written"},
    "online-durable": {"spans_written", "traced_status_ok",
                       "traced_metrics_identical",
                       "traced_snapshot_identical"},
    "online-sharded": {"spans_written", "traced_status_ok",
                       "traced_metrics_identical"},
}
DIGESTS = {
    "clear-1e5": {"prices_rounded_crc32"},
    "online-durable": {"metrics_crc32", "final_snapshot_crc32"},
    "online-sharded": {"metrics_crc32"},
}


def run(workload, trace, seed=7, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--size",
         "smoke"], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return proc


def runner_report(workload, trace, seed=7):
    tag = f"{workload}-smoke-seed{seed}-trace{trace}"
    with open(os.path.join(ROOT, ".bench_build", "results",
                           tag + ".json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, workload):
        for trace in (0, 1):
            for attempt in range(2):  # the second run re-checks digests
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

                names = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in names})
                for m in names:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                if not trace:
                    for m in names:
                        self.assertGreater(result["metrics"][m["name"]]
                                           ["value"], 0, m["name"])

                report = runner_report(workload, trace)
                expected = CHECKS[workload] | (
                    TRACED_CHECKS[workload] if trace else set())
                self.assertEqual(set(report["checks"]), expected)
                self.assertTrue(all(report["checks"].values()))
                self.assertTrue(report["variants"])
                for variant in report["variants"]:
                    self.assertEqual(set(variant["digests"]),
                                     DIGESTS[workload])
                    self.assertIn("bidding.iterations", variant["counters"])
                    self.assertNotIn("exec.steal", variant["counters"])

    def test_clear(self):
        self.check_workload("clear-1e5")

    def test_online_durable(self):
        self.check_workload("online-durable")
        report = runner_report("online-durable", 1)
        self.assertGreater(report["metrics"]["durability.journal_commits"]
                           ["value"], 0)

    def test_online_sharded(self):
        self.check_workload("online-sharded")
        report = runner_report("online-sharded", 1)
        self.assertGreater(report["metrics"]["net.msgs_sent"]["value"], 0)

    def test_refuses_without_sources(self):
        work_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(work_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=work_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("clear-1e5", 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
