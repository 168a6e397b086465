"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it: it runs
the program for about a minute.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.SRC))

from checks import (  # noqa: E402
    basins_partition, expected_digest, files_digest, load_digests,
    record_matches,
)
from layertrace import Tracer  # noqa: E402

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
SEED = 0  # pinned in digests.json


def bench(workload: str, trace: int, cwd: Path = run.ROOT):
    """One minimal run (a single unit) through the command line."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "0", "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@contextlib.contextmanager
def scratch():
    """A work directory under the checkout, removed on exit."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as path:
        yield Path(path)


class TinyWorkloads(unittest.TestCase):
    def test_each_workload_runs_clean(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench(w["name"], 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, e2e
                )
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_pool_run_reports_every_layer(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        proc = bench("grid_pool", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        # The traced run compares its first unit's digest with an
        # untraced run of the same unit and fails it on a difference.
        self.assertTrue(result["correct"], proc.stderr)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in spec["per_layer"]})
        self.assertEqual(metrics["sweep.cells"]["value"], 288)
        self.assertGreater(metrics["sweep.pool_busy_share"]["value"], 0)
        self.assertGreater(metrics["metrics.rank_calls"]["value"], 0)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with scratch() as bare:
            shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
            shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("grid", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checks(unittest.TestCase):
    def test_traced_and_untraced_digests_match(self):
        with scratch() as work:
            plan = workloads.setup("focused", SEED, work)
            unit = plan.units[0]
            self.assertEqual(workloads.run_sweep_unit(unit), 0)
            plain = files_digest(unit.out, workloads.FOCUSED_FILES)
            shutil.rmtree(unit.out)
            tracer = Tracer(work)
            tracer.install()
            try:
                self.assertEqual(workloads.run_sweep_unit(unit), 0)
            finally:
                tracer.uninstall()
            traced = files_digest(unit.out, workloads.FOCUSED_FILES)
        self.assertEqual(plain, traced)
        self.assertEqual(tracer.stats["sweep.run_cell"].calls, 80)
        self.assertEqual(tracer.dropped, [])

    def test_altered_record_counts_as_failed(self):
        table = load_digests()
        original = workloads.run_sweep_unit

        def altered(unit):
            status = original(unit)
            path = unit.out / "records.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            cols = lines[1].split(",")
            cols[7] = str(int(cols[7]) + 1)  # pseudo_rank of the first run
            lines[1] = ",".join(cols)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return status

        with scratch() as work:
            plan = workloads.setup("focused", SEED, work)
            unit = plan.units[0]
            self.assertIsNotNone(expected_digest(table, "focused", SEED, 0))
            clean = run.run_unit(plan, unit, table, {})
            self.assertEqual((clean.failed, clean.error), (0, None))
            workloads.run_sweep_unit = altered
            try:
                bad = run.run_unit(plan, unit, table, {})
            finally:
                workloads.run_sweep_unit = original
            self.assertEqual(bad.failed, bad.ops)
            self.assertIn("digest", bad.error)

            # The naive recomputation catches the same row on its own.
            self.assertTrue(record_matches(clean.rows[0], unit.master_seed,
                                           workloads.HORIZON))
            self.assertFalse(record_matches(bad.rows[0], unit.master_seed,
                                            workloads.HORIZON))

    def test_broken_partition_is_detected(self):
        with scratch() as work:
            plan = workloads.setup("oracle", SEED, work)
        report, mismatches = workloads.run_oracle_unit(plan.units[5])
        self.assertEqual(mismatches, [])
        self.assertTrue(basins_partition(report))
        report.attractor_ids[0] = len(report.attractors)
        self.assertFalse(basins_partition(report))


if __name__ == "__main__":
    unittest.main(verbosity=2)
