"""Self-tests of the benchmark (about four minutes on two cores).

    python3 perfbench/selftest.py

* every workload's short smoke run, untraced and traced, prints every
  metric named in ``BENCHMARK.json`` with its unit and passes its
  correctness checks;
* two smoke runs with the same seed give identical counts and accuracy
  metrics;
* a missing, corrupted or stale fixture, or a directory holding only
  the benchmark, makes the run exit non-zero without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORKDIR = ROOT / ".perfbench_run" / "selftest"

#: Metrics that must repeat exactly for one seed.
EXACT_TRACED = ("models.calls_per_op", "charlib.shots_per_op",
                "spice.newton_iters_per_op", "spice.steps_per_op",
                "spice.rejected_steps_per_op", "spice.factorizations_per_op",
                "serve.cache_hit_frac")
EXACT_UNTRACED = ("delay_abs_err_mean_pct", "delay_abs_err_max_pct",
                  "ttime_abs_err_mean_pct", "ttime_abs_err_max_pct",
                  "ok_frac")


def bench(root: Path, workload: str, seed: int, trace: int,
          seconds: float = 1.0):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


class SmokeRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls) -> None:
        for workload in WORKLOADS:
            for trace in (0, 1):
                for attempt in (0, 1):
                    cls.runs[workload, trace, attempt] = bench(
                        ROOT, workload, 7, trace)

    def test_every_metric_with_unit(self) -> None:
        for (workload, trace, _), (code, line, proc) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0, proc.stderr)
                self.assertEqual(set(line), {"correct", "attempted", "failed",
                                             "metrics"})
                self.assertTrue(line["correct"])
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                spec = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {m["name"]: m["unit"] for m in spec},
                    {k: v["unit"] for k, v in line["metrics"].items()})

    def test_same_seed_same_counts_and_accuracy(self) -> None:
        for workload in WORKLOADS:
            for trace, names in ((0, EXACT_UNTRACED), (1, EXACT_TRACED)):
                first = self.runs[workload, trace, 0][1]["metrics"]
                second = self.runs[workload, trace, 1][1]["metrics"]
                for name in names:
                    with self.subTest(workload=workload, metric=name):
                        self.assertEqual(first[name]["value"],
                                         second[name]["value"])


class BrokenCheckouts(unittest.TestCase):
    def setUp(self) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        WORKDIR.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", WORKDIR)
        shutil.copytree(BENCH, WORKDIR / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def tearDown(self) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def assertRefused(self) -> None:
        code, line, proc = bench(WORKDIR, "table-sta", 1, 0)
        self.assertNotEqual(code, 0)
        self.assertIsNone(line, proc.stdout)

    def test_benchmark_only_directory(self) -> None:
        self.assertRefused()

    def with_source(self) -> None:
        shutil.copytree(ROOT / "src", WORKDIR / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def test_missing_fixture_file(self) -> None:
        self.with_source()
        next((WORKDIR / "perfbench/fixture/cache").glob("dual-*.json")).unlink()
        self.assertRefused()

    def test_stale_fixture_refuses_to_characterize(self) -> None:
        # A consistent manifest, but an entry the program needs is gone:
        # the guard must fail set-up instead of characterizing.
        self.with_source()
        path = next((WORKDIR / "perfbench/fixture/cache").glob("dual-*.json"))
        path.unlink()
        manifest_path = WORKDIR / "perfbench/fixture/MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"][f"cache/{path.name}"]
        manifest_path.write_text(json.dumps(manifest))
        self.assertRefused()

    def test_corrupted_fixture_file(self) -> None:
        self.with_source()
        path = next((WORKDIR / "perfbench/fixture/cache").glob("single-*.json"))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        self.assertRefused()


if __name__ == "__main__":
    unittest.main(verbosity=2)
