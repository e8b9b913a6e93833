"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for the rationale and the
layer-interaction table):

* ``table-sta``       -- in-process table-mode ``DelayCalculator.explain``;
* ``oracle-validate`` -- the Section-5 protocol in oracle mode;
* ``serve-delay``     -- a ``repro serve`` daemon under an open loop;
* ``decoder-sparse``  -- build, compile and simulate a sparse decoder.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of the traced run.  Every
program process runs from a fresh copy of the committed fixture under a
pinned environment.  The exit code is non-zero, with no result line,
when the checkout or the fixture is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
from probe import host_probe  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR, PROBE_REFERENCE, ROOT, SRC, BenchError, check_errors, check_query,
    error_summary, install_fixture, load_references, median, percentile,
    pinned_env, request_body, table_query, FIRST_QUERIES,
)

WORKLOADS = ("table-sta", "oracle-validate", "serve-delay", "decoder-sparse")

#: Fresh starts per run; ``setup_s`` is their median.  Untraced, each
#: start is also a measurement round of ``seconds / STARTS``.
STARTS = 5
#: Seconds a fresh start may take before the run is abandoned.
START_TIMEOUT = 60.0
#: Requests per serve load slice (half a second at the serve rate), and
#: the seconds of host probing between slices.
SERVE_SLICE = 100
PROBE_SECONDS = 0.05

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "cpu_ms_per_op": "ms",
    "latency_ms_p50": "ms", "latency_ms_p90": "ms", "ok_frac": "frac",
    "delay_abs_err_mean_pct": "%", "delay_abs_err_max_pct": "%",
    "ttime_abs_err_mean_pct": "%", "ttime_abs_err_max_pct": "%",
}

PER_LAYER_UNITS = {
    "models.single_us": "us", "models.dual_us": "us",
    "models.calls_per_op": "count", "core.explain_self_us": "us",
    "setup.import_s": "s", "setup.context_s": "s",
    "setup.calibration_s": "s",
    "charlib.shots_per_op": "count", "charlib.shot_ms": "ms",
    "charlib.shot_self_ms": "ms", "models.oracle_memo_hit_frac": "frac",
    "spice.transient_ms": "ms", "spice.newton_iters_per_op": "count",
    "spice.steps_per_op": "count", "spice.rejected_steps_per_op": "count",
    "spice.phase.assembly_frac.dense": "frac",
    "spice.phase.factorize_frac.dense": "frac",
    "spice.phase.assembly_frac.sparse": "frac",
    "spice.phase.factorize_frac.sparse": "frac",
    "spice.phase.back_solve_frac.sparse": "frac",
    "spice.compile_ms": "ms", "spice.sparse.factorize_us": "us",
    "spice.factorizations_per_op": "count",
    "serve.handle_ms_p50": "ms", "serve.transport_ms_p50": "ms",
    "serve.cache_hit_frac": "frac", "serve.queue_wait_ms_p50": "ms",
    "serve.generator_late_ms_p90": "ms",
    "unattributed_frac": "frac", "trace_overhead_frac": "frac",
}

WORKER = BENCH_DIR / "worker.py"
DAEMON = BENCH_DIR / "daemon.py"


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------

class Worker:
    """A worker process started fresh and timed until it reports READY."""

    def __init__(self, env, workload: str, role: str, *extra: str) -> None:
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", workload,
             "--role", role, *extra],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.splits = json.loads(self._expect("READY"))
        self.start_s = perf_counter() - start
        self.probe = float(self._expect("PROBE"))

    def _expect(self, tag: str) -> str:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return line[len(tag) + 1:]
        code = self.proc.wait()
        raise BenchError(f"worker exited ({code}) before {tag}")

    def result(self) -> dict:
        try:
            return json.loads(self._expect("RESULT"))
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_reports_check(env, samples, run_dir: Path) -> dict:
    path = run_dir / "reports.json"
    path.write_text(json.dumps(samples))
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "serve-delay",
         "--role", "reports", "--input", str(path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=120)
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise BenchError(f"report check exited ({proc.returncode}) without a result")


class Daemon:
    """A ``repro serve`` daemon, timed from spawn to its first answer."""

    def __init__(self, env, run_dir: Path, index: int) -> None:
        # Relative to the checkout root (the cwd of both ends), which
        # keeps the path inside the AF_UNIX length limit.
        self.socket = str((run_dir / f"serve{index}.sock").relative_to(ROOT))
        ready = run_dir / f"ready{index}.json"
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(DAEMON), "--socket", self.socket,
             "--ready-file", str(ready)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        try:
            while not ready.exists():
                if self.proc.poll() is not None:
                    raise BenchError(f"daemon exited ({self.proc.returncode})")
                if perf_counter() - start > START_TIMEOUT:
                    raise BenchError("daemon did not become ready")
                sleep(0.002)
            conn = loadgen.UnixConnection(self.socket)
            status, body = loadgen.post(conn, "/delay", json.dumps(
                {"queries": [request_body(q) for q in FIRST_QUERIES]}).encode())
            conn.close()
            if status != 200:
                raise BenchError(f"daemon's first request answered {status}: "
                                 f"{body[:300]!r}")
            self.start_s = perf_counter() - start
            self.probe = host_probe(PROBE_SECONDS)
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("daemon peak RSS unavailable")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def combine(rounds: list, starts: list) -> dict:
    """End-to-end metrics from the measurement rounds.

    Each op's wall and CPU time are first scaled to the reference host
    speed (``* PROBE_REFERENCE / probe``, the host probe taken around
    that op).  Every round runs the same op list, and an op's latency is
    its median over the rounds (over the ops every round completed): a
    host slow spell must cover most rounds of an op to count, while a
    stall the program causes on an op in most rounds counts in full.
    CPU per op is the mean over the ops of all rounds.
    """
    def scaled(r, key):
        return [v * PROBE_REFERENCE / p for v, p in zip(r[key], r["probes"])]

    per_round = [scaled(r, "latencies") for r in rounds]
    latencies = [median(lat[i] for lat in per_round)
                 for i in range(min(map(len, per_round)))]
    accuracy = next(r["accuracy"] for r in reversed(rounds) if r["accuracy"])
    metrics = {
        "setup_s": median(t * PROBE_REFERENCE / p for t, p in starts),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        "latency_ms_p50": percentile(latencies, 50) * 1e3,
        "latency_ms_p90": percentile(latencies, 90) * 1e3,
        "cpu_ms_per_op": sum(c for r in rounds for c in scaled(r, "cpu"))
        / sum(len(r["cpu"]) for r in rounds) * 1e3,
        **accuracy,
    }
    return {"metrics": metrics,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds)}


def in_process_run(args, env) -> dict:
    """Fresh starts of the worker: each one measures a round (untraced),
    or the last one runs the traced passes."""
    seconds = args.seconds if args.trace else args.seconds / STARTS
    starts, splits, results = [], [], []
    for index in range(STARTS):
        role = "measure"
        extra = ["--seed", str(args.seed), "--seconds", str(seconds)]
        if args.trace:
            role = "trace" if index == STARTS - 1 else "setup"
        elif index == STARTS - 1:
            extra.append("--accuracy")
        worker = Worker(env, args.workload, role, *extra)
        starts.append((worker.start_s, worker.probe))
        splits.append(worker.splits)
        if role == "setup":
            worker.close()
        else:
            results.append(worker.result())
    if not args.trace:
        return combine(results, starts)
    result = results[0]
    for key in ("import_s", "context_s", "calibration_s"):
        result["metrics"][f"setup.{key}"] = median(s[key] for s in splits)
    return result


def serve_round(daemon: Daemon, requests, last: bool, env, run_dir: Path) -> dict:
    """One load round against a fresh daemon; the last round also checks
    served accuracy and report texts.

    The load goes out in slices of ``SERVE_SLICE`` requests, and the host
    is gauged between slices, never beside the load: a probe competing
    with the daemon for the two cores would read the program's own CPU
    use as host speed.  A slice's requests are scaled by the mean of the
    probes before and after it, and share its daemon CPU time evenly."""
    records, cpu, probes = [], [], []
    before = daemon.probe
    for lo in range(0, len(requests), SERVE_SLICE):
        chunk = requests[lo:lo + SERVE_SLICE]
        cpu0 = daemon.cpu_seconds()
        records += loadgen.run_open_loop(daemon.socket, chunk,
                                         loadgen.SERVE_RATE)
        cpu += [(daemon.cpu_seconds() - cpu0) / len(chunk)] * len(chunk)
        after = host_probe(PROBE_SECONDS)
        probes += [(before + after) / 2] * len(chunk)
        before = after
    failed, samples = loadgen.served_failures(records, requests)
    result = {
        "latencies": [(r.done - r.due) if r else float("inf") for r in records],
        "cpu": cpu, "probes": probes,
        "peak_rss_mb": daemon.peak_rss_mb(), "accuracy": None,
        "attempted": len(requests), "failed": failed,
    }
    if not last:
        return result
    # Accuracy of served answers on the Table 5-1 check set.
    configs = load_references()["configs"]
    conn = loadgen.UnixConnection(daemon.socket)
    try:
        status, body = loadgen.post(conn, "/delay", json.dumps(
            {"queries": [request_body(check_query(c)) for c in configs]}
        ).encode())
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"check-set request answered {status}")
    d_err, t_err = [], []
    for config, answer in zip(configs, json.loads(body)["results"]):
        answer = answer["result"]
        d, t = check_errors(config, answer["reference"], answer["delay"],
                            answer["ttime"])
        d_err.append(d)
        t_err.append(t)
    result["accuracy"] = error_summary(d_err, t_err)
    result["attempted"] += len(configs)
    result["failed"] += run_reports_check(env, samples, run_dir)["mismatches"]
    return result


def serve_run(args, env, run_dir: Path) -> dict:
    """Untraced serve-delay: a fresh daemon per start, each serving the
    same open-loop request list for one round."""
    rng = random.Random(args.seed)
    requests = loadgen.build_requests(
        max(20, int(loadgen.SERVE_RATE * args.seconds / STARTS)), args.seed,
        lambda n: [table_query(rng) for _ in range(n)])
    starts, rounds = [], []
    for index in range(STARTS):
        daemon = Daemon(env, run_dir, index)
        starts.append((daemon.start_s, daemon.probe))
        try:
            rounds.append(serve_round(daemon, requests, index == STARTS - 1,
                                      env, run_dir))
        finally:
            daemon.stop()
    return combine(rounds, starts)


def report(result: dict, trace: bool) -> dict:
    """The result line: every named metric with its unit."""
    metrics = result["metrics"]
    attempted, failed = int(result["attempted"]), int(result["failed"])
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if not trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC.relative_to(ROOT)}/repro; "
                         f"run from the root of a repository checkout")
    os.chdir(ROOT)
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    cache = run_dir / "cache"
    install_fixture(cache)
    try:
        env = pinned_env(cache)
        if args.workload == "serve-delay" and not args.trace:
            result = serve_run(args, env, run_dir)
        else:
            result = in_process_run(args, env)
        line = report(result, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
