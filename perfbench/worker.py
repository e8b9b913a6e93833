"""One program process of the benchmark: set a workload up, then measure.

    python3 perfbench/worker.py --workload NAME --role ROLE \\
        [--seed N] [--seconds S] [--accuracy] [--input FILE]

Roles:

* ``setup``   -- set up, report, exit (one fresh-start sample);
* ``measure`` -- set up, then one untraced timed round (per-op wall and
  CPU seconds; ``--accuracy`` adds the check-set errors);
* ``trace``   -- set up, then the traced run: the same fixed op list
  once untraced and once with every layer wrapped;
* ``reports`` -- check served ``report`` texts (``--input``) against the
  in-process ``format_delay_report``.

The process speaks on stdout: ``READY <json>`` once set-up is done (the
launcher times the fresh start up to that line), ``PROBE <seconds>``
(the host probe right after set-up) and ``RESULT <json>`` at the end.  It runs under the launcher's pinned environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from probe import SpeedGauge, host_probe  # noqa: E402
from common import (  # noqa: E402
    DECODER_BITS, DECODER_T_STOP, BenchError, check_errors, check_query,
    decoder_handovers, error_summary, finite_positive, load_references,
    median, oracle_query, percentile, request_body, table_query, traced_inputs,
    FIRST_QUERIES,
)

#: Oracle accuracy rounds validate this many Table 5-1 configurations
#: after the timed loop; their errors are the oracle accuracy metrics.
ORACLE_CHECKS = 12
#: Relative tolerance of a re-simulated reference against the fixture.
REFERENCE_RTOL = 1e-4
#: Seed of the fixed input pools: the traced run's and the decoder's.
POOL_SEED = 20260
#: Decoder handovers per second of a measurement round: two per address
#: bit in a 3 s round (a handover takes about 0.55 s, so a round runs
#: for about 5.5 s).  Fewer handovers leave the decoder figures at the
#: mercy of the host's sub-second slow spells.
DECODER_OPS_PER_S = 3.0
#: Traced ops per second of ``--seconds`` (two passes share the time).
TRACE_OPS_PER_S = {"table-sta": 1000, "oracle-validate": 1.0,
                   "decoder-sparse": 0.5}


def handovers_per_bit(seconds: float, rate: float) -> int:
    """Decoder handovers per address bit for ``seconds`` at ``rate``."""
    return max(1, round(seconds * rate / DECODER_BITS))


def _lap(start: float) -> float:
    return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up (what a fresh process pays before its first op can be timed)
# ----------------------------------------------------------------------

def setup_table(splits: dict):
    t = perf_counter()
    from repro.charlib import GateLibrary
    from repro.core import DelayCalculator
    splits["import_s"] = _lap(t)
    harness.install_fixture_guard()
    t = perf_counter()
    library = GateLibrary.characterize(harness.build_gate(), mode="table")
    calc = DelayCalculator(library)
    splits["context_s"] = _lap(t)
    t = perf_counter()
    calc.step_error("fall")
    calc.step_error("rise")
    splits["calibration_s"] = _lap(t)
    return calc


def setup_oracle(splits: dict):
    t = perf_counter()
    from repro.charlib import GateLibrary
    from repro.core import DelayCalculator
    splits["import_s"] = _lap(t)
    harness.install_fixture_guard()
    t = perf_counter()
    gate = harness.build_gate()
    calc = DelayCalculator(GateLibrary.characterize(gate, mode="oracle"))
    splits["context_s"] = _lap(t)
    t = perf_counter()
    calc.step_error("fall")
    splits["calibration_s"] = _lap(t)
    return calc


def setup_decoder(splits: dict):
    t = perf_counter()
    from repro.spice import transient  # noqa: F401
    from repro.spice.builders import hierarchical_decoder  # noqa: F401
    from repro.tech import default_process
    splits["import_s"] = _lap(t)
    t = perf_counter()
    process = default_process()
    splits["context_s"] = _lap(t)
    splits["calibration_s"] = 0.0
    return process


def setup_serve(splits: dict):
    """The in-process server of the traced serve run (the untraced run
    times a ``repro serve`` daemon from the launcher instead)."""
    t = perf_counter()
    from repro.serve import ServeState
    from repro.serve.protocol import parse_delay_request
    splits["import_s"] = _lap(t)
    harness.install_fixture_guard()
    state = ServeState()
    first = [parse_delay_request(request_body(q)) for q in FIRST_QUERIES]
    t = perf_counter()
    context = state.context_for(first[0])
    splits["context_s"] = _lap(t)
    t = perf_counter()
    for query in first:
        context.calculator(query.correction).explain(dict(query.edges))
    splits["calibration_s"] = _lap(t)
    return None


SETUPS = {"table-sta": setup_table, "oracle-validate": setup_oracle,
          "decoder-sparse": setup_decoder, "serve-delay": setup_serve}


# ----------------------------------------------------------------------
# One op of each in-process workload
# ----------------------------------------------------------------------

def table_op(calc, query) -> bool:
    edges = harness.edges_of(query)
    result = calc.explain(edges)
    return finite_positive(result.delay, result.ttime)


class OracleOp:
    """Explain one configuration with simulator-backed models, then
    simulate the full three-input response it predicts.

    Program functions are looked up at call time, so an op built before
    the tracer is installed still calls the wrapped versions."""

    def __init__(self, calc) -> None:
        import repro.charlib.simulate as simulate
        self.calc = calc
        self.simulate = simulate
        self.edges_of = harness.edges_of

    def __call__(self, query):
        edges = self.edges_of(query)
        model = self.calc.explain(edges)
        shot = self.simulate.multi_input_response(
            self.calc.gate, edges, self.calc.thresholds,
            reference=model.reference)
        # The simulated delay is measured from the model's reference pin
        # and is legitimately negative when earlier inputs already moved
        # the output; the program's own answers must be positive.
        ok = (finite_positive(model.delay, model.ttime, shot.out_ttime)
              and math.isfinite(shot.delay))
        return ok, model, shot


class DecoderOp:
    """Build, compile and simulate one decoder address handover; the new
    wordline must end above 90% of V_dd and the old one below 10%."""

    def __init__(self, process) -> None:
        import repro.spice as spice
        import repro.spice.builders as builders
        from repro.waveform import ramp
        self.process = process
        self.spice = spice
        self.builders = builders
        self.ramp = ramp

    def __call__(self, query) -> bool:
        address, flips = query
        vdd = self.process.vdd
        new = address
        stimuli = {}
        for bit, start, tau in flips:
            rising = not (address >> bit) & 1
            new ^= 1 << bit
            stimuli[f"a{bit}"] = self.ramp(start, 0.0 if rising else vdd,
                                           vdd if rising else 0.0, tau)
        circuit = self.builders.hierarchical_decoder(
            DECODER_BITS, self.process, address=address,
            stimuli=stimuli).compile()
        old_wl, new_wl = f"wl{address}", f"wl{new}"
        result = self.spice.transient(circuit, DECODER_T_STOP,
                                      record=[old_wl, new_wl])
        return (result.samples(new_wl)[-1] > 0.9 * vdd
                and result.samples(old_wl)[-1] < 0.1 * vdd)


# ----------------------------------------------------------------------
# Untraced measurement
# ----------------------------------------------------------------------

def closed_loop(op, queries, seconds: float, minimum: int = 1) -> dict:
    """Run ``op`` over the query stream until ``seconds`` have passed
    (and at least ``minimum`` ops ran); per-op wall and CPU seconds, and
    the host probe around each op (the mean of the gauge readings before
    and after it).  Query tuples are drawn outside the timed region."""
    latencies, cpu, outputs, points = [], [], [], []
    gauge = SpeedGauge()
    deadline = perf_counter() + seconds
    while True:
        query = next(queries)
        points.append(gauge.current())
        c0 = process_time()
        t0 = perf_counter()
        out = op(query)
        t1 = perf_counter()
        cpu.append(process_time() - c0)
        latencies.append(t1 - t0)
        outputs.append(out)
        if t1 >= deadline and len(latencies) >= minimum:
            break
    points.append(gauge.current())
    return {"latencies": latencies, "cpu": cpu, "outputs": outputs,
            "probes": [(a + b) / 2 for a, b in zip(points, points[1:])]}


def round_result(run: dict, failed: int, accuracy=None, checked: int = 0) -> dict:
    """One measurement round as the launcher combines it."""
    return {"latencies": run["latencies"], "cpu": run["cpu"],
            "probes": run["probes"],
            "peak_rss_mb": peak_rss_mb(), "accuracy": accuracy,
            "attempted": len(run["latencies"]) + checked, "failed": failed}


def stream(make, seed: int):
    rng = random.Random(seed)
    while True:
        yield make(rng)


def table_accuracy(calc) -> tuple:
    """Table-mode errors on the Table 5-1 check set: (error summary,
    failed answers, configurations checked)."""
    configs = load_references()["configs"]
    d_err, t_err, failed = [], [], 0
    for config in configs:
        result = calc.explain(harness.edges_of(check_query(config)))
        if not finite_positive(result.delay, result.ttime):
            failed += 1
            continue
        d, t = check_errors(config, result.reference, result.delay,
                            result.ttime)
        d_err.append(d)
        t_err.append(t)
    if not d_err:
        raise BenchError("no check-set configuration produced an answer")
    return error_summary(d_err, t_err), failed, len(configs)


def finish_round(run: dict, failed: int, args, check) -> dict:
    """One round's result.  With ``--accuracy`` the round then answers
    its check set (``check()`` -> error summary, failed answers, answers
    checked), after the timed loop and after peak RSS is read."""
    if not args.accuracy:
        return round_result(run, failed)
    rss = peak_rss_mb()
    accuracy, check_failed, checked = check()
    result = round_result(run, failed + check_failed, accuracy, checked)
    result["peak_rss_mb"] = rss
    return result


def measure_table(calc, args) -> dict:
    run = closed_loop(lambda q: table_op(calc, q),
                      stream(table_query, args.seed), args.seconds)
    return finish_round(run, run["outputs"].count(False), args,
                        lambda: table_accuracy(calc))


def oracle_accuracy(calc) -> tuple:
    """Oracle-mode errors on the first Table 5-1 configurations, each
    re-simulated and compared with the fixture's reference."""
    op = OracleOp(calc)
    d_err, t_err, failed = [], [], 0
    configs = load_references()["configs"][:ORACLE_CHECKS]
    for config in configs:
        ok, model, shot = op(check_query(config))
        ref = model.reference
        if not (ok and math.isclose(shot.delay, config["sim_delay"][ref],
                                    rel_tol=REFERENCE_RTOL)
                and math.isclose(shot.out_ttime, config["sim_ttime"],
                                 rel_tol=REFERENCE_RTOL)):
            failed += 1  # the simulator no longer reproduces the fixture
        d, t = check_errors(config, ref, model.delay, model.ttime)
        d_err.append(d)
        t_err.append(t)
    return error_summary(d_err, t_err), failed, len(configs)


def measure_oracle(calc, args) -> dict:
    run = closed_loop(OracleOp(calc), stream(oracle_query, args.seed),
                      args.seconds)
    failed = sum(1 for ok, _, _ in run["outputs"] if not ok)
    return finish_round(run, failed, args, lambda: oracle_accuracy(calc))


def measure_decoder(process, args) -> dict:
    queries = decoder_handovers(
        args.seed, handovers_per_bit(args.seconds, DECODER_OPS_PER_S),
        POOL_SEED)
    run = closed_loop(DecoderOp(process), iter(queries), 0.0,
                      minimum=len(queries))
    # The decoder has no delay model; its accuracy metrics are the
    # table-mode check-set errors.
    return finish_round(run, run["outputs"].count(False), args,
                        lambda: table_accuracy(setup_table({})))


def check_reports(args) -> dict:
    """Served reports vs the in-process renderer on the same fixture."""
    from repro.serve.protocol import format_delay_report
    calc = setup_table({})
    samples = json.loads(Path(args.input).read_text())
    mismatches = 0
    for query, report in samples:
        query = (query[0], tuple(tuple(edge) for edge in query[1]))
        result = calc.explain(harness.edges_of(query))
        if format_delay_report(result) != report:
            mismatches += 1
    return {"checked": len(samples), "mismatches": mismatches}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def install_tracer():
    """Wrap each layer's public entry points; returns the tracer."""
    import repro.charlib.simulate as simulate
    from repro.core import DelayCalculator
    from repro.models import (SimulatorDualInputModel,
                              SimulatorSingleInputModel, TableDualInputModel,
                              TableSingleInputModel)
    from repro.serve.server import ServeApp, _ServeHandler
    from repro.spice import transient
    from repro.spice.builders import hierarchical_decoder
    from repro.spice.netlist import Circuit
    from repro.spice.sparse import SparsePlan
    from tracer import Tracer

    tracer = Tracer()
    tracer.steps = tracer.rejected = 0

    def count_steps(result) -> None:
        tracer.steps += len(result.times) - 1
        tracer.rejected += result.rejected_steps

    for attr in ("delay", "ttime"):
        tracer.wrap_method(TableSingleInputModel, attr, "models.single")
        tracer.wrap_method(SimulatorSingleInputModel, attr, "models.oracle")
    for attr in ("delay_ratio", "ttime_ratio"):
        tracer.wrap_method(TableDualInputModel, attr, "models.dual")
        tracer.wrap_method(SimulatorDualInputModel, attr, "models.oracle")
    tracer.wrap_method(DelayCalculator, "explain", "core.explain")
    tracer.wrap_function(simulate.single_input_response, "charlib.shot")
    tracer.wrap_function(simulate.multi_input_response, "charlib.shot")
    tracer.wrap_function(transient, "spice.transient", count_steps)
    tracer.wrap_function(hierarchical_decoder, "spice.build")
    tracer.wrap_method(Circuit, "compile", "spice.compile")
    tracer.wrap_method(SparsePlan, "factorize", "spice.sparse.factorize")
    tracer.wrap_method(ServeApp, "handle_delay", "serve.handle")
    tracer.wrap_method(_ServeHandler, "do_POST", "serve.http")
    return tracer


#: Spans that start an op's work, per workload: their top-level time is
#: the attributed part of op wall time.
ROOT_SPANS = {
    "table-sta": ("core.explain",),
    "oracle-validate": ("core.explain", "charlib.shot"),
    "decoder-sparse": ("spice.build", "spice.compile", "spice.transient"),
    "serve-delay": ("serve.http",),
}


def prepare_pass(workload: str, ctx, queries):
    """Everything a pass needs before its first op (untimed, untraced);
    returns a callable that runs the pass and returns (op wall seconds,
    failed ops, serve extras)."""
    if workload == "serve-delay":
        return serve_pass(queries)
    if workload == "table-sta":
        op = lambda q: table_op(ctx, q)  # noqa: E731
    elif workload == "oracle-validate":
        from repro.charlib import GateLibrary
        from repro.core import DelayCalculator
        # A fresh library per pass: the second pass must miss the
        # oracle memos exactly as the first did.
        calc = DelayCalculator(GateLibrary.characterize(ctx.gate,
                                                        mode="oracle"))
        calc.step_error("fall")
        oracle = OracleOp(calc)
        op = lambda q: oracle(q)[0]  # noqa: E731
    else:
        op = DecoderOp(ctx)

    def run():
        wall, failed = 0.0, 0
        for query in queries:
            t0 = perf_counter()
            ok = op(query)
            wall += perf_counter() - t0
            failed += not ok
        return wall, failed, {}
    return run


def serve_pass(requests):
    """Start and warm a fresh in-process server; the returned callable
    sends ``requests`` through it and stops it."""
    import loadgen
    from repro.serve import ReproServer, ServeState

    # A path relative to the checkout root keeps it inside the AF_UNIX
    # length limit wherever the checkout lives.
    sock = f".perfbench_run/trace-{os.getpid()}.sock"
    server = ReproServer(port=0, socket_path=sock, state=ServeState()).start()
    try:
        conn = loadgen.UnixConnection(sock)
        status, _ = loadgen.post(conn, "/delay", json.dumps(
            {"queries": [request_body(q) for q in FIRST_QUERIES]}).encode())
        conn.close()
        if status != 200:
            raise BenchError(f"first serve request answered {status}")
    except BaseException:
        server.stop()
        raise

    def run():
        try:
            records = loadgen.run_open_loop(sock, requests, loadgen.SERVE_RATE)
            stats = server.app.state.responses.stats()
        finally:
            server.stop()
        failed, _ = loadgen.served_failures(records, requests)
        done = [r for r in records if r is not None]
        rtts = [r.done - r.sent for r in done]
        extras = {
            "rtts": rtts,
            "queue_wait": [max(0.0, r.free - r.due) for r in done],
            "late": [r.sent - max(r.due, r.free) for r in done],
            "hit_frac": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
        }
        return sum(rtts), failed, extras
    return run


def trace(workload: str, ctx, args) -> dict:
    from repro.obs import Recorder, phase_breakdown, reset_recorder, set_recorder

    if workload == "serve-delay":
        import loadgen
        queries = loadgen.build_requests(
            max(20, int(loadgen.SERVE_RATE * args.seconds / 2)), POOL_SEED,
            lambda n: traced_inputs(table_query, args.seed, n, POOL_SEED))
    elif workload == "decoder-sparse":
        queries = decoder_handovers(
            args.seed, handovers_per_bit(args.seconds,
                                         TRACE_OPS_PER_S[workload]), POOL_SEED)
    else:
        make = {"table-sta": table_query, "oracle-validate": oracle_query}[workload]
        count = max(2, int(TRACE_OPS_PER_S[workload] * args.seconds))
        queries = traced_inputs(make, args.seed, count, POOL_SEED)

    plain_wall, plain_failed, _ = prepare_pass(workload, ctx, queries)()
    run = prepare_pass(workload, ctx, queries)
    tracer = install_tracer()
    recorder = Recorder()
    set_recorder(recorder)
    try:
        wall, failed, extra = run()
    finally:
        reset_recorder()
        tracer.uninstall()

    n = len(queries)
    metrics = {}
    per_call = lambda name, scale: (  # noqa: E731
        tracer.get(name).total / tracer.get(name).count * scale
        if tracer.get(name).count else 0.0)
    metrics["models.single_us"] = per_call("models.single", 1e6)
    metrics["models.dual_us"] = per_call("models.dual", 1e6)
    metrics["models.calls_per_op"] = sum(
        tracer.get(name).count
        for name in ("models.single", "models.dual", "models.oracle")) / n
    explain = tracer.get("core.explain")
    metrics["core.explain_self_us"] = (
        explain.self_total / explain.count * 1e6 if explain.count else 0.0)
    shot = tracer.get("charlib.shot")
    metrics["charlib.shots_per_op"] = shot.count / n
    metrics["charlib.shot_ms"] = per_call("charlib.shot", 1e3)
    metrics["charlib.shot_self_ms"] = (
        shot.self_total / shot.count * 1e3 if shot.count else 0.0)
    oracle_calls = tracer.get("models.oracle").count
    metrics["models.oracle_memo_hit_frac"] = (
        1.0 - tracer.count_within("charlib.shot", "models.oracle") / oracle_calls
        if oracle_calls else 0.0)
    metrics["spice.transient_ms"] = per_call("spice.transient", 1e3)
    counters = recorder.metrics_payload()
    metrics["spice.newton_iters_per_op"] = counters["counters"].get(
        "spice.newton.iterations", 0.0) / n
    metrics["spice.steps_per_op"] = tracer.steps / n
    metrics["spice.rejected_steps_per_op"] = tracer.rejected / n
    phases = phase_breakdown(counters.get("histograms", {}))
    for driver, names in (("dense", ("assembly", "factorize")),
                          ("sparse", ("assembly", "factorize", "back_solve"))):
        for phase in names:
            metrics[f"spice.phase.{phase}_frac.{driver}"] = (
                phases.get(driver, {}).get(phase, 0.0) / wall)
    metrics["spice.compile_ms"] = per_call("spice.compile", 1e3)
    metrics["spice.sparse.factorize_us"] = per_call("spice.sparse.factorize", 1e6)
    metrics["spice.factorizations_per_op"] = (
        tracer.get("spice.sparse.factorize").count / n)
    handle = tracer.get("serve.handle").durations
    rtts = extra.get("rtts", [])
    metrics["serve.handle_ms_p50"] = median(handle) * 1e3 if handle else 0.0
    metrics["serve.transport_ms_p50"] = (
        (median(rtts) - median(handle)) * 1e3 if handle and rtts else 0.0)
    metrics["serve.cache_hit_frac"] = extra.get("hit_frac", 0.0)
    queue = extra.get("queue_wait")
    metrics["serve.queue_wait_ms_p50"] = median(queue) * 1e3 if queue else 0.0
    late = extra.get("late")
    metrics["serve.generator_late_ms_p90"] = (
        percentile(late, 90) * 1e3 if late else 0.0)
    attributed = sum(tracer.top.get(name, 0.0) for name in ROOT_SPANS[workload])
    metrics["unattributed_frac"] = 1.0 - attributed / wall
    metrics["trace_overhead_frac"] = wall / plain_wall - 1.0
    return {"metrics": metrics, "attempted": 2 * n,
            "failed": plain_failed + failed}


MEASURES = {"table-sta": measure_table, "oracle-validate": measure_oracle,
            "decoder-sparse": measure_decoder}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--role", required=True,
                        choices=("setup", "measure", "trace", "reports"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--input", default=None)
    parser.add_argument("--accuracy", action="store_true",
                        help="measure: also answer the accuracy check set")
    args = parser.parse_args(argv)

    if args.role == "reports":
        result = check_reports(args)
    else:
        splits: dict = {}
        ctx = SETUPS[args.workload](splits)
        print("READY " + json.dumps(splits), flush=True)
        print(f"PROBE {host_probe(0.05)!r}", flush=True)
        if args.role == "setup":
            return 0
        if args.role == "trace":
            result = trace(args.workload, ctx, args)
        else:
            result = MEASURES[args.workload](ctx, args)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
