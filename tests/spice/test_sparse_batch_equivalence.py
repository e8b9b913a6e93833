"""Bit-equivalence of the batched sparse kernel against the scalar path.

The lockstep kernel on the sparse backend (:mod:`repro.spice.batch`,
per-lane SuperLU over one shared symbolic analysis) promises
*bit-identical* results to the scalar sparse driver run lane by lane
-- same waveforms, same Newton accounting, same solver counters -- at
any batch size, on either side of the ``auto`` dispatch cutover
(forced via ``REPRO_SPARSE=1`` below it).  These tests enforce that
contract on randomized congruent lanes against per-lane scalar
``transient``/``solve_dc`` calls, pin the fault/eviction parity shared
with the dense kernel (``sparse@factorize`` recovery, ``lane@INDEX``
eviction with a *sparse* solo retry), the fallback counting rules
(``spice.batch.sparse_fallbacks`` counts incongruent lanes, never
congruent batched rounds) and the once-per-run fallback warning.
"""

import numpy as np

from repro.errors import ConvergenceError
from repro.obs import recording
from repro.resilience import FaultInjection
from repro.spice import (
    NewtonOptions,
    NewtonStats,
    TransientOptions,
    solve_dc,
    solve_dc_batch,
    transient,
    transient_batch,
)
from repro.spice.batch import run_plans_batched
from repro.spice.builders import bitcell_array, delay_chain
from repro.spice.engine import NewtonRequest, request_solve
from repro.spice.sparse import SPARSE_ENV_VAR, SPARSE_NODE_CUTOVER
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()
FAST = TransientOptions(h_max_ratio=2e-2)

def chain_lanes(count: int = 4, stages: int = 36, fanout: int = 3):
    """Randomized congruent delay chains above the dispatch cutover.

    The rng is re-seeded per call so repeated invocations hand both
    legs (scalar, batched) the *same* randomized grid.
    """
    rng = np.random.default_rng(20260808)
    lanes = []
    for _ in range(count):
        lanes.append(delay_chain(
            stages, fanout,
            input_stimulus=ramp(2e-12, 0.0, PROC.vdd, 8e-12),
            stage_load=float(2e-15 * (1.0 + 0.4 * rng.random())),
            load=float(8e-15 * (1.0 + 0.4 * rng.random())),
        ))
    return lanes


def small_lanes(count: int = 4):
    """Congruent two-transistor lanes *below* the cutover."""
    from repro.spice import Circuit

    lanes = []
    for i in range(count):
        ckt = Circuit()
        ckt.add_vsource("vvdd", "vdd", PROC.vdd)
        ckt.add_vsource("vin", "in", ramp(0.1e-9, 0.0, PROC.vdd,
                                          0.1e-9 + 0.05e-9 * i))
        ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos,
                       4e-6 + 1e-6 * i, 0.8e-6)
        ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos,
                       8e-6, 0.8e-6)
        ckt.add_capacitor("cl", "out", "0", 5e-14 + 1e-14 * i)
        lanes.append(ckt)
    return lanes


def assert_result_identical(scalar, batched) -> None:
    assert np.array_equal(scalar.times, batched.times)
    assert scalar.node_names == batched.node_names
    for name in scalar.node_names:
        assert np.array_equal(scalar.samples(name),
                              batched.samples(name)), name
    assert scalar.newton_iterations == batched.newton_iterations
    assert scalar.newton_failures == batched.newton_failures
    assert scalar.rejected_steps == batched.rejected_steps
    assert scalar.solver_retries == batched.solver_retries


def solver_counters(recorder) -> dict:
    return {
        key: value
        for key, value in recorder.metrics_payload()["counters"].items()
        if key.startswith("spice.") and not key.startswith("spice.batch")
    }


class TestBitIdentity:
    def test_transient_above_cutover_matches_serial_sparse(self, monkeypatch):
        """Randomized congruent lanes, auto-dispatched sparse: the
        batched kernel and the scalar sparse driver run lane by lane
        must produce the same bits and the same solver counters."""
        lanes = chain_lanes()
        assert lanes[0].compile().n_unknown >= SPARSE_NODE_CUTOVER
        t_stop = 15e-12
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        with recording() as rec_batched:
            batched = transient_batch(lanes, t_stop, options=FAST)
        with recording() as rec_serial:
            serial = [transient(c, t_stop, options=FAST)
                      for c in chain_lanes()]
        for s, b in zip(serial, batched):
            assert_result_identical(s, b)
        assert solver_counters(rec_batched) == solver_counters(rec_serial)

    def test_matches_scalar_driver_exactly(self, monkeypatch):
        """The batched kernel vs per-lane scalar ``transient`` calls."""
        t_stop = 15e-12
        scalar = [transient(c, t_stop, options=FAST) for c in chain_lanes()]
        batched = transient_batch(chain_lanes(), t_stop, options=FAST)
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_forced_sparse_below_cutover(self, monkeypatch):
        """``REPRO_SPARSE=1`` rides the batched sparse kernel on small
        lanes too; results still match the scalar (sparse) driver."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        t_stop = 1.5e-9
        scalar = [transient(c, t_stop, options=FAST) for c in small_lanes()]
        with recording() as rec:
            batched = transient_batch(small_lanes(), t_stop, options=FAST)
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.batch.sparse_rounds"] > 0
        assert "spice.batch.sparse_fallbacks" not in counters
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_dc_bitcell_batch_matches_serial(self, monkeypatch):
        """The characterization-shot shape: per-lane stored patterns on
        a shared bitcell-array structure, operating points identical
        between the kernel and per-lane scalar ``solve_dc`` calls."""
        def lanes():
            pats = [[(i * 2654435761 + r) % 256 for r in range(4)]
                    for i in range(3)]
            return [bitcell_array(4, 8, pattern=p, wordline=0)
                    for p in pats]

        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        batched = solve_dc_batch(lanes())
        serial = [solve_dc(c) for c in lanes()]
        for b, s in zip(batched, serial):
            assert b.voltages == s.voltages

    def test_newton_counters_invariant_across_batch_sizes(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        t_stop = 1.5e-9
        references = None
        for batch_size in (1, 2, 4):
            lanes = small_lanes()
            with recording() as rec:
                for i in range(0, len(lanes), batch_size):
                    transient_batch(lanes[i:i + batch_size], t_stop,
                                    options=FAST)
            counters = solver_counters(rec)
            assert counters["spice.newton.iterations"] > 0
            if references is None:
                references = counters
            else:
                assert counters == references


class TestFallbackCounting:
    def test_incongruent_sparse_lanes_count_per_lane(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        lanes = small_lanes(2) + [delay_chain(2, 2)]
        with recording() as rec:
            solve_dc_batch(lanes)
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.batch.sparse_fallbacks"] == 3
        assert "spice.batch.fallbacks" not in counters

    def test_congruent_batch_never_counts_fallbacks(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        with recording() as rec:
            solve_dc_batch(small_lanes(4))
        counters = rec.metrics_payload()["counters"]
        assert "spice.batch.sparse_fallbacks" not in counters
        assert counters["spice.batch.sparse_rounds"] > 0

    def test_fallback_warns_once_per_run_generation(self, monkeypatch,
                                                    caplog):
        import logging

        import repro.obs.manifest as manifest
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")

        def incongruent():
            return small_lanes(1) + [delay_chain(2, 2)]

        # Any earlier CLI ``main()`` run in this process pins a stderr
        # handler on the ``repro`` logger and stops propagation
        # (repro.log.setup_logging); caplog captures at the root, so
        # re-enable propagation for the duration of this test.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        # Earlier tests in this process may have latched the current
        # generation already; start from a fresh one.
        monkeypatch.setattr(manifest, "_RUN_GENERATION",
                            manifest._RUN_GENERATION + 1)
        with caplog.at_level("DEBUG", logger="repro.spice.batch"):
            solve_dc_batch(incongruent())
            solve_dc_batch(incongruent())
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        debugs = [r for r in caplog.records if r.levelname == "DEBUG"
                  and "serially" in r.getMessage()]
        assert len(warnings) == 1
        assert len(debugs) == 1
        # A new run generation (a second CLI run in the same process)
        # re-arms the one-WARNING latch.
        caplog.clear()
        monkeypatch.setattr(manifest, "_RUN_GENERATION",
                            manifest._RUN_GENERATION + 1)
        with caplog.at_level("DEBUG", logger="repro.spice.batch"):
            solve_dc_batch(incongruent())
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1


class TestFaultParity:
    def test_lane_fault_evicts_and_retries_solo_sparse(self, monkeypatch):
        """An evicted lane's solo retry must stay on the *sparse*
        backend: the retried waveform is bit-identical to the scalar
        sparse driver (a dense retry would only agree to tolerance)."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        t_stop = 1.5e-9
        scalar = [transient(c, t_stop, options=FAST) for c in small_lanes(3)]
        with recording() as rec, FaultInjection("lane@1:1") as fi:
            batched = transient_batch(small_lanes(3), t_stop, options=FAST)
            assert fi.fired_count("lane") == 1
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.batch.evictions{reason=fault}"] == 1
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_factorization_fault_recovers_via_nudge(self, monkeypatch):
        """``sparse@factorize`` into a batched lane walks the same
        nudge rung as the scalar ladder; every lane still converges."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        clean = solve_dc_batch(small_lanes(3))
        with recording() as rec, FaultInjection("sparse@factorize:1") as fi:
            faulted = solve_dc_batch(small_lanes(3))
            assert fi.fired_count("sparse") == 1
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.rung{rung=nudge}"] >= 1
        for c, f in zip(clean, faulted):
            for node, value in c.voltages.items():
                assert abs(f.voltages[node] - value) <= 1e-9

    def test_persistent_factorization_fault_fails_cleanly(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")

        def entries():
            out = []
            for circuit in small_lanes(2):
                compiled = circuit.compile()
                request = NewtonRequest(
                    x0=np.zeros(compiled.n_unknown),
                    known=compiled.known_voltages(0.0),
                    options=NewtonOptions(),
                )
                out.append((compiled, request_solve(request), NewtonStats()))
            return out

        with FaultInjection("sparse@factorize:always"):
            outcomes = run_plans_batched(entries())
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, ConvergenceError)
            assert "singular" in str(outcome)
