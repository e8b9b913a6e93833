"""Golden digests of the batched lockstep kernel, dense and sparse.

``data/lockstep_golden.json`` records what the lockstep driver produced
on a fixed set of small batches: three inverter lanes through
:func:`~repro.spice.transient_batch`, three through
:func:`~repro.spice.solve_dc_batch`, and a hand-built batch holding one
doubly singular lane.  Each runs on the dense ``(B, n, n)`` stack and on
the batched sparse kernel (``REPRO_SPARSE=1``), plain, under
``REPRO_GUARD=1`` (every condition sample flagged) and with an injected
``lane@1:1`` eviction.  A digest
holds the exact Newton accounting (per-lane stats and every ``spice.*``
counter: iterations, solves, failures, escalation rungs, evictions,
rounds) and the solved node voltages.

The digests pin the *batched* drivers themselves, independent of the
scalar driver: a change to the lockstep round that preserves scalar
equivalence on the happy path but shifts a guard, eviction or singular
lane shows up here.  Regenerate only for an intentional change of
solver behaviour::

    PYTHONPATH=src python tests/spice/test_lockstep_golden.py --write
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.obs import recording
from repro.resilience import FaultInjection
from repro.spice import (
    Circuit,
    NewtonOptions,
    NewtonStats,
    TransientOptions,
    solve_dc_batch,
    transient_batch,
)
from repro.spice.batch import run_plans_batched
from repro.spice.engine import NewtonRequest, request_solve
from repro.spice.sparse import SparsePlan
from repro.tech import default_process
from repro.waveform import ramp

GOLDEN = Path(__file__).with_name("data") / "lockstep_golden.json"

#: Waveform tolerance in volts; accounting is compared exactly.
VOLT_TOL = 1e-12

PROC = default_process()
FAST = TransientOptions(h_max_ratio=2e-2)
T_STOP = 1.2e-9

#: Environment the digests depend on; each scenario sets its own values
#: and clears the rest, so an ambient CI setting cannot leak in.
_ENV_KNOBS = ("REPRO_SPARSE", "REPRO_GUARD", "REPRO_GUARD_COND",
              "REPRO_GUARD_COND_EVERY", "REPRO_GUARD_DIVERGE",
              "REPRO_GUARD_WALL", "REPRO_FAULTS", "REPRO_FAULTS_STATE")

BACKENDS = {"dense": "0", "sparse": "1"}
SCENARIOS = ("plain", "guard", "lane_fault", "doubly_singular")


def inverter(tau: float, cl: float) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", PROC.vdd)
    ckt.add_vsource("vin", "in", ramp(0.3e-9, 0.0, PROC.vdd, tau))
    ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos, 4e-6, 0.8e-6)
    ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos, 8e-6, 0.8e-6)
    ckt.add_capacitor("cl", "out", "0", cl)
    return ckt


def inverter_lanes():
    return [inverter(0.1e-9 + 0.1e-9 * i, 5e-14 + 2e-14 * i)
            for i in range(3)]


def dc_lanes():
    lanes = []
    for i, vin in enumerate((0.0, 2.4, 5.0)):
        ckt = Circuit()
        ckt.add_vsource("vvdd", "vdd", PROC.vdd)
        ckt.add_vsource("vin", "in", vin)
        ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos,
                       4e-6 + 1e-6 * i, 0.8e-6)
        ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos,
                       8e-6, 0.8e-6)
        lanes.append(ckt)
    return lanes


#: Series resistance of the floating pair on the doubly singular lane;
#: its Jacobian entry ``-1/R`` marks that lane's matrices.
_SINGULAR_LANE_R = 7e3


def singular_entries():
    """Three congruent lanes whose Jacobians are singular at ``gmin=0``.

    Each lane is a divider plus a floating node pair joined by one
    resistor, so the pair block ``[[g, -g], [-g, g]]`` is singular and
    the diagonal nudge repairs it: lanes 0 and 2 converge through the
    nudge rung.  The divider is weak enough (1 MOhm) that the nudge
    shows in their converged voltages.  Lane 1 is the doubly singular
    lane of ``test_singular_batch.py``: under
    :func:`singular_lane_solvers` its factorizations fail before and
    after the nudge, and it starts *at* its solution, so its zero step
    passes the step and residual tests: it must still finish as a
    singular failure.
    """
    options = NewtonOptions(gmin=0.0)
    entries = []
    for r_pair in (1e3, _SINGULAR_LANE_R, 3e3):
        ckt = Circuit("floating_pair")
        ckt.add_vsource("v1", "in", 1.0)
        ckt.add_resistor("r1", "in", "mid", 1e6)
        ckt.add_resistor("r2", "mid", "0", 1e6)
        ckt.add_resistor("rf", "f1", "f2", r_pair)
        compiled = ckt.compile()
        mid = 0.5 if r_pair == _SINGULAR_LANE_R else 0.25
        start = {"f1": 0.25, "f2": 0.25, "mid": mid}
        request = NewtonRequest(
            x0=np.array([start[name] for name in compiled.unknown_names]),
            known=compiled.known_voltages(0.0), options=options)
        entries.append((compiled, request_solve(request), NewtonStats()))
    return entries


def _marked(values) -> bool:
    return bool(np.any(np.abs(np.asarray(values)
                              + 1.0 / _SINGULAR_LANE_R) < 1e-12))


@contextmanager
def singular_lane_solvers():
    """Declare every factorization of the marked lane singular.

    Dense: ``np.linalg.solve`` raises for any matrix (or stack) holding
    the marker.  Sparse: ``SparsePlan.factorize`` raises when the CSC
    data does.  Every other matrix reaches the real solver.
    """
    dense_solve = np.linalg.solve
    sparse_factorize = SparsePlan.factorize

    def solve(a, b):
        if _marked(a):
            raise np.linalg.LinAlgError("singular matrix (forced)")
        return dense_solve(a, b)

    def factorize(self, times=None):
        if _marked(self.matrix.data):
            raise np.linalg.LinAlgError("singular matrix (forced)")
        return sparse_factorize(self, times=times)

    with mock.patch.object(np.linalg, "solve", solve), \
            mock.patch.object(SparsePlan, "factorize", factorize):
        yield


@contextmanager
def scenario_env(backend: str, scenario: str):
    saved = {name: os.environ.get(name) for name in _ENV_KNOBS}
    for name in _ENV_KNOBS:
        os.environ.pop(name, None)
    os.environ["REPRO_SPARSE"] = BACKENDS[backend]
    if scenario == "guard":
        os.environ["REPRO_GUARD"] = "1"
        # Every condition sample counts as ill-conditioned, so
        # ``spice.guard.illconditioned`` pins the sampling cadence.
        os.environ["REPRO_GUARD_COND"] = "0.5"
    try:
        with ExitStack() as stack:
            if scenario == "lane_fault":
                stack.enter_context(FaultInjection("lane@1:1"))
            yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def spice_counters(rec) -> dict:
    counters = rec.metrics_payload()["counters"]
    return {k: v for k, v in sorted(counters.items())
            if k.startswith("spice.")}


def capture(backend: str, scenario: str) -> dict:
    """Run one scenario and return its digest (JSON-ready)."""
    with scenario_env(backend, scenario), recording() as rec:
        if scenario == "doubly_singular":
            entries = singular_entries()
            with singular_lane_solvers():
                outcomes = run_plans_batched(entries)
            lanes = []
            for outcome, (_, _, stats) in zip(outcomes, entries):
                lane = {"stats": [stats.iterations, stats.solves,
                                  stats.failures, stats.retries]}
                if isinstance(outcome, np.ndarray):
                    lane["x"] = outcome.tolist()
                else:
                    lane["error"] = str(outcome)
                lanes.append(lane)
            return {"lanes": lanes, "counters": spice_counters(rec)}
        results = transient_batch(inverter_lanes(), T_STOP, options=FAST)
        stats = [NewtonStats() for _ in range(3)]
        ops = solve_dc_batch(dc_lanes(), stats=stats)
        transient_digest = [{
            "times": r.times.tolist(),
            "out": r.samples("out").tolist(),
            "accounting": [r.newton_iterations, r.newton_failures,
                           r.rejected_steps, r.solver_retries],
        } for r in results]
        dc_digest = [{
            "voltages": dict(sorted(op.voltages.items())),
            "stats": [st.iterations, st.solves, st.failures, st.retries],
        } for op, st in zip(ops, stats)]
        return {"transient": transient_digest, "dc": dc_digest,
                "counters": spice_counters(rec)}


def capture_all() -> dict:
    return {backend: {scenario: capture(backend, scenario)
                      for scenario in SCENARIOS}
            for backend in BACKENDS}


def dump(digests: dict) -> str:
    """Indented JSON with each list of numbers kept on one line."""
    text = json.dumps(digests, indent=1)
    return re.sub(r"\[([-0-9.eE+,\s]*)\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  text) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _close(actual, expected) -> bool:
    return (len(actual) == len(expected)
            and bool(np.all(np.abs(np.asarray(actual)
                                   - np.asarray(expected)) <= VOLT_TOL)))


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_lockstep_matches_golden(golden, backend, scenario):
    expected = golden[backend][scenario]
    actual = capture(backend, scenario)
    assert actual["counters"] == expected["counters"]
    if scenario == "doubly_singular":
        assert len(actual["lanes"]) == len(expected["lanes"])
        for got, want in zip(actual["lanes"], expected["lanes"]):
            assert got["stats"] == want["stats"]
            assert got.get("error") == want.get("error")
            if "x" in want:
                assert _close(got["x"], want["x"])
        return
    for got, want in zip(actual["transient"], expected["transient"]):
        assert got["accounting"] == want["accounting"]
        assert got["times"] == want["times"]
        assert _close(got["out"], want["out"])
    for got, want in zip(actual["dc"], expected["dc"]):
        assert got["stats"] == want["stats"]
        assert got["voltages"].keys() == want["voltages"].keys()
        assert _close(list(got["voltages"].values()),
                      list(want["voltages"].values()))


def test_golden_scenarios_exercise_their_paths(golden):
    """The digests must actually cover what they are named after."""
    for backend in BACKENDS:
        cases = golden[backend]
        assert cases["plain"]["counters"]["spice.batch.rounds"] > 0
        fault = cases["lane_fault"]["counters"]
        assert fault["spice.batch.evictions{reason=fault}"] == 1
        singular = cases["doubly_singular"]
        assert [("error" in lane) for lane in singular["lanes"]] == \
            [False, True, False]
        assert "singular" in singular["lanes"][1]["error"]
        assert singular["counters"]["spice.guard.rung{rung=nudge}"] >= 3
        assert cases["guard"]["counters"]["spice.guard.illconditioned"] > 0
    assert "spice.batch.sparse_rounds" in cases["plain"]["counters"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_lockstep_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(capture_all()))
    print(f"wrote {GOLDEN}")
