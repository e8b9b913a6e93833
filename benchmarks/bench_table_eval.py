"""Per-call cost of the table-mode answer path.

The deployable form of the paper's macromodels is a handful of small
tables (eq. 3.7/3.8 single-input curves, eq. 3.11/3.12 proximity grids)
evaluated by :mod:`repro.models.grid`.  A timing tool calls them in its
inner loop, so the figure of merit is microseconds per call:

* ``TableDualInputModel.delay_ratio`` -- one clamped trilinear lookup;
* ``TableSingleInputModel.delay`` -- one PCHIP lookup in ``log u``;
* ``DelayCalculator.explain`` on a seeded mix of 1-3 switching pins of
  the NAND3, either direction (taus 50-2000 ps, separations +-500 ps),
  with both corrective terms calibrated beforehand.

The models are the committed default-grid NAND3 characterization of the
benchmark fixture (``perfbench/fixture/cache``), read from a scratch
copy; a cache miss fails the bench instead of characterizing for
minutes.  ``BENCH_table_eval.json`` records the per-call microseconds;
``check_bench.py`` gates the wall time.
"""

import random
import shutil
import time
from pathlib import Path

import pytest

from repro.charlib import GateLibrary
from repro.charlib.cache import CharacterizationCache
from repro.core import DelayCalculator
from repro.gates import Gate
from repro.tech import default_process
from repro.waveform import Edge

from conftest import scaled

FIXTURE_CACHE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "cache"
PS = 1e-12


class FixtureCache(CharacterizationCache):
    """A characterization cache that refuses to compute on a miss."""

    def get_or_compute(self, kind, key, compute, **kwargs):
        def refuse():
            raise RuntimeError(
                f"fixture cache miss for a {kind!r} entry: the benchmark "
                f"fixture no longer matches the program's cache keys")
        return super().get_or_compute(kind, key, refuse, **kwargs)


@pytest.fixture(scope="module")
def calculator(tmp_path_factory):
    if not FIXTURE_CACHE.is_dir():
        pytest.skip("benchmark fixture cache not present")
    cache_dir = tmp_path_factory.mktemp("table-eval") / "cache"
    shutil.copytree(FIXTURE_CACHE, cache_dir)
    gate = Gate.nand(3, default_process(), load=100e-15)
    library = GateLibrary.characterize(gate, mode="table",
                                       cache=FixtureCache(cache_dir))
    calc = DelayCalculator(library)
    calc.step_error("fall")
    calc.step_error("rise")
    return calc


def explain_queries(n, seed=1):
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        direction = rng.choice(("fall", "rise"))
        pins = rng.sample("abc", rng.randint(1, 3))
        queries.append({
            pin: Edge(direction,
                      0.0 if i == 0 else rng.uniform(-500 * PS, 500 * PS),
                      rng.uniform(50 * PS, 2000 * PS))
            for i, pin in enumerate(pins)})
    return queries


def per_call_us(fn, args_list, reps=3):
    """Best-of-``reps`` microseconds per call over ``args_list``."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best / len(args_list) * 1e6


def test_dual_delay_ratio(benchmark, request, calculator):
    model = calculator.library.dual("a", "b", "fall")
    rng = random.Random(2)
    calls = [(rng.uniform(50, 2000) * PS, rng.uniform(50, 2000) * PS,
              rng.uniform(-500, 500) * PS) for _ in range(scaled(160000, 1000))]
    delta1 = 300 * PS
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault("us", per_call_us(
            lambda a, b, s: model.delay_ratio(a, b, s, delta1=delta1), calls)),
        rounds=1, iterations=1)
    print(f"\n  delay_ratio {holder['us']:.2f} us/call")
    request.node.bench_extra = {"us_per_call": holder["us"], "calls": len(calls)}


def test_single_delay(benchmark, request, calculator):
    model = calculator.library.single("a", "fall")
    rng = random.Random(3)
    calls = [(rng.uniform(50, 2000) * PS,) for _ in range(scaled(240000, 1000))]
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault("us", per_call_us(model.delay, calls)),
        rounds=1, iterations=1)
    print(f"\n  single delay {holder['us']:.2f} us/call")
    request.node.bench_extra = {"us_per_call": holder["us"], "calls": len(calls)}


def test_explain_mix(benchmark, request, calculator):
    queries = [(q,) for q in explain_queries(scaled(32000, 400))]
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault("us", per_call_us(calculator.explain, queries)),
        rounds=1, iterations=1)
    for (query,) in queries[:50]:
        result = calculator.explain(query)
        assert result.delay > 0.0 and result.ttime > 0.0
    print(f"\n  explain {holder['us']:.2f} us/query")
    request.node.bench_extra = {"us_per_query": holder["us"],
                                "queries": len(queries)}
