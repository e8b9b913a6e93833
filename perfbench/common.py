"""Shared, stdlib-only pieces of the benchmark: paths, the pinned
environment, the fixture manifest, and small statistics helpers.

Nothing here imports ``repro``, so the launcher (``run.py``) can check a
checkout and fail cleanly before any program code is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE = BENCH_DIR / "fixture"
FIXTURE_CACHE = FIXTURE / "cache"
REFERENCES = FIXTURE / "references.json"
MANIFEST = FIXTURE / "MANIFEST.json"

#: The gate every model workload uses: the paper's Figure 1-1 NAND3 at
#: the serve protocol's defaults (``default`` process, 100 fF load).
GATE = {"gate": "nand3", "process": "default", "load": "100f"}

#: The command that regenerates the fixture (recorded in its manifest).
REGENERATE = "python3 perfbench/make_fixture.py"

#: Thread pools of the numeric libraries are pinned to one thread so a
#: run measures the program, not how BLAS shares two cores.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


#: The host probe's duration at the reference host speed (seconds; see
#: ``probe.py``).  Timings are reported as ``measured * PROBE_REFERENCE /
#: probe``: milliseconds at the reference speed.
PROBE_REFERENCE = 0.3e-3


class BenchError(Exception):
    """A benchmark set-up or correctness failure (the run exits non-zero)."""


def pinned_env(cache_dir: Path) -> Dict[str, str]:
    """The environment every program process runs under.

    Every ``REPRO_*`` knob is removed except the cache directory, so
    telemetry is off and no solver or serve setting leaks in from the
    caller; thread pools are pinned; the source tree comes first on
    ``PYTHONPATH``.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def apply_pinned_env(cache_dir: Path) -> None:
    """Pin this process's own environment (before numpy is imported)."""
    target = pinned_env(cache_dir)
    for key in list(os.environ):
        if key not in target:
            del os.environ[key]
    os.environ.update(target)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Fixture
# ----------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fixture_files() -> List[Path]:
    """Every data file of the fixture (the manifest excluded)."""
    files = sorted(FIXTURE_CACHE.glob("*.json")) if FIXTURE_CACHE.is_dir() else []
    return files + ([REFERENCES] if REFERENCES.exists() else [])


def write_manifest() -> None:
    entries = {str(p.relative_to(FIXTURE)): sha256_file(p)
               for p in fixture_files()}
    document = {"regenerate": REGENERATE, "gate": GATE, "files": entries}
    MANIFEST.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def verify_fixture() -> Dict[str, str]:
    """Check every fixture file against the manifest; raise if any is
    missing, extra or altered."""
    if not MANIFEST.is_file():
        raise BenchError(f"fixture manifest {MANIFEST.name} is missing; "
                         f"regenerate with `{REGENERATE}`")
    try:
        expected = json.loads(MANIFEST.read_text())["files"]
    except (ValueError, KeyError) as exc:
        raise BenchError(f"fixture manifest is unreadable: {exc}") from exc
    found = {str(p.relative_to(FIXTURE)): p for p in fixture_files()}
    if not expected or set(found) != set(expected):
        missing = sorted(set(expected) - set(found))
        extra = sorted(set(found) - set(expected))
        raise BenchError(f"fixture does not match its manifest (missing "
                         f"{missing}, unexpected {extra}); regenerate with "
                         f"`{REGENERATE}`")
    for name, path in found.items():
        if sha256_file(path) != expected[name]:
            raise BenchError(f"fixture file {name} is corrupted (sha256 "
                             f"mismatch); regenerate with `{REGENERATE}`")
    return expected


def install_fixture(cache_dir: Path) -> None:
    """Copy the verified characterization cache into a fresh cache dir."""
    verify_fixture()
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    cache_dir.mkdir(parents=True)
    for path in sorted(FIXTURE_CACHE.glob("*.json")):
        shutil.copyfile(path, cache_dir / path.name)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Inputs (plain tuples, so the stdlib-only load generator can use them)
# ----------------------------------------------------------------------

PS = 1e-12


def table_query(rng) -> tuple:
    """One ``table-sta`` query: 1-3 switching pins, either direction,
    taus uniform in 50-2000 ps, separations uniform in +-500 ps."""
    direction = rng.choice(("fall", "rise"))
    pins = rng.sample("abc", rng.randint(1, 3))
    edges = tuple(
        (pin, 0.0 if i == 0 else rng.uniform(-500 * PS, 500 * PS),
         rng.uniform(50 * PS, 2000 * PS))
        for i, pin in enumerate(pins))
    return direction, edges


def oracle_query(rng) -> tuple:
    """One Section-5 configuration: all three pins falling, taus uniform
    in 50-2000 ps, ``s_ab``/``s_ac`` uniform in +-500 ps."""
    taus = [rng.uniform(50 * PS, 2000 * PS) for _ in "abc"]
    ats = [0.0, rng.uniform(-500 * PS, 500 * PS), rng.uniform(-500 * PS, 500 * PS)]
    return "fall", tuple(zip("abc", ats, taus))


#: The decoder workload: a 5-bit predecoded decoder (145 unknowns, past
#: the sparse cutover) simulated through one address handover.
DECODER_BITS = 5
DECODER_T_STOP = 1.0e-9


def decoder_query(rng, bit: int) -> tuple:
    """One handover of address bit ``bit``: a start address, ramping from
    200-300 ps with a 100-200 ps transition time."""
    address = rng.randrange(2 ** DECODER_BITS)
    return address, ((bit, rng.uniform(200 * PS, 300 * PS),
                      rng.uniform(100 * PS, 200 * PS)),)


def decoder_handovers(seed: int, per_bit: int, pool_seed: int) -> list:
    """``per_bit`` handovers of every address bit from a fixed pool
    (``pool_seed``), in an order drawn from ``seed``.  Handover costs
    differ by up to a third, so the pool covers every bit evenly and the
    seed only reorders it: the op mix cannot move the figures."""
    bits = iter(list(range(DECODER_BITS)) * per_bit)
    return traced_inputs(lambda rng: decoder_query(rng, next(bits)), seed,
                         DECODER_BITS * per_bit, pool_seed)


#: The first request of a serve set-up: one three-input query per
#: direction, so both corrective terms are calibrated before timing.
FIRST_QUERIES = tuple(
    (direction, (("a", 0.0, 300e-12), ("b", 40e-12, 500e-12),
                 ("c", -60e-12, 800e-12)))
    for direction in ("fall", "rise"))


def check_query(config: dict) -> tuple:
    """A Table 5-1 reference configuration as a query tuple."""
    return config["direction"], tuple(
        (pin, config["at"][pin], config["taus"][pin]) for pin in "abc")


def request_body(query) -> dict:
    """A query tuple as a table-mode ``/delay`` request object."""
    direction, edges = query
    return {**GATE, "mode": "table", "edges": [
        {"input": pin, "direction": direction, "tau": tau, "at": at}
        for pin, at, tau in edges]}


def traced_inputs(make, seed: int, count: int, pool_seed: int) -> list:
    """A fixed input pool (``pool_seed``) in an order drawn from ``seed``:
    the traced run's inputs, so per-op counts repeat exactly across seeds,
    and the decoder's handovers."""
    pool_rng = random.Random(pool_seed)
    pool = [make(pool_rng) for _ in range(count)]
    random.Random(seed).shuffle(pool)
    return pool


def error_summary(delay_errors: List[float], ttime_errors: List[float]) -> Dict[str, float]:
    """Mean and max absolute model error (percent) over a check set."""
    def mean_abs(xs):
        return sum(abs(x) for x in xs) / len(xs)
    return {
        "delay_abs_err_mean_pct": mean_abs(delay_errors),
        "delay_abs_err_max_pct": max(abs(x) for x in delay_errors),
        "ttime_abs_err_mean_pct": mean_abs(ttime_errors),
        "ttime_abs_err_max_pct": max(abs(x) for x in ttime_errors),
    }


def check_errors(config: dict, reference: str, delay: float,
                 ttime: float) -> Tuple[float, float]:
    """Percent model error of one answer against its simulated reference."""
    sim_delay = config["sim_delay"][reference]
    sim_ttime = config["sim_ttime"]
    return ((delay - sim_delay) / sim_delay * 100.0,
            (ttime - sim_ttime) / sim_ttime * 100.0)


def finite_positive(*values: float) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in values)
