"""Regenerate the benchmark fixture (about two minutes on two cores).

    python3 perfbench/make_fixture.py

Writes ``perfbench/fixture/``:

* ``cache/`` -- the characterization cache of the default-grid NAND3
  table library (100 fF, rise and fall, reference pairs) plus its VTC
  thresholds: exactly the entries a table-mode ``DelayCalculator`` or a
  ``repro serve`` context for that gate reads;
* ``references.json`` -- the paper's Table 5-1 check set (100 falling
  three-input configurations, seed 1996) with the simulated delay from
  each possible reference pin and the simulated output transition time;
* ``MANIFEST.json`` -- the SHA-256 of every file, which every benchmark
  run verifies before it starts.

Rerun it whenever the cache key schema or the characterization grids
change; a benchmark run refuses to characterize on its own.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    FIXTURE, FIXTURE_CACHE, GATE, REFERENCES, apply_pinned_env, write_manifest,
)

#: The paper's Table 5-1 protocol: 100 configurations, seed 1996.
CHECK_SEED = 1996
CHECK_CONFIGS = 100


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    staging = FIXTURE / "cache.new"
    if staging.exists():
        shutil.rmtree(staging)
    apply_pinned_env(staging)

    from repro.charlib import GateLibrary
    from repro.charlib.simulate import multi_input_response
    from repro.experiments.table5_1 import random_cases
    from repro.serve.protocol import build_gate
    from repro.waveform import FALL, Edge

    gate = build_gate(GATE["gate"], GATE["process"], GATE["load"])
    library = GateLibrary.characterize(gate, mode="table", workers=-1)
    if not library.healthy:
        raise SystemExit("characterization lost grid points:\n"
                         + library.health_summary())

    references = []
    for case in random_cases(CHECK_CONFIGS, CHECK_SEED):
        config = {"taus": case["taus"],
                  "at": {"a": 0.0, "b": case["seps"]["ab"],
                         "c": case["seps"]["ac"]}}
        edges = {pin: Edge(FALL, config["at"][pin], config["taus"][pin])
                 for pin in "abc"}
        delays, ttimes = {}, set()
        for pin in "abc":
            shot = multi_input_response(gate, edges, library.thresholds,
                                        reference=pin)
            delays[pin] = shot.delay
            ttimes.add(shot.out_ttime)
        if len(ttimes) != 1:
            raise SystemExit("output transition time depends on the "
                             "reference pin; the measurement changed")
        references.append({**config, "direction": FALL,
                           "sim_delay": delays, "sim_ttime": ttimes.pop()})

    if FIXTURE_CACHE.exists():
        shutil.rmtree(FIXTURE_CACHE)
    FIXTURE_CACHE.mkdir(parents=True)
    for path in sorted(staging.glob("*.json")):
        # Only the entries the library reads; sweep journals stay behind.
        if path.name.split("-")[0] in ("vtc", "single", "dual"):
            shutil.copyfile(path, FIXTURE_CACHE / path.name)
    shutil.rmtree(staging)
    REFERENCES.write_text(json.dumps(
        {"protocol": "Table 5-1, seed 1996, falling, NAND3 100 fF",
         "gate": GATE, "configs": references}, indent=1, sort_keys=True)
        + "\n")
    write_manifest()
    print(f"fixture written: {len(list(FIXTURE_CACHE.glob('*.json')))} cache "
          f"entries, {len(references)} reference configurations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
