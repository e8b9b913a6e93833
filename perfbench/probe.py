"""A fixed reference workload that gauges the host's current speed.

The program is never timed here: ``host_probe`` runs the same small mix
of interpreter work, NumPy calls and memory traffic every time, so its
duration moves only with the machine (frequency, shared caches, other
tenants), not with the repository's code.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter


@functools.lru_cache(maxsize=None)
def _operands():
    """The probe's fixed operands, built on first use (so importing this
    module loads no numeric library before the program is timed)."""
    import numpy as np

    return (np, np.arange(64.0).reshape(8, 8) + np.eye(8) * 10.0,
            np.arange(1 << 19, dtype=np.float64))  # 4 MiB


def _probe_once() -> float:
    np, matrix, buffer = _operands()
    start = perf_counter()
    acc, table = 0.0, {}
    for i in range(600):
        acc += math.sqrt(i * 0.5) % 7.0
        table[i & 31] = acc
    for _ in range(10):
        x = np.linalg.solve(matrix, matrix[0])
        acc += float(np.interp(0.3, matrix[0], x))
    acc += float(buffer[::64].sum())
    return perf_counter() - start


def host_probe(seconds: float = 0.0) -> float:
    """Median probe duration (seconds) over ``seconds`` of probing, at
    least five probes (about 1.5 ms)."""
    samples = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(samples) < 5:
        samples.append(_probe_once())
    samples.sort()
    return samples[len(samples) // 2]


class SpeedGauge:
    """The host speed around each op: a fresh probe whenever the last one
    is ``interval`` seconds old.  The host's slow spells can be as short
    as a few tens of milliseconds, so the gauge is not smoothed."""

    def __init__(self, interval: float = 0.025) -> None:
        self.interval = interval
        self.last = host_probe(0.05)
        self.next_at = perf_counter() + interval

    def current(self) -> float:
        """The latest probe duration, probing first when one is due."""
        if perf_counter() >= self.next_at:
            self.last = host_probe()
            self.next_at = perf_counter() + self.interval
        return self.last
