"""Single-input macromodels (paper eq. 3.7 / 3.8).

Dimensional analysis collapses the single-input delay of a cell-based
gate to one curve per pin and direction:

    Delta^(1) / tau = D^(1)( u ),    u = C_L / (K_n * V_dd * tau)

and likewise for the output transition time.  The table backend stores
samples of those curves (built by
:func:`repro.charlib.single.characterize_single_input`) and interpolates
monotonically in ``log u``; the simulator backend answers every query
with a fresh (memoized) transient simulation and serves as the oracle in
paper-methodology experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ModelError
from .base import SingleInputModel
from .grid import Pchip

__all__ = ["TableSingleInputModel", "SimulatorSingleInputModel"]


class TableSingleInputModel(SingleInputModel):
    """PCHIP-interpolated normalized delay/transition-time curves.

    Parameters
    ----------
    input_name, direction:
        The pin and edge direction the model describes.
    u, delay_norm, ttime_norm:
        Samples of the drive factor and the normalized responses
        ``Delta/tau`` and ``tau_out/tau``.  ``u`` need not be sorted but
        must be positive and free of duplicates.
    k_drive:
        The strength (paper K) of the switching network driving the
        output for this direction -- ``K_n`` of the pin's NMOS for a
        falling output, ``K_p`` for a rising output.  Used to recompute
        ``u`` for query loads.
    vdd:
        Supply voltage.
    char_load:
        The load used during characterization (the default query load).
    c_par:
        Fitted effective output parasitic capacitance added to the load
        inside the drive factor (see :mod:`repro.charlib.single` -- it
        restores the one-argument collapse that raw eq. 3.7 loses to
        non-scaling parasitics).
    """

    def __init__(self, input_name: str, direction: str,
                 u: np.ndarray, delay_norm: np.ndarray, ttime_norm: np.ndarray,
                 *, k_drive: float, vdd: float, char_load: float,
                 c_par: float = 0.0) -> None:
        self.input_name = input_name
        self.direction = direction
        order = np.argsort(np.asarray(u, dtype=float))
        self._u = np.asarray(u, dtype=float)[order]
        self._d = np.asarray(delay_norm, dtype=float)[order]
        self._t = np.asarray(ttime_norm, dtype=float)[order]
        if self._u.size < 2:
            raise ModelError("single-input table needs at least 2 samples")
        if np.any(self._u <= 0.0):
            raise ModelError("drive factor samples must be positive")
        if np.any(np.diff(self._u) <= 0.0):
            raise ModelError("drive factor samples must be distinct")
        self.k_drive = float(k_drive)
        self.vdd = float(vdd)
        self.char_load = float(char_load)
        self.c_par = float(c_par)
        log_u = np.log(self._u)
        self._delay_interp = Pchip(log_u, self._d)
        self._ttime_interp = Pchip(log_u, self._t)

    # ------------------------------------------------------------------
    def drive_factor(self, tau: float, load: Optional[float] = None) -> float:
        """``u = (C_L + C_par) / (K * V_dd * tau)`` for a query point."""
        if tau <= 0.0:
            raise ModelError(f"input transition time must be positive, got {tau}")
        cl = self.char_load if load is None else float(load)
        if cl <= 0.0:
            raise ModelError(f"load must be positive, got {cl}")
        return (cl + self.c_par) / (self.k_drive * self.vdd * tau)

    # ``np.log``, not ``math.log``: the two differ in the last bit for
    # about one argument in 2,000, which would move answers.
    def delay(self, tau: float, load: Optional[float] = None) -> float:
        u = self.drive_factor(tau, load)
        return self._delay_interp(np.log(u)) * tau

    def ttime(self, tau: float, load: Optional[float] = None) -> float:
        u = self.drive_factor(tau, load)
        return self._ttime_interp(np.log(u)) * tau

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_payload`)."""
        return {
            "input": self.input_name,
            "direction": self.direction,
            "u": self._u.tolist(),
            "delay_norm": self._d.tolist(),
            "ttime_norm": self._t.tolist(),
            "k_drive": self.k_drive,
            "vdd": self.vdd,
            "char_load": self.char_load,
            "c_par": self.c_par,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TableSingleInputModel":
        return cls(
            payload["input"], payload["direction"],
            np.asarray(payload["u"]), np.asarray(payload["delay_norm"]),
            np.asarray(payload["ttime_norm"]),
            k_drive=payload["k_drive"], vdd=payload["vdd"],
            char_load=payload["char_load"],
            c_par=payload.get("c_par", 0.0),
        )


class SimulatorSingleInputModel(SingleInputModel):
    """Answers single-input queries by direct transient simulation.

    Used wherever the reproduction follows the paper's methodology of
    treating the circuit simulator as the ground-truth macromodel.
    Results are memoized on ``(tau, load)`` rounded to femtoseconds /
    attofarads, so repeated algorithm invocations do not re-simulate.
    """

    def __init__(self, gate, input_name: str, direction: str, thresholds) -> None:
        self.gate = gate
        self.input_name = input_name
        self.direction = direction
        self.thresholds = thresholds
        self._memo: Dict[Tuple[int, int], Tuple[float, float]] = {}

    def _response(self, tau: float, load: Optional[float]) -> Tuple[float, float]:
        from ..charlib.simulate import single_input_response

        cl = self.gate.load if load is None else float(load)
        key = (round(tau * 1e15), round(cl * 1e18))
        if key not in self._memo:
            shot = single_input_response(
                self.gate, self.input_name, self.direction, tau,
                self.thresholds, load=cl,
            )
            self._memo[key] = (shot.delay, shot.out_ttime)
        return self._memo[key]

    def delay(self, tau: float, load: Optional[float] = None) -> float:
        return self._response(tau, load)[0]

    def ttime(self, tau: float, load: Optional[float] = None) -> float:
        return self._response(tau, load)[1]
