"""Glitch measurement and the minimum-output-voltage macromodel.

Conventions (matching the paper's Figure 6-1 experiment on a NAND):

* the **causing** input is the one whose transition would, alone, drive
  the output through a full transition (the rising input ``b`` of a NAND
  pulls the output low -- the paper's "non-controlling input" that the
  macromodel is referenced to);
* the **blocking** input is the one switching the opposite way (the
  falling ``a``), which cuts the transition short;
* ``sep`` is the separation ``s = t_blocking - t_causing`` measured at
  the onset thresholds: large positive ``sep`` gives the causing input
  time to complete the output transition before the blocker acts, small
  or negative ``sep`` blocks it.

For a falling output transition the observable is the **minimum** output
voltage; for a rising one, the **maximum**.  :class:`TableGlitchModel`
stores the extremum normalized to Vdd on a grid normalized by the
causing input's single-input delay -- the same dimensional reduction as
the dual-input proximity model (the paper: "we first find a macromodel
for the minimum voltage at the output which will be similar to (3.9)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import CharacterizationError, MeasurementError, ModelError
from ..gates import Gate
from ..spice import transient
from ..units import parse_quantity
from ..waveform import Edge, FALL, RISE, Pwl, Thresholds, opposite
from ..charlib.cache import CharacterizationCache, default_cache
from ..charlib.simulate import estimate_settle_time, single_input_response
from ..models.grid import ClampedTrilinear

__all__ = [
    "GlitchShot",
    "glitch_response",
    "pulse_response",
    "GlitchGrid",
    "TableGlitchModel",
    "SimulatorGlitchModel",
    "characterize_glitch",
]


@dataclass(frozen=True)
class GlitchShot:
    """Measured glitch observables.

    ``extremum`` is the minimum output voltage for a falling output
    attempt (or the maximum for a rising one); ``completed`` says
    whether the output crossed the validity threshold (``V_il`` falling,
    ``V_ih`` rising); ``output`` is the waveform for plotting.
    """

    causing: str
    blocking: str
    sep: float
    extremum: float
    completed: bool
    output: Pwl


def _glitch_simulation(gate: Gate, causing: str, blocking: str,
                       causing_edge: Edge, blocking_edge: Edge,
                       thresholds: Thresholds,
                       load: Optional[float]) -> GlitchShot:
    cl = gate.load if load is None else parse_quantity(load, unit="F")
    out_dir = gate.output_direction(causing_edge.direction)

    margin = 50e-12
    ramp_c = causing_edge.to_pwl(thresholds)
    ramp_b = blocking_edge.to_pwl(thresholds)
    shift = max(0.0, margin - min(ramp_c.t_start, ramp_b.t_start))
    ramp_c = causing_edge.shifted(shift).to_pwl(thresholds)
    ramp_b = blocking_edge.shifted(shift).to_pwl(thresholds)

    settle = estimate_settle_time(gate, cl) + max(causing_edge.tau, blocking_edge.tau)
    t_stop = max(ramp_c.t_end, ramp_b.t_end) + settle
    circuit = gate.build({causing: ramp_c, blocking: ramp_b}, load=cl,
                         switching=[causing, blocking])
    result = transient(circuit, t_stop, record=[gate.output])
    output = result.node(gate.output)

    window = output.windowed(min(ramp_c.t_start, ramp_b.t_start), output.t_end)
    if out_dir == FALL:
        extremum = window.min()
        completed = extremum <= thresholds.vil
    else:
        extremum = window.max()
        completed = extremum >= thresholds.vih
    return GlitchShot(
        causing=causing,
        blocking=blocking,
        sep=blocking_edge.t_cross - causing_edge.t_cross,
        extremum=extremum,
        completed=completed,
        output=output.shifted(-shift),
    )


def glitch_response(gate: Gate, causing: str, blocking: str, *,
                    tau_causing: float | str, tau_blocking: float | str,
                    sep: float | str, thresholds: Thresholds,
                    load: Optional[float] = None) -> GlitchShot:
    """Simulate the opposite-transition glitch and measure its extremum.

    The causing input gets the direction that sensitizes a full output
    transition (rising for a NAND pull-down, i.e. the non-controlling
    -> controlling move); the blocking input switches the opposite way,
    ``sep`` seconds later (negative = earlier).
    """
    if causing == blocking:
        raise MeasurementError("causing and blocking inputs must differ")
    for name in (causing, blocking):
        if name not in gate.inputs:
            raise MeasurementError(f"{name!r} is not an input of {gate.name!r}")
    # For an inverting gate, a rising input can only pull the output low
    # and vice versa; the causing direction is the one that toggles the
    # output given the blocking input's *initial* (pre-transition) level.
    causing_dir = _causing_direction(gate, causing, blocking)
    sep_s = parse_quantity(sep, unit="s")
    causing_edge = Edge(causing_dir, 0.0, parse_quantity(tau_causing, unit="s"))
    blocking_edge = Edge(opposite(causing_dir), sep_s,
                         parse_quantity(tau_blocking, unit="s"))
    return _glitch_simulation(gate, causing, blocking, causing_edge,
                              blocking_edge, thresholds, load)


def _causing_direction(gate: Gate, causing: str, blocking: str) -> str:
    """Direction of the causing input that produces an output transition
    while the blocking input still sits at its initial level.

    For the paper's NAND example: ``b`` rising (with ``a`` initially
    high) pulls the output low, then ``a`` falling blocks it.  Found by
    logic evaluation so it generalizes to NOR/AOI gates.
    """
    for causing_dir in (RISE, FALL):
        causing_initial = causing_dir == FALL  # high before falling
        blocking_initial = causing_dir == RISE  # blocker moves opposite
        stable = gate.sensitizing_levels([causing, blocking])
        before = dict(stable, **{causing: causing_initial, blocking: blocking_initial})
        after = dict(before, **{causing: not causing_initial})
        if gate.logic_output(before) != gate.logic_output(after):
            return causing_dir
    raise MeasurementError(
        f"no opposite-transition glitch scenario exists for inputs "
        f"({causing!r}, {blocking!r}) of {gate.name!r}"
    )


def pulse_response(gate: Gate, input_name: str, *, width: float | str,
                   tau_first: float | str, tau_second: float | str,
                   first_direction: str, thresholds: Thresholds,
                   load: Optional[float] = None) -> GlitchShot:
    """A pulse on a single input ("the same input first falls and then
    rises"): two opposite edges ``width`` seconds apart on one pin.

    Returns the output-extremum observables; the minimum width at which
    the output still completes its transition is the classic inertial
    delay of the pin (see :func:`repro.inertial.minsep.minimum_pulse_width`).
    """
    if input_name not in gate.inputs:
        raise MeasurementError(f"{input_name!r} is not an input of {gate.name!r}")
    width_s = parse_quantity(width, unit="s")
    if width_s <= 0.0:
        raise MeasurementError(f"pulse width must be positive, got {width_s}")
    tau1 = parse_quantity(tau_first, unit="s")
    tau2 = parse_quantity(tau_second, unit="s")
    first = Edge(first_direction, 0.0, tau1)
    second = Edge(opposite(first.direction), width_s, tau2)

    first_pwl = first.to_pwl(thresholds)
    second_pwl = second.to_pwl(thresholds)
    # Merge the two ramps into one PWL pulse; require them not to overlap.
    if second_pwl.t_start <= first_pwl.t_end:
        raise MeasurementError(
            "pulse edges overlap: width too small for the given transition times"
        )
    margin = 50e-12
    shift = max(0.0, margin - first_pwl.t_start)
    t1 = first_pwl.times + shift
    t2 = second_pwl.times + shift
    pulse = Pwl(np.concatenate([t1, t2]),
                np.concatenate([first_pwl.values, second_pwl.values]))

    cl = gate.load if load is None else parse_quantity(load, unit="F")
    out_dir = gate.output_direction(first.direction)
    settle = estimate_settle_time(gate, cl) + tau1 + tau2
    circuit = gate.build({input_name: pulse}, load=cl, switching=[input_name])
    result = transient(circuit, pulse.t_end + settle, record=[gate.output])
    output = result.node(gate.output)
    window = output.windowed(t1[0], output.t_end)
    if out_dir == FALL:
        extremum = window.min()
        completed = extremum <= thresholds.vil
    else:
        extremum = window.max()
        completed = extremum >= thresholds.vih
    return GlitchShot(
        causing=input_name,
        blocking=input_name,
        sep=width_s,
        extremum=extremum,
        completed=completed,
        output=output.shifted(-shift),
    )


# ----------------------------------------------------------------------
# Macromodels of the glitch extremum
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GlitchGrid:
    """Characterization grid for the glitch macromodel.

    ``tau_causings`` are physical causing-input transition times; ``a2``
    (blocking tau) and ``a3`` (separation) are normalized by the causing
    input's single-input delay, mirroring :class:`~repro.charlib.dual.DualInputGrid`.
    """

    tau_causings: Tuple[float, ...] = (100e-12, 500e-12, 2000e-12)
    a2: Tuple[float, ...] = (0.25, 1.0, 4.0)
    a3: Tuple[float, ...] = (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5)

    def key(self) -> dict:
        return {"tau_causings": list(self.tau_causings), "a2": list(self.a2),
                "a3": list(self.a3)}


class TableGlitchModel:
    """Normalized glitch extremum ``V_ext/Vdd`` on a 3-D grid, queried
    hull-clamped (:class:`~repro.models.grid.ClampedTrilinear`)."""

    def __init__(self, causing: str, blocking: str,
                 axes: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 table: np.ndarray, *, vdd: float, output_direction: str) -> None:
        self.causing = causing
        self.blocking = blocking
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.table = np.asarray(table, dtype=float)
        self.vdd = float(vdd)
        self.output_direction = output_direction
        self._interp = ClampedTrilinear(self.axes, self.table)

    def extremum(self, tau_causing: float, tau_blocking: float, sep: float, *,
                 delta1: float) -> float:
        """Predicted extremum voltage (volts)."""
        if delta1 <= 0.0:
            raise ModelError(f"delta1 must be positive, got {delta1}")
        return self._interp(tau_causing / delta1, tau_blocking / delta1,
                            sep / delta1) * self.vdd

    def to_payload(self) -> dict:
        return {
            "causing": self.causing,
            "blocking": self.blocking,
            "axes": [a.tolist() for a in self.axes],
            "table": self.table.tolist(),
            "vdd": self.vdd,
            "output_direction": self.output_direction,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TableGlitchModel":
        return cls(
            payload["causing"], payload["blocking"],
            tuple(np.asarray(a) for a in payload["axes"]),
            np.asarray(payload["table"]), vdd=payload["vdd"],
            output_direction=payload["output_direction"],
        )


class SimulatorGlitchModel:
    """Glitch extremum via direct (memoized) simulation."""

    def __init__(self, gate: Gate, causing: str, blocking: str,
                 thresholds: Thresholds) -> None:
        self.gate = gate
        self.causing = causing
        self.blocking = blocking
        self.thresholds = thresholds
        self.output_direction = gate.output_direction(
            _causing_direction(gate, causing, blocking)
        )
        self.vdd = gate.process.vdd
        self._memo: Dict[Tuple[int, int, int], float] = {}

    def extremum(self, tau_causing: float, tau_blocking: float, sep: float, *,
                 delta1: float | None = None) -> float:
        key = (round(tau_causing * 1e15), round(tau_blocking * 1e15),
               round(sep * 1e15))
        if key not in self._memo:
            shot = glitch_response(
                self.gate, self.causing, self.blocking,
                tau_causing=tau_causing, tau_blocking=tau_blocking,
                sep=sep, thresholds=self.thresholds,
            )
            self._memo[key] = shot.extremum
        return self._memo[key]


def characterize_glitch(gate: Gate, causing: str, blocking: str,
                        thresholds: Thresholds, *,
                        grid: Optional[GlitchGrid] = None,
                        cache: Optional[CharacterizationCache] = None) -> TableGlitchModel:
    """Build the Section-6 minimum/maximum-voltage table model."""
    grid = grid or GlitchGrid()
    cache = cache or default_cache()
    causing_dir = _causing_direction(gate, causing, blocking)
    key = {
        **gate.cache_key(),
        "causing": causing,
        "blocking": blocking,
        "vil": thresholds.vil,
        "vih": thresholds.vih,
        **grid.key(),
    }

    def compute() -> dict:
        a1_axis = []
        table = np.empty((len(grid.tau_causings), len(grid.a2), len(grid.a3)))
        for i, tau_c in enumerate(grid.tau_causings):
            single = single_input_response(gate, causing, causing_dir, tau_c, thresholds)
            delta1 = single.delay
            if delta1 <= 0.0:
                raise CharacterizationError(
                    f"non-positive single-input delay at tau={tau_c:g}s"
                )
            a1_axis.append(tau_c / delta1)
            for j, a2 in enumerate(grid.a2):
                for k, a3 in enumerate(grid.a3):
                    shot = glitch_response(
                        gate, causing, blocking,
                        tau_causing=tau_c, tau_blocking=a2 * delta1,
                        sep=a3 * delta1, thresholds=thresholds,
                    )
                    table[i, j, k] = shot.extremum / gate.process.vdd
        if np.any(np.diff(a1_axis) <= 0):
            raise CharacterizationError("tau/delta1 axis is not increasing")
        return {"a1": a1_axis, "a2": list(grid.a2), "a3": list(grid.a3),
                "table": table.tolist()}

    payload = cache.get_or_compute("glitch", key, compute)
    axes = (np.asarray(payload["a1"]), np.asarray(payload["a2"]),
            np.asarray(payload["a3"]))
    return TableGlitchModel(
        causing, blocking, axes, np.asarray(payload["table"]),
        vdd=gate.process.vdd,
        output_direction=gate.output_direction(causing_dir),
    )
