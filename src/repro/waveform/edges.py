"""Transition-direction vocabulary and the :class:`Edge` descriptor.

An :class:`Edge` is the abstract timing view of a signal transition: a
direction, the time it crosses its *timing threshold* (``V_il`` for
rising, ``V_ih`` for falling -- the onset of the transition, matching the
paper's measurement rule), and a full-swing transition time.  The
characterization and timing layers pass edges around instead of whole
waveforms; :func:`Edge.to_pwl` lowers an edge to a concrete PWL ramp when
a circuit simulation needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..errors import MeasurementError
from ..units import parse_quantity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .measure import Thresholds
    from .pwl import Pwl

__all__ = ["RISE", "FALL", "opposite", "normalize_direction", "Edge"]

#: Canonical direction tokens.
RISE = "rise"
FALL = "fall"

_ALIASES = {
    "rise": RISE,
    "rising": RISE,
    "r": RISE,
    "up": RISE,
    "fall": FALL,
    "falling": FALL,
    "f": FALL,
    "down": FALL,
}


def normalize_direction(direction: str) -> str:
    """Map any accepted alias to ``RISE``/``FALL``; raise otherwise."""
    try:
        return _ALIASES[direction.lower()]
    except (KeyError, AttributeError):
        raise MeasurementError(f"unknown transition direction {direction!r}") from None


def opposite(direction: str) -> str:
    """The inverse direction (what an inverting gate's output does)."""
    return FALL if normalize_direction(direction) == RISE else RISE


@dataclass(frozen=True)
class Edge:
    """A single transition on a signal.

    Parameters
    ----------
    direction:
        ``"rise"`` or ``"fall"`` (aliases accepted).
    t_cross:
        Time (s) at which the transition crosses its timing threshold:
        ``V_il`` when rising, ``V_ih`` when falling.  This is the paper's
        reference point for both delays and separations.
    tau:
        Full-swing (rail-to-rail) transition time in seconds.

    Both times must be finite and ``tau`` positive; anything else raises
    :class:`~repro.errors.MeasurementError`.
    """

    direction: str
    t_cross: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", normalize_direction(self.direction))
        object.__setattr__(self, "t_cross", parse_quantity(self.t_cross, unit="s"))
        object.__setattr__(self, "tau", parse_quantity(self.tau, unit="s"))
        if not (math.isfinite(self.t_cross) and math.isfinite(self.tau)):
            raise MeasurementError(
                f"edge crossing time and transition time must be finite, "
                f"got t_cross={self.t_cross}, tau={self.tau}")
        if self.tau <= 0.0:
            raise MeasurementError(f"edge transition time must be positive, got {self.tau}")

    @property
    def is_rising(self) -> bool:
        return self.direction == RISE

    def shifted(self, dt: float) -> "Edge":
        """The same edge translated by ``dt`` seconds."""
        return replace(self, t_cross=self.t_cross + dt)

    def separation_from(self, other: "Edge") -> float:
        """Separation ``s_self,other = other.t_cross - self.t_cross``.

        Matches the paper's ``s_ij``: the separation between inputs *i*
        and *j* "measured from input x_i"; positive when *other* switches
        later than *self*.
        """
        return other.t_cross - self.t_cross

    def to_pwl(self, thresholds: "Thresholds", *, t_end: float | None = None) -> "Pwl":
        """Lower this edge to a full-swing PWL ramp.

        The ramp is positioned so that it crosses this edge's timing
        threshold (``V_il`` rising / ``V_ih`` falling, from
        ``thresholds``) exactly at ``t_cross``.
        """
        from .measure import timing_threshold
        from .pwl import ramp_crossing_at

        level = timing_threshold(self.direction, thresholds)
        if self.is_rising:
            v0, v1 = 0.0, thresholds.vdd
        else:
            v0, v1 = thresholds.vdd, 0.0
        return ramp_crossing_at(
            self.t_cross, level, v0=v0, v1=v1, tau=self.tau, t_end=t_end
        )

    def describe(self) -> str:
        """Short human-readable summary for logs and reports."""
        from ..units import format_quantity

        return (
            f"{self.direction} @ {format_quantity(self.t_cross, 's')} "
            f"(tau={format_quantity(self.tau, 's')})"
        )
