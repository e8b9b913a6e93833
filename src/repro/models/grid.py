"""Scalar table evaluators behind the table-backed macromodels.

Two plain-data interpolants serve every table lookup of the deployable
models: :class:`ClampedTrilinear` (the eq. 3.11/3.12 proximity grids and
the Section-6 glitch grid) and :class:`Pchip` (the eq. 3.7/3.8
single-input curves).  Both answer one scalar query at a time with
Python floats, which is what a timing tool's inner loop asks for; a
general N-D array interpolator spends far longer on argument handling
than on the arithmetic of one point.

Both are bit-identical to the scipy interpolants they replace
(``RegularGridInterpolator(method="linear")`` on a hull-clamped point,
and ``PchipInterpolator(extrapolate=True)``): they replay scipy's
interval search, operation order and coefficient construction, so every
model answer is unchanged to the last bit.  ``tests/models/test_grid.py``
holds the equivalence suite with scipy as the reference.

Being plain data (lists of floats), both pickle as they are, so models
holding them ship to process-pool workers without custom state hooks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from ..errors import ModelError

__all__ = ["ClampedTrilinear", "Pchip"]


def _interval(xs: list, x: float) -> int:
    """scipy's ``find_interval`` on an ascending axis: ``x < xs[0]`` maps
    to interval 0, ``x >= xs[-1]`` to the last interval ``len(xs) - 2``."""
    i = bisect_right(xs, x) - 1
    last = len(xs) - 2
    if i > last:
        return last
    return i if i > 0 else 0


def _check_axis(axis: np.ndarray, label: str) -> None:
    if axis.ndim != 1 or axis.size < 2 or np.any(np.diff(axis) <= 0):
        raise ModelError(f"{label} must be strictly increasing with >= 2 points")
    if not np.all(np.isfinite(axis)):
        raise ModelError(f"{label} must be finite")


def _finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ModelError(f"table coordinate must be finite, got {x}")
    return x


class ClampedTrilinear:
    """Trilinear interpolation on a rectilinear 3-D grid, with each query
    clamped to the grid hull.

    Clamping (rather than extrapolating) is the right behaviour at the
    grid edges of the proximity tables: beyond the proximity window the
    ratios saturate, and the grids are built to cover the window with
    margin.
    """

    def __init__(self, axes: Sequence[Sequence[float]], values) -> None:
        arrays = [np.asarray(a, dtype=float) for a in axes]
        if len(arrays) != 3:
            raise ModelError(f"trilinear grid needs 3 axes, got {len(arrays)}")
        for k, axis in enumerate(arrays):
            _check_axis(axis, f"axis {k}")
        table = np.asarray(values, dtype=float)
        shape = tuple(a.size for a in arrays)
        if table.shape != shape:
            raise ModelError(
                f"table shape {table.shape} does not match axes {shape}")
        self.axes = tuple(a.tolist() for a in arrays)
        self.values = table.tolist()

    def __call__(self, x0: float, x1: float, x2: float) -> float:
        ax0, ax1, ax2 = self.axes
        i0, y0 = self._locate(ax0, x0)
        i1, y1 = self._locate(ax1, x1)
        i2, y2 = self._locate(ax2, x2)
        # The eight corner terms in scipy's ``_evaluate_linear`` order
        # (itertools.product over (low, high) per axis, last axis
        # fastest), each weighted by ((w0 * w1) * w2) and summed from 0.
        a0, a1, a2 = 1 - y0, 1 - y1, 1 - y2
        lo, hi = self.values[i0], self.values[i0 + 1]
        lolo, lohi, hilo, hihi = lo[i1], lo[i1 + 1], hi[i1], hi[i1 + 1]
        w_ll, w_lh, w_hl, w_hh = a0 * a1, a0 * y1, y0 * a1, y0 * y1
        j = i2 + 1
        value = 0.0
        value = value + lolo[i2] * (w_ll * a2)
        value = value + lolo[j] * (w_ll * y2)
        value = value + lohi[i2] * (w_lh * a2)
        value = value + lohi[j] * (w_lh * y2)
        value = value + hilo[i2] * (w_hl * a2)
        value = value + hilo[j] * (w_hl * y2)
        value = value + hihi[i2] * (w_hh * a2)
        value = value + hihi[j] * (w_hh * y2)
        return value

    @staticmethod
    def _locate(axis: list, x: float):
        """Interval index and normalized distance of hull-clamped ``x``."""
        x = _finite(x)
        if x < axis[0]:
            x = axis[0]
        elif x > axis[-1]:
            x = axis[-1]
        i = _interval(axis, x)
        left = axis[i]
        return i, (x - left) / (axis[i + 1] - left)


class Pchip:
    """Monotone piecewise-cubic Hermite interpolant (Fritsch-Carlson PCHIP),
    extrapolating with the end cubics.

    The per-interval power-basis coefficients are built once, as scipy's
    ``PchipInterpolator`` builds them; a query is one interval search and
    one power sum, in scipy's ``evaluate_poly1`` order.
    """

    def __init__(self, x, y) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _check_axis(x, "PCHIP abscissae")
        if y.shape != x.shape or not np.all(np.isfinite(y)):
            raise ModelError("PCHIP ordinates must be finite and match the abscissae")
        dk = _pchip_derivatives(x, y)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dk[:-1] + dk[1:] - 2 * slope) / dx
        coeffs = np.stack((
            t / dx,
            (slope - dk[:-1]) / dx - t,
            dk[:-1],
            y[:-1],
        ))
        self.x = x.tolist()
        #: ``coeffs[i]`` = (c3, c2, c1, c0) of interval ``i`` in powers of
        #: ``s = x - x[i]``: ``c3 s^3 + c2 s^2 + c1 s + c0``.
        self.coeffs = coeffs.T.tolist()

    def __call__(self, xval: float) -> float:
        xval = _finite(xval)
        i = _interval(self.x, xval)
        c3, c2, c1, c0 = self.coeffs[i]
        s = xval - self.x[i]
        # A power sum, not Horner's rule: Horner rounds differently and
        # would move answers in the last bit.
        res = 0.0 + c0
        z = s
        res = res + c1 * z
        z = z * s
        res = res + c2 * z
        z = z * s
        return res + c3 * z


def _pchip_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PCHIP node derivatives: zero at flat segments and slope sign
    changes, else the weighted harmonic mean of the adjacent slopes;
    the ends use the shape-preserving one-sided three-point estimate."""
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk

    if y.shape[0] == 2:
        # Two samples: the straight line through them.
        dk = np.zeros_like(y)
        dk[0] = mk[0]
        dk[1] = mk[0]
        return dk

    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)

    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]

    # Divisions by a zero slope land only where ``condition`` holds.
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)

    dk = np.zeros_like(y)
    dk[1:-1][condition] = 0.0
    dk[1:-1][~condition] = 1.0 / whmean[~condition]

    dk[0] = _pchip_edge(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_edge(hk[-1], hk[-2], mk[-1], mk[-2])
    return dk


def _pchip_edge(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end derivative, limited to keep the shape
    (Moler, *Numerical Computing with MATLAB*, pchiptx.m)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d
