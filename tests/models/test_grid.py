"""The scalar table evaluators against scipy, bit for bit.

:mod:`repro.models.grid` replaced scipy's ``RegularGridInterpolator``
(hull-clamped linear) and ``PchipInterpolator`` (extrapolating) behind
the table-backed models, under a bit-identity contract: every delay,
transition time, ratio and glitch extremum equals what the scipy
interpolants answer, exactly (``==``, never ``approx``).  scipy is
imported here only, as the reference.

The models are the shapes the library builds: the committed default-grid
NAND3 characterization of the benchmark fixture (6 dual, 6 single
models) when present, plus seeded synthetic tables on the default
dual-input and glitch grids.
"""

import itertools
import json
import math
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator, RegularGridInterpolator

from repro.charlib.dual import DualInputGrid
from repro.errors import ModelError
from repro.inertial import GlitchGrid, TableGlitchModel
from repro.models import TableDualInputModel, TableSingleInputModel
from repro.models.grid import ClampedTrilinear, Pchip
from repro.waveform import FALL, RISE

FIXTURE_CACHE = Path(__file__).resolve().parents[2] / "perfbench" / "fixture" / "cache"


def _fixture(prefix):
    return sorted(FIXTURE_CACHE.glob(f"{prefix}-*.json"))


def _synthetic_axes(rng):
    a1 = np.cumsum([rng.uniform(0.3, 0.6)] + [rng.uniform(0.3, 1.4) for _ in range(4)])
    grid = DualInputGrid()
    return (a1, np.asarray(grid.a2), np.asarray(grid.a3))


def dual_models():
    models = []
    for path in _fixture("dual"):
        payload = json.loads(path.read_text())
        models.append((path.stem, TableDualInputModel(
            "a", "b", FALL,
            tuple(np.asarray(payload[k]) for k in ("a1", "a2", "a3")),
            np.asarray(payload["delay_table"]),
            np.asarray(payload["ttime_table"]))))
    rng = random.Random(13)
    for seed in range(2):
        axes = _synthetic_axes(rng)
        shape = tuple(len(a) for a in axes)
        gen = np.random.default_rng(seed)
        models.append((f"synthetic-{seed}", TableDualInputModel(
            "b", "c", RISE, axes, gen.uniform(0.3, 1.6, shape),
            gen.uniform(0.5, 2.5, shape))))
    return models


def single_models():
    models = []
    for path in _fixture("single"):
        payload = json.loads(path.read_text())
        models.append((path.stem, TableSingleInputModel(
            "a", FALL, np.asarray(payload["u"]),
            np.asarray(payload["delay_norm"]),
            np.asarray(payload["ttime_norm"]),
            k_drive=payload["k_drive"], vdd=5.0, char_load=100e-15,
            c_par=payload["c_par"])))
    gen = np.random.default_rng(3)
    u = np.geomspace(0.02, 40.0, 24)
    # Shuffled samples with a wiggle: both PCHIP derivative branches.
    order = gen.permutation(u.size)
    models.append(("synthetic", TableSingleInputModel(
        "b", RISE, u[order], (0.3 + u ** 0.7 + 0.2 * np.sin(3 * u))[order],
        (0.5 + 1.8 * u ** 0.8)[order], k_drive=2e-4, vdd=5.0,
        char_load=100e-15, c_par=4e-14)))
    return models


def glitch_models():
    grid = GlitchGrid()
    axes = (np.array([0.35, 1.1, 2.9]), np.asarray(grid.a2), np.asarray(grid.a3))
    gen = np.random.default_rng(11)
    shape = tuple(len(a) for a in axes)
    return [(f"glitch-{direction}", TableGlitchModel(
        "b", "a", axes, gen.uniform(0.0, 1.0, shape), vdd=5.0,
        output_direction=direction)) for direction in (FALL, RISE)]


DUALS = dual_models()
SINGLES = single_models()
GLITCHES = glitch_models()


# ----------------------------------------------------------------------
# References: the scipy-backed code the evaluators replaced
# ----------------------------------------------------------------------
def scipy_trilinear(axes, table):
    interp = RegularGridInterpolator(axes, table, method="linear",
                                     bounds_error=False, fill_value=None)
    lows = np.array([a[0] for a in axes])
    highs = np.array([a[-1] for a in axes])

    def evaluate(x0, x1, x2):
        point = np.minimum(np.maximum(np.array([x0, x1, x2]), lows), highs)
        return float(interp(point[None, :])[0])

    return evaluate


def scipy_pchip(x, y):
    interp = PchipInterpolator(x, y, extrapolate=True)
    return lambda value: float(interp(value))


def grid_points(axes, rng, n_interior=150, n_face=20):
    """Every node, random interior points, and points outside the hull
    beyond each face (and a few beyond edges and corners)."""
    lists = [np.asarray(a).tolist() for a in axes]
    points = list(itertools.product(*lists))

    def inside(axis):
        return rng.uniform(axis[0], axis[-1])

    def outside(axis, side):
        span = axis[-1] - axis[0]
        excess = rng.uniform(1e-9, 0.3) * span
        return axis[0] - excess if side == 0 else axis[-1] + excess

    points += [tuple(inside(a) for a in lists) for _ in range(n_interior)]
    for k, axis in enumerate(lists):
        for side in (0, 1):
            for _ in range(n_face):
                point = [inside(a) for a in lists]
                point[k] = outside(axis, side)
                points.append(tuple(point))
            point = [a[0] for a in lists]
            point[k] = axis[-1] if side else axis[0]
            points.append(tuple(point))
    for _ in range(n_face):
        points.append(tuple(outside(a, rng.randrange(2)) for a in lists))
    return points


def line_points(x, rng, n=200):
    span = x[-1] - x[0]
    xs = list(x)
    xs += [rng.uniform(x[0], x[-1]) for _ in range(n)]
    xs += [x[0] - rng.uniform(1e-9, 0.3) * span for _ in range(n // 4)]
    xs += [x[-1] + rng.uniform(1e-9, 0.3) * span for _ in range(n // 4)]
    return xs


# ----------------------------------------------------------------------
# Evaluator level
# ----------------------------------------------------------------------
class TestClampedTrilinear:
    @pytest.mark.parametrize("name,model", DUALS, ids=[n for n, _ in DUALS])
    def test_dual_tables_match_scipy(self, name, model):
        rng = random.Random(name)
        for table in (model._delay_table, model._ttime_table):
            ours = ClampedTrilinear(model.axes, table)
            ref = scipy_trilinear(model.axes, table)
            for point in grid_points(model.axes, rng):
                assert ours(*point) == ref(*point), point

    def test_nan_cell_propagates_like_scipy(self):
        axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        table = np.ones((2, 2, 2))
        table[1, 1, 1] = np.nan
        assert math.isnan(ClampedTrilinear(axes, table)(0.0, 0.0, 0.0))
        assert math.isnan(scipy_trilinear(axes, table)(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        _, model = DUALS[0]
        ours = ClampedTrilinear(model.axes, model._delay_table)
        for k in range(3):
            point = [1.0, 1.0, 0.0]
            point[k] = bad
            with pytest.raises(ModelError, match="finite"):
                ours(*point)

    def test_construction_validated(self):
        axes = (np.array([0.0, 1.0]),) * 3
        with pytest.raises(ModelError):
            ClampedTrilinear(axes, np.ones((2, 2, 3)))
        with pytest.raises(ModelError):
            ClampedTrilinear((np.array([1.0, 0.0]),) + axes[1:], np.ones((2, 2, 2)))
        with pytest.raises(ModelError):
            ClampedTrilinear((np.array([0.0]),) + axes[1:], np.ones((1, 2, 2)))
        with pytest.raises(ModelError):
            ClampedTrilinear(axes[:2], np.ones((2, 2)))


class TestPchip:
    @pytest.mark.parametrize("name,model", SINGLES, ids=[n for n, _ in SINGLES])
    def test_single_curves_match_scipy(self, name, model):
        rng = random.Random(name)
        x = np.log(model._u)
        for y in (model._d, model._t):
            ours = Pchip(x, y)
            reference = PchipInterpolator(x, y, extrapolate=True)
            assert np.array_equal(np.asarray(ours.coeffs).T, reference.c)
            for value in line_points(x.tolist(), rng):
                assert ours(value) == float(reference(value)), value

    @pytest.mark.parametrize("y,branch", [
        ([0.0, 1.0, 1.0, 2.0, 3.0], "flat segment"),
        ([0.0, 2.0, 1.0, 3.0, 0.0], "slope sign change"),
        ([0.0, 1.0, 6.0, 7.0, 7.5], "end derivative sign flips: zeroed"),
        ([0.0, 1.0, -4.0, -3.0, -2.5], "end derivative overshoots: 3*m0"),
        ([1.0, 3.0], "two samples: linear"),
        ([2.0, -1.0], "two samples, falling"),
    ])
    def test_derivative_branches_match_scipy(self, y, branch):
        x = 0.5 + 1.25 * np.arange(len(y), dtype=float)
        y = np.asarray(y)
        ours = Pchip(x, y)
        reference = PchipInterpolator(x, y, extrapolate=True)
        assert np.array_equal(np.asarray(ours.coeffs).T, reference.c), branch
        for value in line_points(x.tolist(), random.Random(branch), n=80):
            assert ours(value) == float(reference(value)), (branch, value)

    def test_branches_are_exercised(self):
        # The end-derivative limiter's two outcomes, on equal spacing
        # (m0 = 1): a sign flip zeroes d, an overshoot clips it to 3*m0.
        x = np.arange(5.0)
        assert Pchip(x, np.array([0.0, 1.0, 6.0, 7.0, 7.5])).coeffs[0][2] == 0.0
        assert Pchip(x, np.array([0.0, 1.0, -4.0, -3.0, -2.5])).coeffs[0][2] == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ModelError, match="finite"):
            Pchip(np.arange(4.0), np.arange(4.0) ** 2)(bad)

    def test_construction_validated(self):
        with pytest.raises(ModelError):
            Pchip(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ModelError):
            Pchip(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ModelError):
            Pchip(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


# ----------------------------------------------------------------------
# Model level: the answers the library serves
# ----------------------------------------------------------------------
class TestModelsMatchScipy:
    @pytest.mark.parametrize("name,model", DUALS, ids=[n for n, _ in DUALS])
    def test_dual_ratios(self, name, model):
        rng = random.Random(name)
        delay_ref = scipy_trilinear(model.axes, model._delay_table)
        ttime_ref = scipy_trilinear(model.axes, model._ttime_table)
        for point in grid_points(model.axes, rng, n_interior=60, n_face=8):
            delta1 = rng.uniform(30e-12, 900e-12)
            args = tuple(c * delta1 for c in point)
            coords = tuple(a / delta1 for a in args)
            assert model.delay_ratio(*args, delta1=delta1) == delay_ref(*coords)
            assert model.ttime_ratio(*args, tau1=2 * delta1, delta1=delta1) \
                == ttime_ref(*coords)

    @pytest.mark.parametrize("name,model", SINGLES, ids=[n for n, _ in SINGLES])
    def test_single_delay_and_ttime(self, name, model):
        rng = random.Random(name)
        x = np.log(model._u)
        delay_ref, ttime_ref = scipy_pchip(x, model._d), scipy_pchip(x, model._t)
        scale = model.k_drive * model.vdd
        for log_u in line_points(x.tolist(), rng, n=120):
            load = rng.choice([None, rng.uniform(20e-15, 400e-15)])
            cl = model.char_load if load is None else load
            tau = (cl + model.c_par) / (scale * math.exp(log_u))
            at = np.log(model.drive_factor(tau, load))
            assert model.delay(tau, load) == delay_ref(at) * tau
            assert model.ttime(tau, load) == ttime_ref(at) * tau

    @pytest.mark.parametrize("name,model", GLITCHES, ids=[n for n, _ in GLITCHES])
    def test_glitch_extremum(self, name, model):
        rng = random.Random(name)
        ref = scipy_trilinear(model.axes, model.table)
        for point in grid_points(model.axes, rng, n_interior=60, n_face=8):
            delta1 = rng.uniform(30e-12, 900e-12)
            args = tuple(c * delta1 for c in point)
            coords = tuple(a / delta1 for a in args)
            assert model.extremum(*args, delta1=delta1) == ref(*coords) * model.vdd


# ----------------------------------------------------------------------
# Plain data: pickling and imports
# ----------------------------------------------------------------------
class TestPlainData:
    def test_dual_model_pickle_roundtrip_is_bit_identical(self):
        _, model = DUALS[0]
        clone = pickle.loads(pickle.dumps(model))
        rng = random.Random(1)
        for point in grid_points(model.axes, rng, n_interior=40, n_face=4):
            args = tuple(c * 2e-10 for c in point)
            assert clone.delay_ratio(*args, delta1=2e-10) \
                == model.delay_ratio(*args, delta1=2e-10)
            assert clone.ttime_ratio(*args, tau1=3e-10, delta1=2e-10) \
                == model.ttime_ratio(*args, tau1=3e-10, delta1=2e-10)

    def test_single_model_pickle_roundtrip_is_bit_identical(self):
        _, model = SINGLES[0]
        clone = pickle.loads(pickle.dumps(model))
        for tau in np.geomspace(10e-12, 5e-9, 60):
            assert clone.delay(tau) == model.delay(tau)
            assert clone.ttime(tau, 50e-15) == model.ttime(tau, 50e-15)

    def test_glitch_model_pickle_roundtrip_is_bit_identical(self):
        _, model = GLITCHES[0]
        clone = pickle.loads(pickle.dumps(model))
        for sep in np.linspace(-3e-10, 6e-10, 40):
            assert clone.extremum(1e-10, 2e-10, sep, delta1=1.5e-10) \
                == model.extremum(1e-10, 2e-10, sep, delta1=1.5e-10)

    def test_package_does_not_import_scipy_interpolate(self):
        code = ("import sys, repro, repro.cli, repro.serve; "
                "print('scipy.interpolate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
