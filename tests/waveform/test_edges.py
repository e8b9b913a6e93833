"""Edge descriptors and direction vocabulary."""

import pytest

from repro.errors import MeasurementError
from repro.waveform import Edge, FALL, RISE, Thresholds, opposite
from repro.waveform.edges import normalize_direction


class TestDirections:
    @pytest.mark.parametrize("alias,expected", [
        ("rise", RISE), ("RISING", RISE), ("r", RISE), ("up", RISE),
        ("fall", FALL), ("Falling", FALL), ("f", FALL), ("down", FALL),
    ])
    def test_aliases(self, alias, expected):
        assert normalize_direction(alias) == expected

    def test_unknown_rejected(self):
        with pytest.raises(MeasurementError):
            normalize_direction("sideways")
        with pytest.raises(MeasurementError):
            normalize_direction(None)  # type: ignore[arg-type]

    def test_opposite(self):
        assert opposite(RISE) == FALL
        assert opposite("falling") == RISE


class TestEdge:
    def test_construction_normalizes(self):
        edge = Edge("rising", "1ns", "500ps")
        assert edge.direction == RISE
        assert edge.t_cross == pytest.approx(1e-9)
        assert edge.tau == pytest.approx(5e-10)
        assert edge.is_rising

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(MeasurementError):
            Edge(RISE, 0.0, 0.0)
        with pytest.raises(MeasurementError):
            Edge(RISE, 0.0, -1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(MeasurementError, match="finite"):
            Edge(FALL, 0.0, bad)
        with pytest.raises(MeasurementError, match="finite"):
            Edge(FALL, bad, 1e-10)
        with pytest.raises(MeasurementError, match="finite"):
            Edge(FALL, 0.0, 1e-10).shifted(bad)

    def test_shifted(self):
        edge = Edge(FALL, 1e-9, 1e-10).shifted(5e-10)
        assert edge.t_cross == pytest.approx(1.5e-9)
        assert edge.tau == pytest.approx(1e-10)

    def test_separation_sign_convention(self):
        early = Edge(FALL, 0.0, 1e-10)
        late = Edge(FALL, 2e-10, 1e-10)
        # s_ij measured from i: positive when j switches later.
        assert early.separation_from(late) == pytest.approx(2e-10)
        assert late.separation_from(early) == pytest.approx(-2e-10)

    def test_describe_mentions_direction(self):
        text = Edge(RISE, 1e-9, 2e-10).describe()
        assert "rise" in text


class TestEdgeToPwl:
    @pytest.fixture
    def thresholds(self):
        return Thresholds(vil=1.3, vih=3.5, vdd=5.0)

    def test_rising_edge_crosses_vil_at_t_cross(self, thresholds):
        edge = Edge(RISE, 2e-9, 400e-12)
        wf = edge.to_pwl(thresholds)
        assert wf.first_crossing(thresholds.vil, RISE) == pytest.approx(2e-9, rel=1e-9)
        assert wf.initial_value() == 0.0
        assert wf.final_value() == pytest.approx(5.0)

    def test_falling_edge_crosses_vih_at_t_cross(self, thresholds):
        edge = Edge(FALL, 2e-9, 400e-12)
        wf = edge.to_pwl(thresholds)
        assert wf.first_crossing(thresholds.vih, FALL) == pytest.approx(2e-9, rel=1e-9)
        assert wf.initial_value() == pytest.approx(5.0)
        assert wf.final_value() == 0.0

    def test_full_swing_duration_is_tau(self, thresholds):
        edge = Edge(RISE, 1e-9, 600e-12)
        wf = edge.to_pwl(thresholds)
        span = wf.first_crossing(4.999, RISE) - wf.first_crossing(0.001, RISE)
        assert span == pytest.approx(600e-12, rel=1e-2)
