"""Tests for the Figure 8 heatmap + pattern classification."""

import numpy as np
import pytest

from repro.core.dsa.visualization import (
    CellColor,
    LatencyHeatmap,
    LatencyPattern,
)

N_PODS = 8
PODS_PER_PODSET = 4  # two podsets


def _heatmap(fill_us=500.0):
    heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
    heatmap.p99_us[:, :] = fill_us
    return heatmap


def _podset_pods(podset):
    lo = podset * PODS_PER_PODSET
    return range(lo, lo + PODS_PER_PODSET)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHeatmap(0, 1)
        with pytest.raises(ValueError):
            LatencyHeatmap(7, 4)  # pods don't divide into podsets

    def test_from_records(self):
        rows = [
            {"src_dc": 0, "dst_dc": 0, "src_pod": 0, "dst_pod": 1, "rtt_us": r}
            for r in (100.0, 200.0, 300.0)
        ]
        heatmap = LatencyHeatmap.from_records(rows, N_PODS, PODS_PER_PODSET)
        assert not np.isnan(heatmap.p99_us[0, 1])
        assert np.isnan(heatmap.p99_us[1, 0])  # no reverse data

    def test_from_records_filters_other_dcs(self):
        rows = [
            {"src_dc": 1, "dst_dc": 1, "src_pod": 0, "dst_pod": 1, "rtt_us": 100.0}
        ]
        heatmap = LatencyHeatmap.from_records(rows, N_PODS, PODS_PER_PODSET, dc=0)
        assert np.isnan(heatmap.p99_us).all()


class TestColors:
    def test_thresholds(self):
        heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
        heatmap.p99_us[0, 1] = 3999.0
        heatmap.p99_us[0, 2] = 4500.0
        heatmap.p99_us[0, 3] = 5001.0
        assert heatmap.color(0, 1) == CellColor.GREEN
        assert heatmap.color(0, 2) == CellColor.YELLOW
        assert heatmap.color(0, 3) == CellColor.RED
        assert heatmap.color(1, 0) == CellColor.WHITE  # NaN

    def test_color_matrix_shape(self):
        matrix = _heatmap().color_matrix()
        assert len(matrix) == N_PODS
        assert all(len(row) == N_PODS for row in matrix)

    def test_render_ascii(self):
        art = _heatmap().render_ascii()
        lines = art.split("\n")
        assert len(lines) == N_PODS
        assert set(lines[0]) == {"."}


class TestPatternClassification:
    def test_normal_all_green(self):
        assert _heatmap().classify().pattern == LatencyPattern.NORMAL

    def test_normal_tolerates_scattered_blinkers(self):
        """Isolated red cells from small-sample P99s don't break NORMAL."""
        heatmap = _heatmap()
        heatmap.p99_us[0, 5] = 8000.0
        heatmap.p99_us[6, 2] = 8000.0
        assert heatmap.classify().pattern == LatencyPattern.NORMAL

    def test_podset_down_white_cross(self):
        heatmap = _heatmap()
        for pod in _podset_pods(1):
            heatmap.p99_us[pod, :] = np.nan
            heatmap.p99_us[:, pod] = np.nan
        result = heatmap.classify()
        assert result.pattern == LatencyPattern.PODSET_DOWN
        assert result.affected_podsets == [1]

    def test_podset_failure_red_cross(self):
        heatmap = _heatmap()
        for pod in _podset_pods(0):
            heatmap.p99_us[pod, :] = 9000.0
            heatmap.p99_us[:, pod] = 9000.0
        result = heatmap.classify()
        assert result.pattern == LatencyPattern.PODSET_FAILURE
        assert result.affected_podsets == [0]

    def test_spine_failure_green_diagonal(self):
        heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
        for src in range(N_PODS):
            for dst in range(N_PODS):
                same = src // PODS_PER_PODSET == dst // PODS_PER_PODSET
                heatmap.p99_us[src, dst] = 500.0 if same else 9000.0
        result = heatmap.classify()
        assert result.pattern == LatencyPattern.SPINE_FAILURE
        assert result.affected_podsets == [0, 1]

    def test_all_podsets_red_is_not_podset_failure(self):
        """A fully red matrix must not classify as a single podset's
        failure (every band is red); it falls through to spine/unclassified."""
        heatmap = _heatmap(9000.0)
        result = heatmap.classify()
        assert result.pattern != LatencyPattern.PODSET_FAILURE
        assert result.pattern != LatencyPattern.NORMAL

    def test_empty_matrix_is_unclassified_not_podset_down(self):
        """No per-pair rows at all is no data, not a power loss on every
        podset: the white cross is guarded like the red one."""
        heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
        result = heatmap.classify()
        assert result.pattern == LatencyPattern.UNCLASSIFIED
        assert result.affected_podsets == []
        assert result.detail == "no per-pair data"
