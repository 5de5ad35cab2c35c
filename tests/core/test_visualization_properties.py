"""Property tests: pattern classification under randomized noise.

Figure 8's patterns must classify correctly even when individual cells
blink from small-sample variance — these tests generate the structural
patterns programmatically, sprinkle random noise cells on top, and require
the classifier to keep naming the structure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.visualization import LatencyHeatmap, LatencyPattern

N_PODS = 8
PODS_PER_PODSET = 4


def _base(fill=500.0):
    heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
    heatmap.p99_us[:, :] = fill
    return heatmap


def _sprinkle(heatmap, rng, n_cells, value=9000.0):
    """Randomly repaint up to n_cells off-structure cells."""
    for _ in range(n_cells):
        src = int(rng.integers(0, N_PODS))
        dst = int(rng.integers(0, N_PODS))
        heatmap.p99_us[src, dst] = value


class TestNoiseRobustness:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_normal_with_scattered_red(self, seed, n_noise):
        """Up to ~10% random red cells must not break NORMAL."""
        heatmap = _base()
        _sprinkle(heatmap, np.random.default_rng(seed), n_noise)
        assert heatmap.classify().pattern == LatencyPattern.NORMAL

    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_podset_down_with_noise(self, seed, n_noise):
        heatmap = _base()
        for pod in range(PODS_PER_PODSET, N_PODS):  # podset 1 dark
            heatmap.p99_us[pod, :] = np.nan
            heatmap.p99_us[:, pod] = np.nan
        rng = np.random.default_rng(seed)
        # Noise only in the healthy quadrant (dark cells have no data).
        for _ in range(n_noise):
            src = int(rng.integers(0, PODS_PER_PODSET))
            dst = int(rng.integers(0, PODS_PER_PODSET))
            heatmap.p99_us[src, dst] = 9000.0
        result = heatmap.classify()
        assert result.pattern == LatencyPattern.PODSET_DOWN
        assert result.affected_podsets == [1]

    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_spine_failure_with_green_blinkers(self, seed, n_noise):
        """A few cross-podset cells momentarily green must not hide the
        spine pattern."""
        heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
        for src in range(N_PODS):
            for dst in range(N_PODS):
                same = src // PODS_PER_PODSET == dst // PODS_PER_PODSET
                heatmap.p99_us[src, dst] = 500.0 if same else 9000.0
        rng = np.random.default_rng(seed)
        for _ in range(n_noise):
            src = int(rng.integers(0, PODS_PER_PODSET))
            dst = int(rng.integers(PODS_PER_PODSET, N_PODS))
            heatmap.p99_us[src, dst] = 500.0  # a green blinker cross-podset
        assert heatmap.classify().pattern == LatencyPattern.SPINE_FAILURE

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_classifier_is_total(self, seed):
        """Any random matrix classifies to *something* without raising."""
        rng = np.random.default_rng(seed)
        heatmap = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
        values = rng.choice(
            [300.0, 4500.0, 9000.0, np.nan], size=(N_PODS, N_PODS)
        )
        heatmap.p99_us[:, :] = values
        result = heatmap.classify()
        assert isinstance(result.pattern, LatencyPattern)
