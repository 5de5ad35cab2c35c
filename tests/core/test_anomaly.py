"""Tests for the EWMA anomaly detector."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dsa.anomaly import EwmaDetector, SeriesAnomalyTracker


class TestEwmaDetector:
    def test_constant_series_never_anomalous(self):
        detector = EwmaDetector()
        verdicts = [detector.observe(100.0) for _ in range(100)]
        assert not any(v.anomalous for v in verdicts)

    def test_warmup_suppresses_early_flags(self):
        detector = EwmaDetector(warmup_observations=10)
        detector.observe(100.0)
        verdict = detector.observe(1e9)  # wild, but still warming up
        assert not verdict.anomalous
        assert not verdict.warmed_up

    def test_spike_flagged_after_warmup(self):
        rng = np.random.default_rng(1)
        detector = EwmaDetector(z_threshold=4.0)
        for _ in range(50):
            detector.observe(float(rng.normal(100.0, 5.0)))
        verdict = detector.observe(200.0)
        assert verdict.anomalous
        assert verdict.z_score > 4.0

    def test_anomalies_do_not_poison_the_baseline(self):
        rng = np.random.default_rng(2)
        detector = EwmaDetector()
        for _ in range(50):
            detector.observe(float(rng.normal(100.0, 5.0)))
        for _ in range(5):
            assert detector.observe(500.0).anomalous  # keeps firing

    def test_baseline_adapts_to_gradual_drift(self):
        detector = EwmaDetector(alpha=0.3, z_threshold=6.0)
        value = 100.0
        flags = []
        for _ in range(200):
            value *= 1.01  # 1% per window drift
            flags.append(detector.observe(value).anomalous)
        assert not any(flags)  # slow drift is the new normal

    def test_scale_invariance(self):
        """The same relative excursion flags at any magnitude."""
        for scale in (1e-5, 1.0, 1e6):
            rng = np.random.default_rng(3)
            detector = EwmaDetector()
            for _ in range(50):
                detector.observe(float(rng.normal(1.0, 0.05)) * scale)
            assert detector.observe(3.0 * scale).anomalous

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0)
        with pytest.raises(ValueError):
            EwmaDetector(z_threshold=0)
        with pytest.raises(ValueError):
            EwmaDetector(warmup_observations=1)

    @given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=100))
    def test_never_crashes_and_counts(self, values):
        detector = EwmaDetector()
        for value in values:
            verdict = detector.observe(value)
            assert verdict.std >= 0
        assert detector._count == len(values)


class TestSeriesAnomalyTracker:
    def _rows(self, n, p99=900.0, drop=2e-5, key="search"):
        return [
            {
                "t": float(i * 3600),
                "scope": "service",
                "key": key,
                "drop_rate": drop,
                "p99_us": p99,
            }
            for i in range(n)
        ]

    def test_quiet_series_no_anomalies(self):
        tracker = SeriesAnomalyTracker()
        assert tracker.observe_sla_rows(self._rows(48)) == []

    def test_incident_window_flagged(self):
        tracker = SeriesAnomalyTracker()
        tracker.observe_sla_rows(self._rows(48))
        incident = {
            "t": 48 * 3600.0,
            "scope": "service",
            "key": "search",
            "drop_rate": 2e-3,  # the Figure 7 jump
            "p99_us": 900.0,
        }
        found = tracker.observe_sla_rows([incident])
        assert len(found) == 1
        assert found[0]["metric"] == "drop_rate"
        assert found[0]["z_score"] > 4

    def test_series_are_independent(self):
        """One service's baseline must not judge another's."""
        tracker = SeriesAnomalyTracker()
        tracker.observe_sla_rows(self._rows(48, p99=300.0, key="fast-svc"))
        tracker.observe_sla_rows(self._rows(48, p99=900.0, key="slow-svc"))
        # 900us is normal for slow-svc even though it is 3x fast-svc.
        more = self._rows(1, p99=900.0, key="slow-svc")
        more[0]["t"] = 1e6
        assert tracker.observe_sla_rows(more) == []

    def test_none_p99_skipped(self):
        tracker = SeriesAnomalyTracker()
        rows = self._rows(5)
        for row in rows:
            row["p99_us"] = None
        assert tracker.observe_sla_rows(rows) == []

    def test_anomaly_history_accumulates(self):
        tracker = SeriesAnomalyTracker()
        tracker.observe_sla_rows(self._rows(48))
        spike = self._rows(1, drop=5e-3)
        spike[0]["t"] = 1e6
        tracker.observe_sla_rows(spike)
        assert len(tracker.anomalies) == 1
