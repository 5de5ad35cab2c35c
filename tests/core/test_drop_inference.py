"""Tests for the §4.2 drop-rate heuristic."""

import numpy as np
import pytest

from repro.core.dsa.drop_inference import (
    classify_probe,
    estimate_drop_rate,
    estimate_drop_rate_from_arrays,
)
from repro.netsim.fabric import Fabric
from repro.netsim.topology import TopologySpec
from tests.conftest import probe_rounds


class TestClassification:
    def test_clean_probe(self):
        assert classify_probe(True, 250e-6) == 0

    def test_one_drop_window(self):
        assert classify_probe(True, 3.0002) == 1
        assert classify_probe(True, 8.9) == 1

    def test_two_drop_window(self):
        assert classify_probe(True, 9.0003) == 2
        assert classify_probe(True, 20.0) == 2

    def test_failed_probe_excluded(self):
        """'for failed probes, we cannot differentiate between packet drops
        and receiving server failure'."""
        assert classify_probe(False, 21.0) is None

    def test_boundary_just_below_3s(self):
        assert classify_probe(True, 2.999) == 0


class TestEstimateFromRows:
    def test_paper_formula(self):
        rows = (
            [{"success": True, "rtt_us": 250.0}] * 96
            + [{"success": True, "rtt_us": 3.0e6}] * 2
            + [{"success": True, "rtt_us": 9.1e6}] * 2
            + [{"success": False, "rtt_us": 21e6}] * 10
        )
        estimate = estimate_drop_rate(rows)
        assert estimate.successful == 100
        assert estimate.one_drop == 2
        assert estimate.two_drop == 2
        # (3s probes + 9s probes) / successful — 9s counts ONE drop.
        assert estimate.rate == pytest.approx(4 / 100)

    def test_empty_input(self):
        assert estimate_drop_rate([]).rate == 0.0

    def test_all_failed_is_zero_not_nan(self):
        rows = [{"success": False, "rtt_us": 21e6}] * 5
        assert estimate_drop_rate(rows).rate == 0.0

    def test_repr_is_informative(self):
        estimate = estimate_drop_rate([{"success": True, "rtt_us": 3.2e6}])
        assert "one_drop=1" in repr(estimate)


class TestEstimateFromArrays:
    def test_matches_row_version(self):
        rtts = np.array([250e-6, 3.1, 9.2, 0.0005, 21.0])
        success = np.array([True, True, True, True, False])
        rows = [
            {"success": bool(s), "rtt_us": r * 1e6} for r, s in zip(rtts, success)
        ]
        a = estimate_drop_rate_from_arrays(rtts, success)
        b = estimate_drop_rate(rows)
        assert a.rate == b.rate
        assert (a.successful, a.one_drop, a.two_drop) == (
            b.successful,
            b.one_drop,
            b.two_drop,
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_drop_rate_from_arrays(np.zeros(3), np.zeros(4, dtype=bool))


class TestAccuracyAgainstGroundTruth:
    def test_heuristic_recovers_injected_drop_rate(self):
        """'We have verified the accuracy of the heuristic' — the estimate
        must track the fabric's analytic attempt-drop probability."""
        fabric = Fabric.single_dc(TopologySpec(), seed=17)
        dc = fabric.topology.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        truth = fabric.expected_attempt_drop(a, b)
        success, rtt_s, _drops = probe_rounds(fabric, a, b, 3_000_000)
        estimate = estimate_drop_rate_from_arrays(rtt_s, success)
        assert estimate.rate == pytest.approx(truth, rel=0.2)
