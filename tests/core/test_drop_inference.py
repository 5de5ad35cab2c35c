"""Tests for the §4.2 drop-rate heuristic."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.dsa.drop_inference import (
    classify_probe,
    drop_rate_aggregate,
    estimate_drop_rate,
    estimate_drop_rate_from_arrays,
)
from repro.cosmos.scope import RowSet
from repro.netsim.fabric import Fabric, execute_class_groups
from repro.netsim.routing import PathScope
from repro.netsim.topology import TopologySpec
from repro.stream.sketch import ClassStats
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


class TestOneRuleForEveryForm:
    """A success's drops are read off its RTT alone, however long it took:
    every form agrees at and past each signature, 21 s included."""

    OK_RTT_S = np.array([0.0, 3.0, 9.0, 21.0, 22.0])
    RTT_S, SUCCESS = np.append(OK_RTT_S, 21.0), np.array([True] * 5 + [False])

    def test_every_form_reads_four_drops_in_five_successes(self):
        rows = [
            {"k": 0, "success": bool(ok), "rtt_us": rtt * 1e6}
            for ok, rtt in zip(self.SUCCESS, self.RTT_S)
        ]
        drops = [classify_probe(row["success"], row["rtt_us"] / 1e6) for row in rows]
        assert drops == [0, 1, 2, 2, 2, None]
        (aggregate,) = RowSet(rows).group_by("k").aggregate(rate=drop_rate_aggregate()).output()
        stats = [ClassStats() for _ in range(4)]
        for row in rows:
            stats[0].observe(row["success"], row["rtt_us"])
        stats[1].observe_many(self.SUCCESS, self.RTT_S * 1e6)
        stats[2].observe_many(np.tile(self.SUCCESS, 20), np.tile(self.RTT_S, 20) * 1e6)
        stats[3].observe_aggregate(1, self.OK_RTT_S * 1e6)
        from_arrays = estimate_drop_rate_from_arrays(self.RTT_S, self.SUCCESS)
        from_rows = estimate_drop_rate(rows)
        assert (from_arrays.one_drop, from_arrays.two_drop) == (from_rows.one_drop, from_rows.two_drop)
        rates = [from_rows.rate, aggregate["rate"], from_arrays.rate]
        assert rates + [each.syn_drop_rate() for each in stats] == [4 / 5] * 7

    def test_class_draw_counts_the_same_signatures(self):
        group = SimpleNamespace(purpose="intra-dc", qos="", scope=PathScope.INTRA_POD, n=6,
                                p_attempt=0.0, dc_index=0, n_hops=1, wan_rtt=0.0, dst_dc=-1)
        # Five clean successes and one failure, the successes at the RTTs under test.
        draw = SimpleNamespace(multinomial=lambda n, p: np.array([5, 0, 0, 1]))
        model = SimpleNamespace(sample=lambda rng, n_hops, t, n: self.OK_RTT_S.copy())
        (outcome,) = execute_class_groups([group], {0: model}, 0.0, draw)
        assert (outcome.one_drop, outcome.two_drops, outcome.failed) == (1, 3, 1)
