"""Tests for the agent's PA latency counters: the seconds-in, microseconds-out
face of the stream plane's ``ClassStats`` window accumulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.counters import LatencyCounters


def _counts(counters):
    return (counters.success, counters.failed, counters.one_drop, counters.two_drops)


class TestIngestion:
    def test_counts_successes_and_failures(self):
        counters = LatencyCounters()
        counters.add(True, 250e-6)
        counters.add(True, 300e-6)
        counters.add(False, 21.0)
        assert counters.probes == 3
        assert counters.success == 2
        assert counters.probes_failed == 1

    def test_drop_signatures_classified(self):
        counters = LatencyCounters()
        counters.add(True, 250e-6)  # clean
        counters.add(True, 3.0003)  # one drop
        counters.add(True, 9.0004)  # two drops
        assert counters.one_drop == 1
        assert counters.two_drops == 1

    def test_drop_rate_heuristic(self):
        counters = LatencyCounters()
        for _ in range(97):
            counters.add(True, 250e-6)
        counters.add(True, 3.1)
        counters.add(True, 9.2)
        counters.add(False, 21.0)  # a failed connect is one dropped connection
        assert counters.drop_rate() == pytest.approx(3 / 100)

    def test_drop_rate_empty_window(self):
        assert LatencyCounters().drop_rate() == 0.0

    def test_fully_failed_window_is_not_a_perfect_drop_rate(self):
        """Regression: a fully black-holed server used to report 0.0 (the
        denominator was successful probes only)."""
        counters = LatencyCounters()
        for _ in range(10):
            counters.add(False, 21.0)
        assert counters.drop_rate() == 1.0

    def test_mixed_failures_and_successes(self):
        counters = LatencyCounters()
        counters.add(True, 250e-6)
        counters.add(False, 21.0)
        counters.add(False, 21.0)
        counters.add(True, 3.2)  # one-drop signature
        assert counters.drop_rate() == pytest.approx(3 / 4)

    def test_nine_second_probe_counts_one_drop(self):
        """'we only count one packet drop instead of two for every
        connection with 9 second RTT'."""
        counters = LatencyCounters()
        counters.add(True, 9.1)
        counters.add(True, 200e-6)
        assert counters.drop_rate() == pytest.approx(1 / 2)

    # One window's worth of outcomes: clean RTTs over three decades, both
    # retransmission signatures, connect failures.
    OUTCOMES = (
        [(True, 40e-6 * 1.07**i) for i in range(120)]
        + [(True, 3.0 + 250e-6 * i) for i in range(1, 6)]
        + [(True, 9.0 + 300e-6 * i) for i in range(1, 4)]
        + [(False, 21.0)] * 7
    )

    @given(
        order=st.permutations(OUTCOMES),
        cuts=st.tuples(
            st.integers(0, len(OUTCOMES)), st.integers(0, len(OUTCOMES))
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_ingestion_path_builds_the_same_window(self, order, cuts):
        """One multiset of outcomes, in any order and split any way across
        ``add`` / ``add_many`` / ``add_class_round``, is one window: equal
        counts and an equal bucket map."""
        reference = LatencyCounters()
        for success, rtt_s in self.OUTCOMES:
            reference.add(success, rtt_s)

        low, high = sorted(cuts)
        counters = LatencyCounters()
        for success, rtt_s in order[:low]:
            counters.add(success, rtt_s)
        middle = order[low:high]
        counters.add_many(
            np.array([success for success, _rtt in middle], dtype=bool),
            np.array([rtt_s for _success, rtt_s in middle]) * 1e6,
        )
        rest = order[high:]
        counters.add_class_round(
            sum(1 for success, _rtt in rest if not success),
            np.array([rtt_s for success, rtt_s in rest if success]),
        )

        assert _counts(counters) == _counts(reference)
        assert counters.sketch.buckets == reference.sketch.buckets
        assert counters.probes == len(self.OUTCOMES)

    @pytest.mark.parametrize("n", [0, 1, 30, 63, 64, 65, 1_000])
    def test_a_round_is_its_probes_one_by_one(self, n):
        """``add_many`` over a round's ``success`` / ``rtt_us`` columns is
        ``add`` per probe, on either side of the small-round fold: failures,
        both signatures and RTTs under the sketch's floor included."""
        rng = np.random.default_rng(n)
        rtts_s = rng.lognormal(np.log(250e-6), 0.6, n)
        kind = rng.random(n)
        rtts_s[kind < 0.1] += 3.0
        rtts_s[kind < 0.04] += 6.0
        rtts_s[kind > 0.97] = 1e-12
        success = rng.random(n) > 0.1
        rtts_s[~success] = 21.0
        one_by_one, folded = LatencyCounters(), LatencyCounters()
        for ok, rtt_s in zip(success.tolist(), rtts_s.tolist()):
            one_by_one.add(ok, rtt_s)
        folded.add_many(success, rtts_s * 1e6)
        assert folded.to_payload() == one_by_one.to_payload()  # min and max too


class TestPercentiles:
    def test_percentiles_in_microseconds(self):
        counters = LatencyCounters()
        for rtt_us in range(100, 200):
            counters.add(True, rtt_us * 1e-6)
        assert counters.quantile_us(50) == pytest.approx(149.5, rel=0.02)
        assert counters.quantile_us(99) == pytest.approx(198, rel=0.02)

    def test_percentile_none_when_empty(self):
        assert LatencyCounters().quantile_us(99) is None

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            LatencyCounters().quantile_us(101)

    def test_percentiles_within_sketch_envelope(self):
        """The PA percentiles sit inside the sketch's documented envelope
        of the exact nearest-rank window percentiles."""
        rng = np.random.default_rng(7)
        rtts_s = rng.lognormal(np.log(250e-6), 0.5, 50_000)
        signature = rng.random(rtts_s.size)
        rtts_s[signature < 0.01] += 3.0
        rtts_s[signature < 0.003] += 6.0  # 9 s in all
        counters = LatencyCounters()
        counters.add_many(np.ones(5_000, dtype=bool), rtts_s[:5_000] * 1e6)
        counters.add_class_round(0, rtts_s[5_000:])
        a = counters.sketch.relative_accuracy
        for q in (50, 99, 99.9):
            lower = float(np.percentile(rtts_s, q, method="lower")) * 1e6
            upper = float(np.percentile(rtts_s, q, method="higher")) * 1e6
            assert lower * (1 - a) <= counters.quantile_us(q) <= upper * (1 + a)

    @pytest.mark.parametrize("max_buckets", [2048, 64])
    def test_memory_is_bounded(self, max_buckets):
        """10^6 probes spread over 1 µs .. 20 s never hold more than
        ``max_buckets`` sketch buckets, whatever the cap."""
        rng = np.random.default_rng(1)
        counters = LatencyCounters(max_buckets=max_buckets)
        for _ in range(100):
            counters.add_class_round(3, 10 ** rng.uniform(-6, 1.3, 10_000))
            assert counters.sketch.memory_buckets <= max_buckets
        assert counters.probes == 100 * 10_003

    def test_merging_two_windows_is_exact(self):
        """Two windows merged are the one window fed both — counts, every
        bucket, and so every percentile."""
        rng = np.random.default_rng(3)
        first = rng.lognormal(np.log(250e-6), 0.5, 6_000)
        second = np.concatenate(
            [rng.lognormal(np.log(2e-3), 1.0, 9_000), 3.0 + first[:40], 9.0 + first[:9]]
        )
        a, b, both = LatencyCounters(), LatencyCounters(), LatencyCounters()
        a.add_class_round(5, first)
        b.add_class_round(11, second)
        both.add_class_round(5, first)
        both.add_class_round(11, second)
        a.merge(b)
        assert _counts(a) == _counts(both)
        assert a.sketch.buckets == both.sketch.buckets
        assert a.snapshot() == both.snapshot()


class TestWindows:
    def test_reset_window_clears_everything(self):
        counters = LatencyCounters()
        counters.add(True, 3.2)
        counters.add(False, 21.0)
        counters.reset_window()
        assert counters.probes == 0
        assert _counts(counters) == (0, 0, 0, 0)
        assert counters.sketch.memory_buckets == 0
        assert counters.drop_rate() == 0.0
        assert counters.quantile_us(50) is None

    def test_snapshot_shape(self):
        counters = LatencyCounters()
        counters.add(True, 500e-6)
        snapshot = counters.snapshot()
        assert set(snapshot) == {
            "probes_total",
            "probes_failed",
            "packet_drop_rate",
            "latency_p50_us",
            "latency_p99_us",
        }
        assert snapshot["latency_p50_us"] == pytest.approx(500.0)

    def test_snapshot_omits_latency_when_no_data(self):
        """Regression: an empty window used to report a 0.0 µs sentinel,
        indistinguishable from a genuinely instant network."""
        snapshot = LatencyCounters().snapshot()
        assert "latency_p50_us" not in snapshot
        assert "latency_p99_us" not in snapshot
        assert snapshot["packet_drop_rate"] == 0.0

    def test_snapshot_omits_latency_when_all_probes_failed(self):
        counters = LatencyCounters()
        for _ in range(5):
            counters.add(False, 21.0)
        snapshot = counters.snapshot()
        assert "latency_p50_us" not in snapshot
        assert "latency_p99_us" not in snapshot
        assert snapshot["packet_drop_rate"] == 1.0

    @given(st.lists(st.floats(min_value=1e-5, max_value=1.0), max_size=200))
    def test_drop_rate_bounded(self, rtts):
        """Property: the heuristic never exceeds 1 for sub-3s RTTs mixed
        with signature RTTs."""
        counters = LatencyCounters()
        for rtt in rtts:
            counters.add(True, rtt)
        assert 0.0 <= counters.drop_rate() <= 1.0
