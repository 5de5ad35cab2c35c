"""Tests for the per-agent streaming aggregator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.records import StaticColumns
from repro.stream.aggregator import PEER_CLASSES, StreamAggregator


def _aggregator(window_s=10.0):
    return StreamAggregator(
        server_id="dc0/ps0/pod0/srv0", dc=0, podset=0, pod=0, window_s=window_s
    )


class TestWindowing:
    def test_same_window_folds_together(self):
        agg = _aggregator()
        for t in (0.0, 5.0, 9.99):
            agg.observe(t, "tor-level", True, 250.0)
        assert len(agg._open) == 1
        assert agg.flush_closed(9.99) == []  # the window hasn't elapsed
        deltas = agg.flush_closed(10.0)
        assert len(deltas) == 1
        assert (deltas[0].window_start, deltas[0].window_end) == (0.0, 10.0)
        assert deltas[0].probes == 3

    def test_windows_are_epoch_aligned(self):
        agg = _aggregator()
        agg.observe(25.0, "tor-level", True, 250.0)
        (delta,) = agg.flush_closed(30.0)
        assert (delta.window_start, delta.window_end) == (20.0, 30.0)

    def test_flush_emits_closed_windows_in_order(self):
        agg = _aggregator()
        agg.observe(15.0, "tor-level", True, 250.0)
        agg.observe(5.0, "tor-level", True, 250.0)
        deltas = agg.flush_closed(25.0)
        assert [d.window_start for d in deltas] == [0.0, 10.0]
        assert len(agg._open) == 0

    def test_flush_all_includes_open_windows(self):
        agg = _aggregator()
        agg.observe(5.0, "tor-level", True, 250.0)
        assert agg.flush_closed(5.0) == []
        deltas = agg.flush_all()
        assert len(deltas) == 1
        assert agg.probes_pending == 0

    def test_delta_carries_topology_coordinates(self):
        agg = StreamAggregator("srv", dc=1, podset=2, pod=3, window_s=10.0)
        agg.observe(0.0, "inter-dc", True, 900.0)
        (delta,) = agg.flush_all()
        assert (delta.dc, delta.podset, delta.pod) == (1, 2, 3)
        assert delta.server_id == "srv"

    def test_validation(self):
        with pytest.raises(ValueError):
            _aggregator(window_s=0.0)


def _columns(outcomes):
    """``(cls, success, rtt_us)`` triples as ``observe_round`` takes a round:
    the pinglist's static class positions plus two outcome arrays."""
    classes = StaticColumns({"purpose": [cls for cls, _ok, _rtt in outcomes]}).classes
    success = np.array([ok for _cls, ok, _rtt in outcomes], dtype=bool)
    rtt_us = np.array([rtt for _cls, _ok, rtt in outcomes], dtype=np.float64)
    return classes, success, rtt_us


class TestObserveRound:
    def test_round_matches_scalar_observes(self):
        for n in (0, 1, 30, 200):
            for dead in ((), ("vip",), ("vip", "tor-level"), PEER_CLASSES):
                self._round_equals_a_loop_of_observes(n, dead)

    def _round_equals_a_loop_of_observes(self, n, dead):
        """Payload for payload.  RTTs are whole microseconds — with the §4.2
        signatures among them — so every partial sum is exact and ``total``
        cannot depend on the order numpy adds in."""
        rng = np.random.default_rng(3)
        outcomes = []
        for i in range(n):
            cls = PEER_CLASSES[int(rng.integers(len(PEER_CLASSES)))]
            rtt = float(rng.integers(100, 1_000)) + (0.0, 3e6, 9e6)[int(rng.integers(8)) % 3]
            outcomes.append((cls, cls not in dead and bool(rng.random() < 0.9), rtt))
        scalar, batched = _aggregator(), _aggregator()
        for cls, ok, rtt in outcomes:
            scalar.observe(42.0, cls, ok, rtt)
        batched.observe_round(42.0, *_columns(outcomes))
        assert batched.probes_folded == scalar.probes_folded == n
        want, got = scalar.flush_all(), batched.flush_all()
        assert len(got) == len(want) == (1 if n else 0)
        for a, b in zip(want, got):
            assert a.probes == b.probes == n
            assert list(a.classes) == list(b.classes)  # first appearance
            assert a.classes == b.classes
            for cls in dead:
                if cls in b.classes:
                    assert b.classes[cls]["success"] == 0 < b.classes[cls]["failed"]

    def test_single_class_round_takes_every_row(self):
        classes, success, rtt_us = _columns([("tor-level", True, 250.0)] * 5)
        assert classes == {"tor-level": slice(None)}
        agg = _aggregator()
        agg.observe_round(0.0, classes, success, rtt_us)
        (delta,) = agg.flush_all()
        assert delta.classes["tor-level"]["success"] == 5

    def test_empty_round_is_a_noop(self):
        agg = _aggregator()
        agg.observe_round(0.0, *_columns([]))
        assert agg.probes_folded == 0
        assert len(agg._open) == 0


class TestConservation:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_folded_equals_emitted_plus_pending(self, seed, n):
        """The ledger holds after any interleaving of observes/flushes."""
        rng = np.random.default_rng(seed)
        agg = _aggregator()
        emitted = []
        t = 0.0
        for _ in range(n):
            t += float(rng.uniform(0.0, 8.0))
            cls = PEER_CLASSES[int(rng.integers(len(PEER_CLASSES)))]
            agg.observe(t, cls, bool(rng.random() < 0.9), 250.0)
            if rng.random() < 0.2:
                emitted.extend(agg.flush_closed(t))
            assert agg.probes_folded == agg.probes_emitted + agg.probes_pending
        emitted.extend(agg.flush_all())
        assert agg.probes_pending == 0
        assert agg.probes_folded == sum(d.probes for d in emitted) == n
        assert agg.deltas_emitted == len(emitted)

    def test_memory_buckets_track_open_windows(self):
        agg = _aggregator()
        assert agg.memory_buckets == 0
        agg.observe(0.0, "tor-level", True, 250.0)
        assert agg.memory_buckets > 0
        agg.flush_all()
        assert agg.memory_buckets == 0
