"""Tests for the ingest-side windowed merge tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.alerts import AlertEngine
from repro.stream.aggregator import StreamDelta
from repro.stream.detectors import (
    EwmaDriftDetector,
    StreamBlackholeFeed,
    StreamInterDcSlaDetector,
    StreamSlaDetector,
)
from repro.stream.ingest import _ROLLUP_MEMO_CAP, StreamIngestService
from repro.stream.sketch import ClassStats

WINDOW_S = 10.0


def _stats(n_ok=0, rtt_us=250.0, n_failed=0):
    stats = ClassStats()
    for _ in range(n_ok):
        stats.observe(True, rtt_us)
    for _ in range(n_failed):
        stats.observe(False, 0.0)
    return stats


def _delta(
    window_id,
    stats,
    server="srv0",
    dc=0,
    podset=0,
    pod=0,
    cls="tor-level",
):
    return StreamDelta(
        server_id=server,
        dc=dc,
        podset=podset,
        pod=pod,
        window_start=window_id * WINDOW_S,
        window_end=(window_id + 1) * WINDOW_S,
        classes={cls: stats.to_payload()},
        probes=stats.probes,
    )


class TestMergeTree:
    def test_same_key_deltas_merge(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        assert ingest.ingest(_delta(0, _stats(n_ok=3), server="a"))
        assert ingest.ingest(_delta(0, _stats(n_ok=2, n_failed=1), server="b"))
        ((key, stats),) = ingest.window(0.0).items()
        assert key == (0, 0, 0, "tor-level")
        assert (stats.success, stats.failed) == (5, 1)
        assert ingest.deltas_ingested == 2
        assert ingest.probes_ingested == 6

    def test_distinct_pods_stay_distinct(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        ingest.ingest(_delta(0, _stats(n_ok=1), pod=0))
        ingest.ingest(_delta(0, _stats(n_ok=1), pod=1))
        assert len(ingest.window(0.0)) == 2

    def test_rollups(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        ingest.ingest(_delta(0, _stats(n_ok=4), dc=0, pod=0))
        ingest.ingest(_delta(0, _stats(n_ok=2), dc=0, pod=1, cls="intra-pod"))
        ingest.ingest(_delta(1, _stats(n_ok=1), dc=1))
        starts = ingest.window_starts()
        by_dc = ingest.merged_by_dc(starts)
        assert by_dc[0].success == 6
        assert by_dc[1].success == 1
        by_pod = ingest.merged_by_pod(starts)
        assert by_pod[(0, 0, 0)].success == 4
        assert by_pod[(0, 0, 1)].success == 2
        assert ingest.merged_by_dc(starts, cls="intra-pod")[0].success == 2

    def test_rollup_is_delta_order_invariant(self):
        """Associativity end to end: shuffled arrival, identical rollup."""
        deltas = [
            _delta(w, _stats(n_ok=3 + w, rtt_us=100.0 * (1 + s)), server=f"s{s}")
            for w in range(4)
            for s in range(5)
        ]
        reference = StreamIngestService(window_s=WINDOW_S)
        for delta in deltas:
            reference.ingest(delta)
        shuffled = StreamIngestService(window_s=WINDOW_S)
        order = list(deltas)
        random.Random(11).shuffle(order)
        for delta in order:
            shuffled.ingest(delta)
        starts = reference.window_starts()
        assert shuffled.window_starts() == starts
        ref = reference.merged_by_dc(starts)[0]
        shf = shuffled.merged_by_dc(starts)[0]
        assert ref.sketch.buckets == shf.sketch.buckets
        assert ref.success == shf.success

    def test_latest_windows(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        for w in range(5):
            ingest.ingest(_delta(w, _stats(n_ok=1)))
        assert ingest.latest_windows(2) == [30.0, 40.0]
        assert ingest.latest_windows(0) == []
        assert ingest.latest_windows(99) == ingest.window_starts()


class TestRetention:
    def test_ring_evicts_oldest_and_counts(self):
        ingest = StreamIngestService(window_s=WINDOW_S, retention_windows=3)
        for w in range(5):
            ingest.ingest(_delta(w, _stats(n_ok=2)))
        assert ingest.window_starts() == [20.0, 30.0, 40.0]
        assert ingest.windows_evicted == 2
        assert ingest.probes_evicted == 4
        assert ingest.memory_buckets > 0

    def test_straggler_behind_the_ring_is_rejected(self):
        ingest = StreamIngestService(window_s=WINDOW_S, retention_windows=3)
        for w in range(3, 7):
            ingest.ingest(_delta(w, _stats(n_ok=2)))
        rejected = _delta(0, _stats(n_ok=5))
        assert ingest.ingest(rejected) is False
        assert ingest.deltas_rejected == 1
        assert ingest.probes_rejected == 5
        assert 0.0 not in ingest.window_starts()

    def test_late_delta_within_the_ring_is_accepted(self):
        ingest = StreamIngestService(window_s=WINDOW_S, retention_windows=10)
        ingest.ingest(_delta(5, _stats(n_ok=1)))
        assert ingest.ingest(_delta(3, _stats(n_ok=1))) is True
        assert ingest.window_starts() == [30.0, 50.0]  # re-sorted by start

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamIngestService(retention_windows=1)


# -- the rollup memo -----------------------------------------------------------

_CLASSES = ("intra-pod", "intra-dc", "inter-dc")


def _reference_rollup(ingest, starts, key_of, keep):
    """The rollup the slow way: no memo, every right-hand side copied."""
    merged = {}
    for start in starts:
        for key, stats in ingest.window(start).items():
            if not keep(key):
                continue
            into = merged.get(key_of(key))
            if into is None:
                merged[key_of(key)] = stats.copy()
            else:
                into.merge(stats.copy())
    return merged


def _payloads(rolled):
    return {group: stats.to_payload() for group, stats in rolled.items()}


_ingests = st.tuples(
    st.just("ingest"),
    st.integers(0, 9),  # window id; retention is 4, so old ones straggle
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    st.sampled_from(_CLASSES),
    st.integers(0, 4), st.integers(0, 2),
    st.sampled_from((80.0, 250.0, 3_000_400.0)),
)
_queries = st.tuples(
    st.sampled_from(("by_dc", "by_pod", "by_class")),
    st.integers(1, 5),  # newest k windows
    st.sampled_from((None,) + _CLASSES),
    st.sampled_from((None, "inter-dc")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_ingests, _queries), min_size=1, max_size=40))
def test_memoised_rollups_equal_uncached_recomputation(ops):
    ingest = StreamIngestService(window_s=WINDOW_S, retention_windows=4)
    for op in ops:
        if op[0] == "ingest":
            _op, window_id, dc, podset, pod, cls, n_ok, n_failed, rtt_us = op
            held = dict(ingest._rollups)
            accepted = ingest.ingest(
                _delta(
                    window_id, _stats(n_ok, rtt_us, n_failed),
                    dc=dc, podset=podset, pod=pod, cls=cls,
                )
            )
            # A rejected straggler leaves the tree, and so the memo, alone;
            # an accepted delta (fresh window, merge, eviction) empties it.
            assert ingest._rollups == ({} if accepted else held)
            assert len(ingest.window_starts()) <= 4
            continue
        kind, k, cls, exclude_cls = op
        starts = ingest.latest_windows(k)
        if kind == "by_dc":
            got = ingest.merged_by_dc(starts, cls=cls, exclude_cls=exclude_cls)
            want = _reference_rollup(
                ingest, starts, lambda key: key[0],
                lambda key: (cls is None or key[3] == cls) and key[3] != exclude_cls,
            )
            assert ingest.merged_by_dc(starts, cls=cls, exclude_cls=exclude_cls) is got
        elif kind == "by_pod":
            got = ingest.merged_by_pod(starts)
            want = _reference_rollup(ingest, starts, lambda key: key[:3], lambda key: True)
        else:
            got = ingest.merged_by_class(starts)
            want = _reference_rollup(ingest, starts, lambda key: key[3], lambda key: True)
        assert _payloads(got) == _payloads(want)
        assert len(ingest._rollups) <= _ROLLUP_MEMO_CAP


def test_rollup_memo_stays_bounded_under_tenant_chosen_filters():
    ingest = StreamIngestService(window_s=WINDOW_S)
    for w in range(3):
        ingest.ingest(_delta(w, _stats(n_ok=2), cls="intra-pod"))
    starts = ingest.window_starts()
    for n in range(10 * _ROLLUP_MEMO_CAP):
        assert not ingest.merged_by_dc(starts, cls=f"no-such-class-{n}")
        assert ingest.merged_by_dc(starts[-(1 + n % 3):])[0].success > 0
        assert len(ingest._rollups) <= _ROLLUP_MEMO_CAP


def test_rollups_are_shared_and_their_readers_only_read():
    """The read-only contract, frozen: a rollup is one shared object until
    the tree changes, its mapping cannot be written, and every reader in
    ``src/`` — the four detectors, and the quantile / rate calls the broker
    and the CLI make — leaves every memoised payload as it found it."""
    ingest = StreamIngestService(window_s=WINDOW_S)
    for w in range(4):
        for dc in (0, 1):
            for pod in (0, 1):
                ingest.ingest(
                    _delta(w, _stats(n_ok=40 + w, n_failed=pod * 6), dc=dc, pod=pod, cls="intra-pod")
                )
            ingest.ingest(_delta(w, _stats(n_ok=25, rtt_us=60_000.0), dc=dc, cls="inter-dc"))
    engine = AlertEngine()
    detectors = [
        StreamSlaDetector(engine),
        StreamInterDcSlaDetector(engine),
        EwmaDriftDetector(engine),
        StreamBlackholeFeed(),
    ]
    for detector in detectors:
        detector.evaluate(40.0, ingest)
    starts = ingest.latest_windows(3)
    by_dc = ingest.merged_by_dc(starts, exclude_cls="inter-dc")
    by_class = ingest.merged_by_class(starts)
    with pytest.raises(TypeError):
        by_dc[7] = ClassStats()
    frozen = {memo_key: _payloads(rolled) for memo_key, rolled in ingest._rollups.items()}
    assert len(frozen) >= 5
    for detector in detectors:
        detector.evaluate(50.0, ingest)
    for stats in list(by_dc.values()) + list(by_class.values()):
        assert stats.quantile_us(50.0) <= stats.quantile_us(99.0)
        assert 0.0 <= stats.drop_rate() <= 1.0
    assert ingest.merged_by_dc(starts, exclude_cls="inter-dc") is by_dc
    assert {k: _payloads(r) for k, r in ingest._rollups.items()} == frozen
