"""Tests for the online detectors on the streaming merge tree."""


import pytest

from repro.core.dsa.alerts import MAX_INTERDC_DROP_RATE, AlertEngine
from repro.netsim import tcp
from repro.stream.aggregator import StreamDelta
from repro.stream.detectors import (
    EwmaDriftDetector,
    StreamBlackholeFeed,
    StreamInterDcSlaDetector,
    StreamSlaDetector,
)
from repro.stream.ingest import StreamIngestService
from repro.stream.sketch import ClassStats

WINDOW_S = 10.0
SIG_1_US = tcp.syn_rtt_signature(1) * 1e6


def _stats(n_ok=0, rtt_us=250.0, n_failed=0, n_one_drop=0):
    stats = ClassStats()
    for _ in range(n_ok):
        stats.observe(True, rtt_us)
    for _ in range(n_one_drop):
        stats.observe(True, SIG_1_US)
    for _ in range(n_failed):
        stats.observe(False, 0.0)
    return stats


def _delta(window_id, stats, server="srv0", dc=0, podset=0, pod=0, cls="tor-level"):
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


def _setup(**detector_kwargs):
    engine = AlertEngine()
    ingest = StreamIngestService(window_s=WINDOW_S)
    detector = StreamSlaDetector(engine, **detector_kwargs)
    return engine, ingest, detector


class TestStreamSlaDetector:
    def test_healthy_windows_fire_nothing(self):
        engine, ingest, detector = _setup()
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30)))
        assert detector.evaluate(30.0, ingest) == []
        assert engine.active_episodes == {}

    def test_failure_rate_breach_fires_once_then_recovers(self):
        engine, ingest, detector = _setup(eval_windows=3, min_drop_events=3)
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30, n_failed=5)))
        (alert,) = detector.evaluate(30.0, ingest)
        assert alert.metric == "failure_rate"
        assert alert.event == "breach"
        assert alert.plane == "stream"
        assert alert.key == "dc0"
        # Still burning: no duplicate event.
        assert detector.evaluate(30.0, ingest) == []
        # Three healthy windows push the failures out of the eval horizon.
        for w in range(3, 6):
            ingest.ingest(_delta(w, _stats(n_ok=30)))
        (recovery,) = detector.evaluate(60.0, ingest)
        assert recovery.event == "recovery"
        assert recovery.metric == "failure_rate"
        assert engine.active_episodes == {}

    def test_evidence_floor_holds_the_episode(self):
        """Over threshold but under min_drop_events: no breach, no flap."""
        engine, ingest, detector = _setup(eval_windows=1, min_drop_events=3)
        # failure_rate 2/32 >> 1e-3 but only two corroborating events.
        ingest.ingest(_delta(0, _stats(n_ok=30, n_failed=2)))
        assert detector.evaluate(10.0, ingest) == []
        assert engine.active_episodes == {}
        # The hold works in both directions: an *open* episode is not
        # recovered by an over-threshold-but-thin window either.
        ingest.ingest(_delta(1, _stats(n_ok=30, n_failed=5)))
        (breach,) = detector.evaluate(20.0, ingest)
        assert breach.event == "breach"
        ingest.ingest(_delta(2, _stats(n_ok=30, n_failed=2)))
        assert detector.evaluate(30.0, ingest) == []
        assert engine.active_episodes != {}

    def test_syn_drop_rate_breach_matches_batch_definition(self):
        engine, ingest, detector = _setup(min_drop_events=3)
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30, n_one_drop=2)))
        (alert,) = detector.evaluate(30.0, ingest)
        assert alert.metric == "drop_rate"
        # §4.2: signatures over successful probes.
        assert alert.value == pytest.approx(6 / 96)

    def test_p99_needs_enough_samples(self):
        engine, ingest, detector = _setup(min_p99_samples=200)
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=40, rtt_us=8000.0)))
        # 120 successes < 200: p99 of a small sample is just its max — hold.
        assert detector.evaluate(30.0, ingest) == []
        for w in range(3, 6):
            ingest.ingest(_delta(w, _stats(n_ok=80, rtt_us=8000.0)))
        alerts = detector.evaluate(60.0, ingest)
        assert [a.metric for a in alerts] == ["p99_us"]
        assert alerts[0].value > 5000.0

    def test_min_probe_count_skips_thin_dcs(self):
        engine, ingest, detector = _setup()
        ingest.ingest(_delta(0, _stats(n_failed=10)))  # < min_probe_count 20
        assert detector.evaluate(10.0, ingest) == []

    def test_validation(self):
        engine = AlertEngine()
        with pytest.raises(ValueError):
            StreamSlaDetector(engine, eval_windows=0)


class TestStreamInterDcSlaDetector:
    def _setup(self, **kwargs):
        engine = AlertEngine()
        ingest = StreamIngestService(window_s=WINDOW_S)
        detector = StreamInterDcSlaDetector(engine, **kwargs)
        return engine, ingest, detector

    def test_healthy_wan_windows_fire_nothing(self):
        """~54 ms is a healthy us-west<->us-east RTT.  It would breach the
        5 ms local P99 limit; the WAN series must judge it against the
        400 ms inter-DC one."""
        engine, ingest, detector = self._setup()
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30, rtt_us=54_000.0), cls="inter-dc"))
        assert detector.evaluate(30.0, ingest) == []
        assert engine.active_episodes == {}

    def test_failure_breach_uses_dc_pair_scope_then_recovers(self):
        engine, ingest, detector = self._setup(eval_windows=3, min_drop_events=3)
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30, n_failed=5), cls="inter-dc"))
        (alert,) = detector.evaluate(30.0, ingest)
        assert alert.metric == "failure_rate"
        assert alert.scope == "dc-pair"
        assert alert.key == "dc0->*"
        assert alert.plane == "stream"
        assert alert.threshold == MAX_INTERDC_DROP_RATE
        # Three healthy windows push the failures out of the horizon.
        for w in range(3, 6):
            ingest.ingest(_delta(w, _stats(n_ok=30), cls="inter-dc"))
        (recovery,) = detector.evaluate(60.0, ingest)
        assert recovery.event == "recovery"
        assert engine.active_episodes == {}

    def test_p99_judged_against_wan_limit(self):
        engine, ingest, detector = self._setup(min_p99_samples=50)
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30, rtt_us=450_000.0), cls="inter-dc"))
        alerts = detector.evaluate(30.0, ingest)
        assert [a.metric for a in alerts] == ["p99_us"]
        assert alerts[0].threshold == 400_000.0

    def test_intra_detector_ignores_inter_dc_class(self):
        """A WAN incident must not open a local-scope episode."""
        engine = AlertEngine()
        ingest = StreamIngestService(window_s=WINDOW_S)
        intra = StreamSlaDetector(engine, eval_windows=3, min_drop_events=3)
        drift = EwmaDriftDetector(engine, warmup_windows=2, consecutive=2)
        for w in range(6):
            ingest.ingest(
                _delta(w, _stats(n_ok=30, n_failed=8, rtt_us=450_000.0), cls="inter-dc")
            )
            assert intra.evaluate((w + 1) * WINDOW_S, ingest) == []
            assert drift.evaluate((w + 1) * WINDOW_S, ingest) == []
        assert engine.active_episodes == {}

    def test_inter_dc_detector_ignores_local_classes(self):
        engine, ingest, detector = self._setup()
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_ok=30, n_failed=8), cls="tor-level"))
        assert detector.evaluate(30.0, ingest) == []

    def test_min_probe_count_skips_thin_wan_series(self):
        engine, ingest, detector = self._setup()
        ingest.ingest(_delta(0, _stats(n_failed=10), cls="inter-dc"))
        assert detector.evaluate(10.0, ingest) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamInterDcSlaDetector(AlertEngine(), eval_windows=0)


class TestEwmaDriftDetector:
    def _feed(self, ingest, detector, window_id, p50_us, n=30):
        ingest.ingest(_delta(window_id, _stats(n_ok=n, rtt_us=p50_us)))
        return detector.evaluate((window_id + 1) * WINDOW_S, ingest)

    def _detector(self, engine):
        return EwmaDriftDetector(
            engine,
            alpha=0.3,
            k_sigma=3.0,
            warmup_windows=3,
            min_rel_drift=0.5,
            consecutive=2,
        )

    def test_sustained_drift_fires_and_recovers(self):
        engine = AlertEngine()
        ingest = StreamIngestService(window_s=WINDOW_S)
        detector = self._detector(engine)
        window = 0
        for _ in range(4):  # warm-up on a stable baseline
            assert self._feed(ingest, detector, window, 250.0) == []
            window += 1
        # One drifted window is not enough (consecutive=2)...
        assert self._feed(ingest, detector, window, 600.0) == []
        window += 1
        # ...the second fires the episode.
        (alert,) = self._feed(ingest, detector, window, 600.0)
        assert alert.metric == "p50_drift_us"
        assert alert.event == "breach"
        window += 1
        # Back to normal: the streak resets and the episode closes.
        (recovery,) = self._feed(ingest, detector, window, 250.0)
        assert recovery.event == "recovery"

    def test_baseline_frozen_while_drifted(self):
        """A long incident must not teach the baseline that 600 is normal."""
        engine = AlertEngine()
        ingest = StreamIngestService(window_s=WINDOW_S)
        detector = self._detector(engine)
        window = 0
        for _ in range(4):
            self._feed(ingest, detector, window, 250.0)
            window += 1
        baseline = detector._states[0].mean
        for _ in range(10):  # a long drifted stretch
            self._feed(ingest, detector, window, 600.0)
            window += 1
        assert detector._states[0].mean == baseline

    def test_no_reevaluation_without_a_new_window(self):
        engine = AlertEngine()
        ingest = StreamIngestService(window_s=WINDOW_S)
        detector = self._detector(engine)
        self._feed(ingest, detector, 0, 250.0)
        # Same newest window again (e.g. the ingest VIP went dark).
        assert detector.evaluate(100.0, ingest) == []

    def test_validation(self):
        engine = AlertEngine()
        with pytest.raises(ValueError):
            EwmaDriftDetector(engine, alpha=0.0)
        with pytest.raises(ValueError):
            EwmaDriftDetector(engine, warmup_windows=1)


class TestStreamBlackholeFeed:
    def _ingest_dark_pod(self, ingest, windows=(0, 1, 2)):
        for w in windows:
            ingest.ingest(_delta(w, _stats(n_ok=20), pod=0, server="a"))
            ingest.ingest(_delta(w, _stats(n_failed=4), pod=1, server="b"))

    def test_dark_pod_becomes_candidate_once(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        feed = StreamBlackholeFeed(min_failed=5, eval_windows=3)
        self._ingest_dark_pod(ingest)
        (candidate,) = feed.evaluate(30.0, ingest)
        assert candidate.tor_key == "dc0/pod1"
        assert candidate.failed == 12
        # The same darkness spell never re-announces.
        assert feed.evaluate(30.0, ingest) == []

    def test_too_few_failures_is_not_a_candidate(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        feed = StreamBlackholeFeed(min_failed=20, eval_windows=3)
        self._ingest_dark_pod(ingest)
        assert feed.evaluate(30.0, ingest) == []

    def test_fully_dark_dc_is_not_a_blackhole(self):
        """All-failure everywhere is a dead DC (or dead agents), not §5."""
        ingest = StreamIngestService(window_s=WINDOW_S)
        feed = StreamBlackholeFeed(min_failed=5, eval_windows=3)
        for w in range(3):
            ingest.ingest(_delta(w, _stats(n_failed=4), pod=0, server="a"))
            ingest.ingest(_delta(w, _stats(n_failed=4), pod=1, server="b"))
        assert feed.evaluate(30.0, ingest) == []

    def test_new_darkness_spell_reannounces(self):
        ingest = StreamIngestService(window_s=WINDOW_S)
        feed = StreamBlackholeFeed(min_failed=5, eval_windows=3)
        self._ingest_dark_pod(ingest, windows=(0, 1, 2))
        assert len(feed.evaluate(30.0, ingest)) == 1
        # Recovery: three healthy windows clear the spell...
        for w in (3, 4, 5):
            ingest.ingest(_delta(w, _stats(n_ok=20), pod=0, server="a"))
            ingest.ingest(_delta(w, _stats(n_ok=20), pod=1, server="b"))
        assert feed.evaluate(60.0, ingest) == []
        # ...and a fresh blackout is a fresh candidate.
        self._ingest_dark_pod(ingest, windows=(6, 7, 8))
        assert len(feed.evaluate(90.0, ingest)) == 1
        assert len(feed.candidates) == 2
