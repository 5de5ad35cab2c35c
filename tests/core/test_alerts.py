"""Tests for threshold alerting (§4.3)."""

import pytest

from repro.core.dsa import alerts
from repro.core.dsa.alerts import AlertEngine
from repro.core.dsa.sla import NetworkSla, SlaScope


def _sla(
    drop_rate=1e-5,
    p99_us=800.0,
    probe_count=1000,
    key="dc0",
    scope=SlaScope.DATACENTER,
):
    return NetworkSla(
        scope=scope,
        key=key,
        window_start=0.0,
        window_end=600.0,
        probe_count=probe_count,
        drop_rate=drop_rate,
        p50_us=250.0,
        p99_us=p99_us,
    )


class TestThresholds:
    def test_paper_defaults(self):
        assert alerts.MAX_DROP_RATE == 1e-3
        assert alerts.MAX_P99_US == 5000.0
        assert alerts.MAX_INTERDC_DROP_RATE == 2e-3
        assert alerts.MAX_INTERDC_P99_US == 400_000.0

    def test_scope_aware_limits(self):
        assert alerts.drop_limit_for("dc-pair") == 2e-3
        assert alerts.p99_limit_for("dc-pair") == 400_000.0
        assert alerts.drop_limit_for("datacenter") == 1e-3
        assert alerts.p99_limit_for("pod") == 5000.0


class TestAlerting:
    def test_healthy_sla_fires_nothing(self):
        engine = AlertEngine()
        assert engine.evaluate([_sla()]) == []
        assert engine.history == []

    def test_drop_rate_violation(self):
        engine = AlertEngine()
        alerts = engine.evaluate([_sla(drop_rate=2e-3)])
        assert len(alerts) == 1
        assert alerts[0].metric == "drop_rate"
        assert alerts[0].value == 2e-3
        assert alerts[0].threshold == 1e-3

    def test_p99_violation(self):
        engine = AlertEngine()
        alerts = engine.evaluate([_sla(p99_us=7000.0)])
        assert alerts[0].metric == "p99_us"

    def test_both_metrics_fire_together(self):
        engine = AlertEngine()
        alerts = engine.evaluate([_sla(drop_rate=5e-3, p99_us=9000.0)])
        assert {alert.metric for alert in alerts} == {"drop_rate", "p99_us"}

    def test_small_windows_are_skipped(self):
        engine = AlertEngine()
        assert engine.evaluate([_sla(drop_rate=1.0, probe_count=alerts.MIN_PROBE_COUNT - 1)]) == []

    def test_none_p99_tolerated(self):
        sla = NetworkSla(
            scope=SlaScope.SERVER,
            key="s",
            window_start=0.0,
            window_end=600.0,
            probe_count=50,
            drop_rate=0.0,
            p50_us=None,
            p99_us=None,
        )
        assert AlertEngine().evaluate([sla]) == []

    def test_history_accumulates_and_filters(self):
        engine = AlertEngine()
        engine.evaluate([_sla(drop_rate=2e-3, key="dc0")])
        engine.evaluate([_sla(drop_rate=3e-3, key="dc1")])
        assert len(engine.history) == 2
        assert [alert.key for alert in engine.history] == ["dc0", "dc1"]

    def test_is_network_issue(self):
        """§4.3: Pingmesh answers the 'is it the network?' question."""
        engine = AlertEngine()
        assert engine.is_network_issue([_sla()]) is False
        assert engine.is_network_issue([_sla(p99_us=6000.0)]) is True

    def test_as_row(self):
        engine = AlertEngine()
        alert = engine.evaluate([_sla(drop_rate=2e-3)])[0]
        row = alert.as_row()
        assert row["metric"] == "drop_rate"
        assert row["t"] == 600.0
        assert row["event"] == "breach"
        assert row["plane"] == "batch"


class TestInterDcThresholds:
    """dc-pair SLAs are judged against the relaxed WAN envelope, never the
    5 ms local one."""

    def _pair_sla(self, **kw):
        kw.setdefault("scope", SlaScope.DC_PAIR)
        kw.setdefault("key", "dc0->dc1")
        return _sla(**kw)

    def test_healthy_wan_p99_fires_nothing(self):
        # ~205 ms is the worst healthy pair RTT in the region table — far
        # over the 5 ms local limit, comfortably under the 400 ms WAN one.
        engine = AlertEngine()
        assert engine.evaluate([self._pair_sla(p99_us=205_000.0)]) == []

    def test_wan_p99_violation_uses_interdc_limit(self):
        engine = AlertEngine()
        alerts = engine.evaluate([self._pair_sla(p99_us=450_000.0)])
        assert len(alerts) == 1
        assert alerts[0].metric == "p99_us"
        assert alerts[0].threshold == 400_000.0

    def test_wan_drop_rate_uses_interdc_limit(self):
        engine = AlertEngine()
        # 1.5e-3 breaches the local 1e-3 limit but not the WAN 2e-3 one.
        assert engine.evaluate([self._pair_sla(drop_rate=1.5e-3)]) == []
        alerts = engine.evaluate([self._pair_sla(drop_rate=3e-3)])
        assert alerts[0].metric == "drop_rate"
        assert alerts[0].threshold == 2e-3

    def test_intra_scope_still_uses_local_limits(self):
        engine = AlertEngine()
        alerts = engine.evaluate([_sla(p99_us=7000.0)])
        assert alerts[0].threshold == 5000.0

    def test_is_network_issue_respects_scope(self):
        engine = AlertEngine()
        healthy_wan = [self._pair_sla(p99_us=100_000.0)]
        assert engine.is_network_issue(healthy_wan) is False
        assert engine.is_network_issue([self._pair_sla(p99_us=500_000.0)]) is True


class TestEpisodes:
    def test_persistent_violation_fires_once(self):
        engine = AlertEngine()
        assert len(engine.evaluate([_sla(drop_rate=2e-3)])) == 1
        # The same violation, re-observed every window: no duplicate alert.
        assert engine.evaluate([_sla(drop_rate=3e-3)]) == []
        assert engine.evaluate([_sla(drop_rate=2e-3)]) == []
        assert len(engine.history) == 1
        assert len(engine.breaches()) == 1

    def test_recovery_pairs_with_its_breach(self):
        engine = AlertEngine()
        (breach,) = engine.evaluate([_sla(drop_rate=2e-3)])
        (recovery,) = engine.evaluate([_sla(drop_rate=1e-5)])
        assert breach.event == "breach"
        assert recovery.event == "recovery"
        assert (recovery.scope, recovery.key, recovery.metric) == (
            breach.scope,
            breach.key,
            breach.metric,
        )
        assert engine.active_episodes == {}
        # A fresh violation after recovery is a new episode.
        assert len(engine.evaluate([_sla(drop_rate=2e-3)])) == 1
        assert len(engine.breaches()) == 2

    def test_active_episodes_tracks_open_violations(self):
        engine = AlertEngine()
        engine.evaluate([_sla(drop_rate=2e-3, key="dc0")])
        engine.evaluate([_sla(p99_us=9000.0, key="dc1")])
        assert set(engine.active_episodes) == {
            ("datacenter", "dc0", "drop_rate"),
            ("datacenter", "dc1", "p99_us"),
        }

    def test_healthy_series_never_opens_an_episode(self):
        engine = AlertEngine()
        assert engine.update_episode(
            0.0, "datacenter", "dc0", "drop_rate", 0.0, 1e-3, violated=False
        ) is None
        assert engine.active_episodes == {}
        assert engine.history == []

    def test_update_episode_api(self):
        engine = AlertEngine()
        breach = engine.update_episode(
            5.0, "datacenter", "dc0", "failure_rate", 0.5, 1e-3,
            violated=True, plane="stream",
        )
        assert breach is not None and breach.plane == "stream"
        # Re-reporting the violated state is a no-op.
        assert engine.update_episode(
            6.0, "datacenter", "dc0", "failure_rate", 0.4, 1e-3,
            violated=True, plane="stream",
        ) is None
        recovery = engine.update_episode(
            7.0, "datacenter", "dc0", "failure_rate", 0.0, 1e-3,
            violated=False, plane="stream",
        )
        assert recovery is not None and recovery.event == "recovery"

    def test_episodes_are_shared_across_planes(self):
        """Whichever plane sees the violation first owns the breach; the
        other plane never duplicates it, and either may close it."""
        engine = AlertEngine()
        first = engine.update_episode(
            5.0, "datacenter", "dc0", "drop_rate", 2e-3, 1e-3,
            violated=True, plane="stream",
        )
        assert first.plane == "stream"
        # The batch plane sees the same violation minutes later: no event.
        assert engine.evaluate([_sla(drop_rate=2e-3)]) == []
        # Batch observes recovery first and closes the shared episode.
        (recovery,) = engine.evaluate([_sla(drop_rate=1e-5)])
        assert recovery.event == "recovery"
        assert recovery.plane == "batch"
        assert engine.active_episodes == {}

    def test_is_network_issue_is_pure(self):
        """§4.3's question must not be silenced by episode deduplication."""
        engine = AlertEngine()
        bad = [_sla(drop_rate=2e-3)]
        engine.evaluate(bad)  # the episode is now open (and deduplicated)
        assert engine.evaluate(bad) == []
        assert engine.is_network_issue(bad) is True  # still burning
        history = list(engine.history)
        engine.is_network_issue(bad)
        assert engine.history == history  # the check mutates nothing
