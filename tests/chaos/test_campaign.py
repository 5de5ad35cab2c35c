"""ChaosCampaign mechanics: scheduling, phases, reports, validation."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosCampaign, CosmosBlackout, PinglistKillSwitch
from repro.chaos.actions import ChaosAction
from repro.chaos.campaign import ScheduledAction

from tests.chaos.conftest import make_system


class Marker(ChaosAction):
    """Records when it was started/ended, injects nothing."""

    def __init__(self, name: str = "marker") -> None:
        self.name = name
        self.started_at: float | None = None
        self.ended_at: float | None = None

    def start(self, system, t: float) -> None:
        self.started_at = t

    def end(self, system, t: float) -> None:
        self.ended_at = t


def test_actions_fire_at_their_scheduled_times():
    system = make_system()
    campaign = ChaosCampaign(system, name="timing")
    marker = Marker()
    campaign.add(marker, start_t=100.0, end_t=250.0)
    report = campaign.run(300.0)
    assert marker.started_at == pytest.approx(100.0)
    assert marker.ended_at == pytest.approx(250.0)
    assert report.clean, report.summary()


def test_phase_boundaries_cover_actions_and_cadence():
    system = make_system()
    campaign = ChaosCampaign(system, name="phases")
    campaign.add(Marker(), start_t=100.0, end_t=250.0)
    report = campaign.run(300.0, phase_s=90.0)
    assert [phase.t for phase in report.phases] == [90.0, 100.0, 180.0, 250.0, 270.0, 300.0]
    labels = [phase.label for phase in report.phases]
    assert "+ marker" in labels
    assert "- marker" in labels
    assert labels[-1] == "campaign end"


def test_open_ended_action_is_never_ended():
    system = make_system()
    campaign = ChaosCampaign(system, name="open")
    marker = Marker()
    campaign.add(marker, start_t=50.0)  # no end_t
    campaign.run(120.0)
    assert marker.started_at == pytest.approx(50.0)
    assert marker.ended_at is None


def test_action_past_the_horizon_is_rejected():
    system = make_system()
    campaign = ChaosCampaign(system, name="late")
    campaign.add(Marker(), start_t=500.0)
    with pytest.raises(ValueError, match="after the campaign ends"):
        campaign.run(300.0)


def test_invalid_windows_are_rejected():
    with pytest.raises(ValueError, match="start must be"):
        ScheduledAction(action=Marker(), start_t=-1.0, end_t=None)
    with pytest.raises(ValueError, match="end must be after start"):
        ScheduledAction(action=Marker(), start_t=10.0, end_t=10.0)
    with pytest.raises(ValueError):
        ChaosCampaign(make_system(), check_mode="sometimes")
    with pytest.raises(ValueError, match="duration"):
        ChaosCampaign(make_system()).run(0.0)


def test_checker_is_detached_even_when_an_action_raises():
    system = make_system()

    class Exploding(ChaosAction):
        name = "exploding"

        def start(self, _system, t: float) -> None:
            raise RuntimeError("boom")

    campaign = ChaosCampaign(system, name="explode")
    campaign.add(Exploding(), start_t=30.0)
    with pytest.raises(RuntimeError, match="boom"):
        campaign.run(60.0)
    assert system.fabric.round_observers == []


def test_report_counts_probes_and_violations():
    system = make_system()
    campaign = ChaosCampaign(system, name="counts")
    report = campaign.run(200.0)
    assert report.clean
    assert report.probes_observed > 0
    assert report.probes_observed == campaign.checker.probes_observed
    assert report.finished_t >= 200.0
    assert "all invariants held" in report.summary()


def test_campaign_starts_an_unstarted_system():
    system = make_system()
    assert not system._started
    ChaosCampaign(system, name="boot").run(60.0)
    assert system._started


def test_two_actions_can_overlap():
    system = make_system()
    campaign = ChaosCampaign(system, name="overlap")
    campaign.add(PinglistKillSwitch(), start_t=50.0, end_t=170.0)
    campaign.add(CosmosBlackout(), start_t=80.0, end_t=140.0)
    report = campaign.run(240.0)
    assert report.clean, report.summary()
    assert len([p for p in report.phases if p.label.startswith(("+", "-"))]) == 4


def test_violations_are_reported_with_details():
    system = make_system()
    campaign = ChaosCampaign(system, name="dirty")
    report = campaign.run(60.0)
    # Forge a violation to exercise the reporting path.
    from repro.chaos import Violation

    report.violations.append(Violation(t=1.0, invariant="payload-cap", detail="x"))
    assert not report.clean
    assert "payload-cap" in report.summary()
