"""A full operational day, replayed: quiet → black-hole → power blip → quiet.

The showcase integration test: 24 simulated hours on a small deployment
with a scripted incident timeline, run as a chaos campaign so the
invariant catalogue watches the whole day, verifying the DSA record
reflects the day as it actually happened.
"""

import pytest

from repro.chaos import ChaosCampaign, ScenarioAction
from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.reports import ReportBuilder
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.simclock import SECONDS_PER_DAY
from repro.netsim.topology import TopologySpec

SMALL = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4)

BLACKHOLE_START = 6 * 3600.0
PODSET_BLIP_START = 15 * 3600.0
PODSET_BLIP_END = 16 * 3600.0


@pytest.fixture(scope="module")
def day():
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(SMALL,),
            seed=99,
            dsa=DsaConfig(
                ingestion_delay_s=0.0,
                near_real_time_period_s=600.0,
                hourly_period_s=3600.0,
                daily_period_s=SECONDS_PER_DAY / 4,  # detector runs 4x/day
            ),
            agent=AgentConfig(upload_period_s=300.0),
        )
    )
    campaign = ChaosCampaign(system, name="day-in-the-life")
    # 06:00 — a ToR develops a black-hole; auto-repair should clear it.
    campaign.add(ScenarioAction("tor-blackhole", pod=1), BLACKHOLE_START)
    # 15:00-16:00 — a podset loses power for an hour.
    campaign.add(
        ScenarioAction("podset-down", podset=1), PODSET_BLIP_START, PODSET_BLIP_END
    )
    report = campaign.run(SECONDS_PER_DAY)
    assert report.clean, report.summary()
    return system, campaign


def _pattern_history(system, limit: int) -> list[dict]:
    return system.database.query(
        "patterns_10min",
        where=lambda row: row["dc"] == 0,
        order_by="t",
        desc=True,
        limit=limit,
    )


class TestTheDay:
    def test_the_day_completed_without_pipeline_failures(self, day):
        system, _campaign = day
        assert system.clock.now == SECONDS_PER_DAY
        assert [run for run in system.job_manager.runs if run.error] == []

    def test_probing_ran_all_day(self, day):
        system, _campaign = day
        assert system.total_probes_sent() > 50_000

    def test_blackhole_was_detected_and_repaired(self, day):
        system, schedule = day
        tor = system.topology.dc(0).tors[1]
        assert tor.reload_count >= 1
        assert system.fabric.faults.faults_on(tor.device_id) == []
        # And the repair is in the DM history with a black-hole reason.
        repairs = [
            r
            for r in system.env.device_manager.history
            if r.device_id == tor.device_id and r.action == "reload_switch"
        ]
        assert repairs
        assert "black-hole" in repairs[0].reason

    def test_power_blip_visible_in_pattern_history(self, day):
        system, _campaign = day
        history = _pattern_history(system, limit=200)
        patterns_during_blip = {
            row["pattern"]
            for row in history
            if PODSET_BLIP_START + 600 < row["t"] <= PODSET_BLIP_END + 600
        }
        assert "podset-down" in patterns_during_blip

    def test_network_healthy_again_by_midnight(self, day):
        system, _campaign = day
        latest = _pattern_history(system, limit=1)[0]
        assert latest["pattern"] == "normal"
        assert system.is_network_issue() is False

    def test_daily_report_tells_the_story(self, day):
        system, _campaign = day
        report = ReportBuilder(system.database).daily_sla_report(
            t=SECONDS_PER_DAY
        )
        assert "dc0" in report.text
        # The black-hole detector's work shows up in the detector section.
        assert "black-holed ToR(s)" in report.text

    def test_ground_truth_bookkeeping(self, day):
        system, campaign = day
        blackhole, blip = campaign.scheduled
        # The timeline never healed the black-hole: auto-repair did.
        assert blackhole.started and not blackhole.ended
        assert blackhole.action.ground_truth_devices(system) == {
            system.topology.dc(0).tors[1].device_id
        }
        # The power came back, and the whole podset was to blame meanwhile.
        assert blip.started and blip.ended
        assert blip.action.ground_truth_devices(system) == {
            server.device_id for server in system.topology.dc(0).servers_in_podset(1)
        }
