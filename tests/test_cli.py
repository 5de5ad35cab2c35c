"""Tests for the command-line interface."""

import asyncio

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.hours == 1.0
        assert args.scenario is None

    def test_probe_arguments(self):
        args = build_parser().parse_args(
            ["probe", "10.0.0.1", "81", "-n", "3", "--payload", "500"]
        )
        assert args.host == "10.0.0.1"
        assert args.port == 81
        assert args.count == 3
        assert args.payload == 500


class TestScenariosCommand:
    def test_lists_all_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "tor-blackhole",
            "silent-spine",
            "podset-down",
            "spine-congestion",
        ):
            assert name in out


class TestSimulateCommand:
    def test_healthy_simulation(self, capsys):
        code = main(
            ["simulate", "--hours", "0.15", "--podsets", "2", "--pods", "2",
             "--servers", "4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "probes sent:" in out
        assert "pattern:" in out
        assert "incident digest" in out

    def test_scenario_injection(self, capsys):
        code = main(
            [
                "simulate",
                "--hours", "0.2",
                "--podsets", "2",
                "--pods", "2",
                "--servers", "4",
                "--scenario", "podset-down",
                "--scenario-at", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected scenario: podset-down" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["simulate", "--scenario", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_unknown_profile_is_an_error(self, capsys):
        assert main(["simulate", "--profile", "bogus"]) == 2
        assert "unknown profile" in capsys.readouterr().out



class TestStreamCommand:
    def test_fault_run_summarises_conservation(self, capsys):
        assert main(["stream", "--minutes", "2", "--scenario-at", "60"]) == 0
        out = capsys.readouterr().out
        assert "injected: tor-blackhole" in out
        assert "conservation: folded=" in out


class TestBrokerCommand:
    def test_tenant_run_summarises_admission(self, capsys):
        assert main(["broker", "--minutes", "2", "--tenants", "4"]) == 0
        out = capsys.readouterr().out
        assert "broker: " in out and " submitted; " in out
        assert "credit ledgers conserved: True" in out

class TestProbeCommand:
    def test_probe_against_local_responder(self, capsys):
        from repro.liveprobe.server import ProbeServer

        async def get_port():
            server = ProbeServer()
            await server.start()
            port = server.port
            await server.stop()
            return port

        dead_port = asyncio.run(get_port())  # freed: probes will fail fast
        code = main(
            ["probe", "127.0.0.1", str(dead_port), "-n", "2", "--timeout", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "0/2 succeeded" in out


class TestChaosCommand:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.campaigns == []
        assert args.seed == 0
        assert args.mode == "phase"
        assert args.list is False

    def test_list_names_every_campaign(self, capsys):
        from repro.chaos import CAMPAIGNS

        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in CAMPAIGNS:
            assert name in out

    def test_unknown_campaign_is_an_error(self, capsys):
        assert main(["chaos", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().out

    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["chaos", "controller-flap", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "1/1 campaigns clean" in out

    def test_violations_exit_nonzero(self, capsys, monkeypatch):
        from repro.chaos import CampaignReport, Violation
        import repro.chaos

        def dirty_run(name, seed=0, check_mode="phase"):
            return CampaignReport(
                name=name,
                violations=[Violation(t=1.0, invariant="payload-cap", detail="x")],
            )

        monkeypatch.setattr(repro.chaos, "run_campaign", dirty_run)
        assert main(["chaos", "controller-flap"]) == 1
        assert "0/1 campaigns clean" in capsys.readouterr().out
