"""Tests for fault injection: black-holes, silent drops, outages."""

import pytest

from repro.netsim.addressing import FiveTuple, IPv4Address
from repro.netsim.devices import DeviceKind, Switch
from repro.netsim.faults import (
    BlackholeType1,
    BlackholeType2,
    CongestionFault,
    FaultInjector,
    FcsErrorFault,
    SilentRandomDrop,
    podset_down,
    podset_up,
)
from repro.netsim.topology import MultiDCTopology, TopologySpec


def _switch(device_id="dc0/spine0"):
    return Switch(device_id=device_id, kind=DeviceKind.SPINE, dc_index=0)


def _flow(src_host=1, dst_host=2, src_port=50_000, dst_port=81):
    return FiveTuple(
        IPv4Address(0x0A000000 | src_host),
        src_port,
        IPv4Address(0x0A000000 | dst_host),
        dst_port,
    )


class TestBlackholeType1:
    def test_deterministic_per_ip_pair(self):
        fault = BlackholeType1(switch_id="s", fraction=0.3)
        flow = _flow()
        verdicts = {
            fault.evaluate(_flow(src_port=p), 40, 0.5).dropped
            for p in range(50_000, 50_020)
        }
        # Ports don't matter for type 1: all probes of the pair agree.
        assert len(verdicts) == 1
        assert fault.evaluate(flow, 40, 0.0).dropped == fault.evaluate(
            flow, 40, 0.999
        ).dropped

    def test_fraction_controls_affected_pairs(self):
        fault = BlackholeType1(switch_id="s", fraction=0.25)
        affected = sum(
            fault.matches(
                IPv4Address(0x0A000000 | a << 8 | 1),
                IPv4Address(0x0A000000 | b << 8 | 2),
            )
            for a in range(40)
            for b in range(40)
        )
        assert 0.15 < affected / 1600 < 0.35

    def test_drop_is_silent(self):
        fault = BlackholeType1(switch_id="s", fraction=1.0)
        verdict = fault.evaluate(_flow(), 40, 0.5)
        assert verdict.dropped and verdict.silent

    def test_cleared_by_reload_flag(self):
        assert BlackholeType1(switch_id="s").cleared_by_reload is True


class TestBlackholeType2:
    def test_sensitive_to_source_port(self):
        fault = BlackholeType2(switch_id="s", fraction=0.3)
        outcomes = {
            fault.matches(_flow(src_port=p)) for p in range(50_000, 50_100)
        }
        assert outcomes == {True, False}  # some ports blocked, some fine

    def test_deterministic_per_five_tuple(self):
        fault = BlackholeType2(switch_id="s", fraction=0.5)
        flow = _flow(src_port=54_321)
        assert all(
            fault.evaluate(flow, 40, u).dropped == fault.evaluate(flow, 40, 0.0).dropped
            for u in (0.1, 0.5, 0.9)
        )

    def test_distinct_faults_corrupt_distinct_patterns(self):
        a = BlackholeType2(switch_id="s", fraction=0.3)
        b = BlackholeType2(switch_id="s", fraction=0.3)
        flows = [_flow(src_port=p) for p in range(50_000, 50_200)]
        assert [a.matches(f) for f in flows] != [b.matches(f) for f in flows]


class TestSilentRandomDrop:
    def test_drop_probability_honoured(self):
        fault = SilentRandomDrop(switch_id="s", drop_prob=0.25)
        drops = sum(
            fault.evaluate(_flow(), 40, u / 1000).dropped for u in range(1000)
        )
        assert drops == 250  # uniform sweep: exactly the quantile

    def test_silent_and_not_reload_fixable(self):
        fault = SilentRandomDrop(switch_id="s", drop_prob=1.0)
        assert fault.evaluate(_flow(), 40, 0.0).silent
        assert fault.cleared_by_reload is False


class TestFcsErrorFault:
    def test_drop_prob_grows_with_packet_size(self):
        fault = FcsErrorFault(switch_id="s", bit_error_rate=1e-6)
        assert fault.drop_prob(1400) > fault.drop_prob(64)

    def test_visible_counter(self):
        fault = FcsErrorFault(switch_id="s", bit_error_rate=1.0)
        verdict = fault.evaluate(_flow(), 1000, 0.0)
        assert verdict.dropped and not verdict.silent
        assert verdict.counter == "fcs_errors"


class TestCongestionFault:
    def test_adds_latency_when_not_dropping(self):
        fault = CongestionFault(switch_id="s", drop_prob=0.0, extra_queue_s=1e-3)
        verdict = fault.evaluate(_flow(), 40, 0.9)
        assert not verdict.dropped
        assert verdict.extra_latency_s == 1e-3

    def test_visible_discard_counter(self):
        fault = CongestionFault(switch_id="s", drop_prob=1.0)
        verdict = fault.evaluate(_flow(), 40, 0.0)
        assert verdict.counter == "output_discards"


class TestFaultInjector:
    def test_inject_and_clear(self):
        injector = FaultInjector()
        fault = injector.inject(SilentRandomDrop(switch_id="s1", drop_prob=0.1))
        assert injector.faults_on("s1") == [fault]
        injector.clear(fault)
        assert injector.faults_on("s1") == []
        assert not injector.faulted_switch_ids()

    def test_clear_by_id_and_idempotent(self):
        injector = FaultInjector()
        fault = injector.inject(SilentRandomDrop(switch_id="s1"))
        injector.clear(fault.fault_id)
        injector.clear(fault.fault_id)  # no-op, no error
        assert not injector.faulted_switch_ids()

    def test_reload_clears_only_blackholes(self):
        injector = FaultInjector()
        switch = _switch()
        blackhole = injector.inject(
            BlackholeType1(switch_id=switch.device_id, fraction=0.1)
        )
        silent = injector.inject(
            SilentRandomDrop(switch_id=switch.device_id, drop_prob=0.01)
        )
        cleared = injector.on_reload(switch)
        assert cleared == [blackhole]
        assert injector.faults_on(switch.device_id) == [silent]

    def test_silent_drop_updates_hidden_counter_only(self):
        injector = FaultInjector()
        switch = _switch()
        injector.inject(SilentRandomDrop(switch_id=switch.device_id, drop_prob=1.0))
        verdict = injector.evaluate_hop(switch, _flow(), 40, 0.0)
        assert verdict.dropped
        assert switch.counters.silent_drops == 1
        # SNMP shows nothing wrong — the defining property of §5.
        assert all(v == 0 for v in switch.counters.visible().values())

    def test_visible_drop_updates_snmp(self):
        injector = FaultInjector()
        switch = _switch()
        injector.inject(FcsErrorFault(switch_id=switch.device_id, bit_error_rate=1.0))
        injector.evaluate_hop(switch, _flow(), 1500, 0.0)
        assert switch.counters.visible()["fcs_errors"] == 1

    def test_no_faults_is_clean_verdict(self):
        injector = FaultInjector()
        verdict = injector.evaluate_hop(_switch(), _flow(), 40, 0.0)
        assert not verdict.dropped
        assert verdict.extra_latency_s == 0.0

    def test_latency_penalties_accumulate(self):
        injector = FaultInjector()
        switch = _switch()
        injector.inject(
            CongestionFault(switch_id=switch.device_id, drop_prob=0.0, extra_queue_s=1e-3)
        )
        injector.inject(
            CongestionFault(switch_id=switch.device_id, drop_prob=0.0, extra_queue_s=2e-3)
        )
        verdict = injector.evaluate_hop(switch, _flow(), 40, 0.99)
        assert verdict.extra_latency_s == pytest.approx(3e-3)


class TestPodsetOutage:
    def test_podset_down_and_up_roundtrip(self):
        multi = MultiDCTopology.single(TopologySpec())
        dc = multi.dc(0)
        touched = podset_down(multi, 0, 1)
        assert touched  # servers + tors + leaves
        assert all(not s.is_up for s in dc.servers_in_podset(1))
        assert all(s.is_up for s in dc.servers_in_podset(0))
        assert all(not leaf.is_up for leaf in dc.leaves_of(1))
        restored = podset_up(multi, 0, 1)
        assert sorted(restored) == sorted(touched)
        assert all(s.is_up for s in dc.servers_in_podset(1))

    def test_unknown_podset_rejected(self):
        multi = MultiDCTopology.single(TopologySpec())
        with pytest.raises(ValueError):
            podset_down(multi, 0, 99)
