"""Broker admission, scheduling, and lifecycle tests on a live system."""

from unittest import mock

import numpy as np
import pytest

from repro.broker import (
    AdmissionConfig,
    BrokerConfig,
    MeasurementBroker,
    RequestState,
    TenantQuota,
)
from repro.broker import admission
from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import LATENCY_STREAM
from repro.cosmos.columnar import ColumnBlock
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4)
_FAST_DSA = DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0)


def _system(seed: int = 0) -> PingmeshSystem:
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC,),
            seed=seed,
            dsa=_FAST_DSA,
            agent=AgentConfig(pinglist_refresh_s=200.0, upload_period_s=120.0),
        )
    )


@pytest.fixture()
def system():
    return _system()


@pytest.fixture()
def broker(system):
    b = MeasurementBroker(system)
    b.register_tenant("acme", TenantQuota(credits_per_window=10_000))
    system.start()
    return b


class TestAdmission:
    def test_unknown_tenant_rejected(self, broker):
        channel = broker.submit("nobody", src="dc:0", dst="dc:0")
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "unknown-tenant"

    def test_unknown_kind_raises(self, broker):
        with pytest.raises(ValueError):
            broker.submit("acme", kind="teleport")

    def test_bad_selector_rejected(self, broker):
        channel = broker.submit("acme", src="galaxy:andromeda", dst="dc:0")
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "bad-target"

    def test_unknown_server_pair_rejected(self, broker):
        channel = broker.submit("acme", pairs=[("ghost-1", "ghost-2")])
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "bad-target"

    def test_empty_target_rejected(self, broker):
        server = broker.system.topology.dc(0).servers[0].device_id
        channel = broker.submit(
            "acme", src=f"server:{server}", dst=f"server:{server}"
        )
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "empty-target"

    def test_zero_credit_tenant_rejected_not_silently(self, broker):
        broker.register_tenant("broke", TenantQuota(credits_per_window=0))
        channel = broker.submit("broke", src="dc:0", dst="dc:0")
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "insufficient-credits"
        account = broker.accounts["broke"]
        assert account.requests_rejected == 1
        assert account.conserved()

    def test_credits_refill_across_windows_readmit(self, system):
        broker = MeasurementBroker(system)
        broker.register_tenant(
            "monthly", TenantQuota(credits_per_window=20, window_s=100.0)
        )
        system.start()
        a, b = (s.device_id for s in system.topology.dc(0).servers[:2])
        pair = [(a, b)]
        first = broker.submit("monthly", pairs=pair, probes_per_pair=8, t=0.0)
        assert first.state is RequestState.ADMITTED  # 8 credits
        second = broker.submit("monthly", pairs=pair, probes_per_pair=8, t=1.0)
        assert second.state is RequestState.ADMITTED  # 16 credits
        third = broker.submit("monthly", pairs=pair, probes_per_pair=8, t=2.0)
        assert third.state is RequestState.REJECTED  # 24 > 20
        assert third.reject_reason == "insufficient-credits"
        # Next window: the refill re-admits the same ask.
        fourth = broker.submit("monthly", pairs=pair, probes_per_pair=8, t=101.0)
        assert fourth.state is RequestState.ADMITTED
        account = broker.accounts["monthly"]
        assert account.expired == 4  # the unspent tail of window one
        assert account.conserved()

    def test_oversized_burst_truncated_not_rejected(self, broker):
        """A burst past the caps is clamped and marked, never bounced:
        probes-per-pair over the cap and a cross product over the pair
        cap both land as a truncated admission, debited at clamp size."""
        channel = broker.submit(
            "acme", src="dc:0", dst="dc:0", probes_per_pair=99
        )
        assert channel.state is RequestState.ADMITTED
        assert channel.truncated
        assert channel.probes_admitted <= (
            admission.MAX_PAIRS_PER_REQUEST * admission.MAX_PROBES_PER_PAIR
        )
        assert channel.probes_requested > channel.probes_admitted
        account = broker.accounts["acme"]
        assert account.debited == channel.probes_admitted
        assert account.conserved()

    def test_truncated_burst_terminates_as_truncated(self, broker):
        channel = broker.submit(
            "acme", src="dc:0", dst="dc:0", probes_per_pair=99
        )
        broker.system.run_for(1200.0)
        assert channel.state is RequestState.TRUNCATED
        assert channel.probes_launched == channel.probes_admitted

    def test_inflight_cap_sheds_load(self, system):
        config = BrokerConfig(admission=AdmissionConfig(max_inflight_requests=1))
        broker = MeasurementBroker(system, config)
        broker.register_tenant("acme", TenantQuota(credits_per_window=10_000))
        system.start()
        a, b, c = (s.device_id for s in system.topology.dc(0).servers[:3])
        first = broker.submit("acme", pairs=[(a, b)])
        assert first.state is RequestState.ADMITTED
        second = broker.submit("acme", pairs=[(a, c)])
        assert second.state is RequestState.REJECTED
        assert second.reject_reason == "broker-overloaded"

    def test_fleet_degraded_fails_closed_for_bursts_only(self, broker):
        system = broker.system
        for dip in list(system.controller.replicas):
            system.controller.fail_replica(dip)
        burst = broker.submit("acme", src="dc:0", dst="dc:0")
        assert burst.state is RequestState.REJECTED
        assert burst.reject_reason == "fleet-degraded"
        read = broker.submit("acme", kind="scope")
        assert read.state is RequestState.COMPLETED

    def test_per_request_ports_live_in_the_broker_range(self, broker):
        ports = {admission.dst_port_for(rid) for rid in range(5000)}
        assert min(ports) >= admission.PORT_BASE
        assert max(ports) < admission.PORT_BASE + admission.PORT_SPAN

    def test_double_attach_refused(self, broker):
        with pytest.raises(RuntimeError):
            MeasurementBroker(broker.system)

    def test_pair_expansion_is_deterministic(self, broker):
        one = broker._expand_pairs(7, "dc:0", "dc:0", None)
        two = broker._expand_pairs(7, "dc:0", "dc:0", None)
        assert one == two


    @pytest.mark.parametrize(
        "params",
        [
            {"payload_bytes": None},
            {"payload_bytes": "big"},
            {"probes_per_pair": "many"},
            {"probes_per_pair": None},
            {"deadline_s": -5.0},
            {"deadline_s": 0.0},
            {"deadline_s": float("nan")},
            {"deadline_s": float("inf")},
            {"deadline_s": "soon"},
        ],
    )
    def test_bad_burst_params_are_rejected_before_the_debit(self, broker, params):
        """A bad payload or probe count used to raise out of ``submit()``
        (after the debit, for the payload) and leave the channel ``PENDING``
        for good; a negative or NaN deadline used to be admitted."""
        account = broker.accounts["acme"]
        before = account.balance
        a, b = (s.device_id for s in broker.system.topology.dc(0).servers[:2])
        channel = broker.submit("acme", pairs=[(a, b)], **params)
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "bad-params"
        assert account.balance == before and account.conserved()
        assert not broker.inflight
        assert all(ch.done for ch in broker.channels.values())


class TestLifecycle:
    def test_burst_completes_with_exact_ledger(self, broker):
        channel = broker.submit("acme", src="podset:0/0", dst="podset:0/1")
        broker.system.run_for(120.0)
        assert channel.state is RequestState.COMPLETED
        assert channel.probes_launched == channel.probes_admitted
        assert channel.probes_completed == channel.probes_launched
        assert channel.successes + channel.failures == channel.probes_completed
        assert channel.latency_s > 0
        assert broker.probes_launched == broker.probes_delivered

    def test_deadline_times_out_and_refunds(self, system):
        broker = MeasurementBroker(system)
        broker.register_tenant("acme", TenantQuota(credits_per_window=100))
        # No system.start(): no rounds ever run, so nothing launches.
        a, b = (s.device_id for s in system.topology.dc(0).servers[:2])
        channel = broker.submit(
            "acme", pairs=[(a, b)], probes_per_pair=4, deadline_s=50.0, t=0.0
        )
        assert channel.state is RequestState.ADMITTED
        account = broker.accounts["acme"]
        assert account.debited == 4
        broker.tick(t=60.0)
        assert channel.state is RequestState.TIMED_OUT
        assert channel.probes_launched == 0
        assert account.refunded == 4
        assert account.balance == 100
        assert account.conserved()

    def test_deadline_with_partial_results_truncates(self, broker):
        system = broker.system
        src = system.topology.dc(0).servers[0].device_id
        # One source serves one probe per work item per round: 8 pairs x 4
        # probes with a two-round deadline cannot finish.
        channel = broker.submit(
            "acme",
            src=f"server:{src}",
            dst="podset:0/1",
            probes_per_pair=4,
            deadline_s=25.0,
        )
        system.run_for(120.0)  # housekeeping tick fires at ~60 s
        assert channel.state is RequestState.TRUNCATED
        assert 0 < channel.probes_launched < channel.probes_admitted
        account = broker.accounts["acme"]
        assert account.refunded == channel.probes_admitted - channel.probes_launched
        assert account.conserved()

    def test_finished_channel_refuses_a_second_terminal(self, broker):
        channel = broker.submit("acme", kind="scope")
        assert channel.done
        with pytest.raises(RuntimeError):
            channel.finish(1.0, RequestState.COMPLETED)

    def test_concurrent_tenants_one_shard(self, system):
        """Several tenants bursting into the same (dc, podset) shard all
        complete, with per-request attribution intact and every ledger
        conserved — nothing cross-credits between tenants."""
        broker = MeasurementBroker(system)
        for i in range(4):
            broker.register_tenant(f"t{i}", TenantQuota(credits_per_window=500))
        system.start()
        channels = [
            broker.submit(f"t{i}", src="podset:0/0", dst="podset:0/0")
            for i in range(4)
        ]
        system.run_for(300.0)
        for channel in channels:
            assert channel.state is RequestState.COMPLETED
            assert channel.probes_completed == channel.probes_admitted
        for i in range(4):
            account = broker.accounts[f"t{i}"]
            assert account.debited == channels[i].probes_admitted
            assert account.probes_launched == channels[i].probes_launched
            assert account.conserved()
        assert broker.probes_launched == broker.probes_delivered
        assert broker.probes_launched == sum(c.probes_launched for c in channels)


class TestReadQueries:
    def test_scope_query_summarizes_store(self, broker):
        broker.system.run_for(700.0)  # past an upload period: rows exist
        channel = broker.submit("acme", kind="scope", params={"since_s": 700.0})
        assert channel.state is RequestState.COMPLETED
        assert channel.rows, "expected per-DC summary rows"
        row = channel.rows[0]
        assert row["probes"] > 0
        assert 0.0 <= row["drop_rate"] <= 1.0

    def test_scope_query_prunes_history_and_keeps_its_answer(self, broker):
        """The read costs what its window holds, not what the stream has
        ever held: extents appended before ``since`` are neither scanned
        nor turned into rows, and the summary is the per-record walk's."""
        system = broker.system
        system.run_for(1500.0)  # a dozen upload periods of history
        store = system.store
        now = system.clock.now
        since = now - 300.0

        expected = {}
        for record in store.read(LATENCY_STREAM):
            if record["t"] >= since:
                expected.setdefault(record["src_dc"], []).append(record)
        expected_rows = []
        for dc in sorted(expected):
            records = expected[dc]
            successes = [r["rtt_us"] for r in records if r["success"]]
            expected_rows.append(
                {
                    "dc": dc,
                    "probes": len(records),
                    "drop_rate": 1.0 - len(successes) / len(records),
                    "p50_us": float(np.percentile(successes, 50)),
                    "p99_us": float(np.percentile(successes, 99)),
                }
            )

        everything = list(store.stream(LATENCY_STREAM).extents)
        old = {e.extent_id for e in everything if e.appended_at < since}
        assert len(everything) > len(old) > len(everything) / 2
        scanned = []
        real_extents = store.extents

        def counting_extents(name, appended_since=None):
            for extent in real_extents(name, appended_since):
                scanned.append(extent.extent_id)
                yield extent

        materialized = []
        real_to_rows = ColumnBlock.to_rows

        def counting_to_rows(block):
            materialized.append(block.n)
            return real_to_rows(block)

        reads_before = store.read_count
        with mock.patch.object(store, "extents", counting_extents), mock.patch.object(
            ColumnBlock, "to_rows", counting_to_rows
        ):
            channel = broker.submit("acme", kind="scope", params={"since_s": 300.0})
        assert channel.state is RequestState.COMPLETED
        assert channel.rows == expected_rows and expected_rows
        # Rows are made for the per-DC results only, never for the window.
        assert sum(materialized) <= 2 * len(expected_rows)
        assert store.read_count == reads_before + 1
        assert scanned and old.isdisjoint(scanned)

    def test_stream_query_reads_recent_windows(self, broker):
        broker.system.run_for(300.0)
        channel = broker.submit("acme", kind="stream", params={"windows": 3})
        assert channel.state is RequestState.COMPLETED
        assert channel.rows
        assert channel.rows[0]["probes"] > 0

    def test_read_queries_cost_one_credit(self, broker):
        account = broker.accounts["acme"]
        before = account.balance
        broker.submit("acme", kind="scope")
        assert account.balance == before - admission.READ_QUERY_COST

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("stream", {"windows": "many"}),
            ("stream", {"windows": None}),
            ("stream", {"windows": float("nan")}),
            ("stream", {"windows": float("inf")}),
            ("stream", {"cls": ["intra-pod"]}),
            ("stream", {"exclude_cls": 3}),
            ("scope", {"since_s": "soon"}),
            ("scope", {"since_s": None}),
            ("scope", {"since_s": -1.0}),
            ("scope", {"since_s": float("nan")}),
            ("scope", {"since_s": float("inf")}),
        ],
    )
    def test_bad_read_params_are_rejected_before_the_debit(self, broker, kind, params):
        """Each of these used to raise out of ``submit()`` after the debit:
        the credit was gone and the channel stayed ``PENDING`` for good."""
        account = broker.accounts["acme"]
        before = account.balance
        channel = broker.submit("acme", kind=kind, params=params)
        assert channel.state is RequestState.REJECTED
        assert channel.reject_reason == "bad-params"
        assert account.balance == before and account.conserved()
        assert all(ch.done for ch in broker.channels.values())

    def test_out_of_range_read_windows_are_clamped(self, broker):
        broker.system.run_for(300.0)
        ingest = broker.system.stream.ingest

        def rows(windows):
            channel = broker.submit("acme", kind="stream", params={"windows": windows})
            assert channel.state is RequestState.COMPLETED
            return channel.rows

        assert len(ingest.window_starts()) > 3
        assert rows(-5) == rows(0) == rows(1)
        assert rows(10**12) == rows(ingest.retention_windows)
        assert rows(1)[0]["probes"] < rows(3)[0]["probes"] < rows(10**12)[0]["probes"]
        # A numeric string and a None class are what they look like.
        assert rows("3") == rows(3)
        explicit = broker.submit(
            "acme", kind="stream", params={"windows": 3, "cls": None}
        )
        assert explicit.rows == rows(3)
        huge = broker.submit("acme", kind="scope", params={"since_s": 1e300})
        assert huge.state is RequestState.COMPLETED

