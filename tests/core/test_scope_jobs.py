"""Tests for the DSA SCOPE jobs."""

import pytest

from repro.core.dsa.records import LATENCY_STREAM
from repro.core.dsa.scope_jobs import (
    job_dc_drop_table,
    job_podpair_latency,
    job_scope_drop_rates,
    window_rows,
)
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.cosmos.store import CosmosStore
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import TopologySpec


def _record(t, src_pod, dst_pod, rtt_us=250.0, success=True, dc=0):
    return {
        "t": t,
        "src": f"dc{dc}/s{src_pod}",
        "dst": f"dc{dc}/d{dst_pod}",
        "src_dc": dc,
        "dst_dc": dc,
        "src_podset": src_pod // 2,
        "dst_podset": dst_pod // 2,
        "src_pod": src_pod,
        "dst_pod": dst_pod,
        "success": success,
        "rtt_us": rtt_us,
        "syn_drops": 0,
    }


@pytest.fixture()
def store():
    store = CosmosStore()
    records = []
    for t in range(0, 600, 60):
        for src_pod in range(4):
            for dst_pod in range(4):
                records.append(_record(float(t), src_pod, dst_pod))
    # One 3-second (one-drop) probe in pod pair (0, 1).
    records.append(_record(30.0, 0, 1, rtt_us=3.1e6))
    store.append(LATENCY_STREAM, records, t=600.0)
    return store


class TestWindowRows:
    def test_filters_by_time(self, store):
        rows = window_rows(store, 0.0, 120.0)
        assert all(0.0 <= row["t"] < 120.0 for row in rows)
        assert len(rows) == 2 * 16 + 1

    def test_empty_store(self):
        assert len(window_rows(CosmosStore(), 0.0, 600.0)) == 0

    def test_bad_window_rejected(self, store):
        with pytest.raises(ValueError):
            window_rows(store, 100.0, 100.0)


class TestPodpairJob:
    def test_one_row_per_pair(self, store):
        rows = job_podpair_latency(store, 0.0, 600.0)
        assert len(rows) == 16
        pair_keys = {(row["src_pod"], row["dst_pod"]) for row in rows}
        assert len(pair_keys) == 16

    def test_metrics_present(self, store):
        rows = job_podpair_latency(store, 0.0, 600.0)
        row = next(r for r in rows if r["src_pod"] == 0 and r["dst_pod"] == 1)
        assert row["probe_count"] == 11
        assert row["p50_us"] == pytest.approx(250.0)
        assert row["drop_rate"] == pytest.approx(1 / 11)
        assert row["t"] == 600.0

    def test_dc_filter(self, store):
        store.append(LATENCY_STREAM, [_record(10.0, 0, 1, dc=1)], t=600.0)
        rows = job_podpair_latency(store, 0.0, 600.0, dc=1)
        assert len(rows) == 1
        assert rows[0]["src_dc"] == 1

    def test_empty_window(self, store):
        assert job_podpair_latency(store, 10_000.0, 10_600.0) == []


class TestDropRateJobs:
    def test_intra_vs_inter_split(self, store):
        rows = job_scope_drop_rates(store, 0.0, 600.0)
        assert len(rows) == 1
        row = rows[0]
        # Diagonal pairs are intra-pod (4 pods x 10 rounds).
        assert row["intra_pod_probes"] == 40
        assert row["inter_pod_probes"] == 121
        assert row["intra_pod_drop_rate"] == 0.0
        assert row["inter_pod_drop_rate"] == pytest.approx(1 / 121)

    def test_dc_names_attached(self, store):
        rows = job_dc_drop_table(store, 0.0, 600.0, ["DC1 (US West)"])
        assert rows[0]["dc_name"] == "DC1 (US West)"

    def test_unknown_dc_index_gets_fallback_name(self, store):
        store.append(LATENCY_STREAM, [_record(10.0, 0, 0, dc=3)], t=600.0)
        rows = job_dc_drop_table(store, 0.0, 600.0, ["only-one"])
        names = {row["dc_name"] for row in rows}
        assert "dc3" in names


class TestOneDropCutoff:
    """§4.2 has one cut-off — a successful probe counts as a drop from the
    3 s SYN signature (``netsim.tcp``) — where the pod-pair and inter-DC
    jobs used to start counting at 2.5 s."""

    def test_slow_probe_below_the_signature_is_not_a_drop(self, store):
        store.append(LATENCY_STREAM, [_record(40.0, 0, 1, rtt_us=2.7e6)], t=600.0)
        rows = job_podpair_latency(store, 0.0, 600.0)
        row = next(r for r in rows if r["src_pod"] == 0 and r["dst_pod"] == 1)
        assert row["drop_rate"] == pytest.approx(1 / 12)
        # ... which is what the scope job reads from the same rows.
        scope_row = job_scope_drop_rates(store, 0.0, 600.0)[0]
        assert scope_row["inter_pod_drop_rate"] == pytest.approx(1 / 122)

    def test_no_simulated_rtt_lies_between_the_two_cutoffs(self):
        """256 servers, one silent spine, one round: retransmissions show
        up at 3 s and beyond, nothing successful lands in [2.5 s, 3 s) —
        so moving the jobs to the one cut-off moved no job output."""
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(
                    TopologySpec(
                        n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=4
                    ),
                ),
                seed=5,
            )
        )
        system.start()
        apply_scenario("silent-spine", system.fabric)
        for agent in system.agents.values():
            agent.run_probe_round(10.0)
            agent.uploader.flush(10.0)
        ok_rtts = [
            row["rtt_us"] for row in system.store.read(LATENCY_STREAM) if row["success"]
        ]
        assert len(ok_rtts) > 5000
        assert any(rtt >= 3e6 for rtt in ok_rtts)
        assert not [rtt for rtt in ok_rtts if 2.5e6 <= rtt < 3e6]
