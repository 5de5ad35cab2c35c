"""Tests for the latency record schema."""

import numpy as np
import pytest

from repro.core.dsa.records import (
    CODED_COLUMNS,
    LATENCY_STREAM,
    RECORD_COLUMNS,
    RECORD_DTYPES,
    RecordBatch,
    make_record,
    make_records,
)
from repro.netsim.fabric import Fabric
from repro.netsim.topology import TopologySpec


@pytest.fixture(scope="module")
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=4)


class TestMakeRecord:
    def test_success_record_fields(self, fabric):
        dc = fabric.topology.dc(0)
        result = fabric.probe(dc.servers[0], dc.servers[30], t=42.0)
        record = make_record(fabric.topology, result, purpose="tor-level")
        assert set(RECORD_COLUMNS) <= set(record)
        assert record["t"] == 42.0
        assert record["src"] == dc.servers[0].device_id
        assert record["success"] is True
        assert record["rtt_us"] == pytest.approx(result.rtt_s * 1e6)
        assert record["error"] is None

    def test_topology_coordinates(self, fabric):
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        dst = dc.servers_in_podset(1)[0]
        record = make_record(fabric.topology, fabric.probe(src, dst))
        assert record["src_podset"] == 0
        assert record["dst_podset"] == 1
        assert record["src_pod"] == src.pod_index
        assert record["dst_pod"] == dst.pod_index
        assert record["src_dc"] == record["dst_dc"] == 0

    def test_failed_probe_record(self, fabric):
        dc = fabric.topology.dc(0)
        victim = dc.servers[7]
        victim.bring_down()
        try:
            result = fabric.probe(dc.servers[0], victim)
        finally:
            victim.bring_up()
        record = make_record(fabric.topology, result)
        assert record["success"] is False
        assert record["error"] == "timeout"
        assert record["payload_rtt_us"] is None

    def test_payload_rtt_included(self, fabric):
        dc = fabric.topology.dc(0)
        result = fabric.probe(dc.servers[0], dc.servers[1], payload_bytes=1000)
        record = make_record(fabric.topology, result)
        assert record["payload_rtt_us"] is not None
        assert record["payload_rtt_us"] > 0

    def test_purpose_and_qos_tagged(self, fabric):
        dc = fabric.topology.dc(0)
        result = fabric.probe(dc.servers[0], dc.servers[1])
        record = make_record(fabric.topology, result, purpose="intra-pod", qos="low")
        assert record["purpose"] == "intra-pod"
        assert record["qos"] == "low"

    def test_stream_name_constant(self):
        assert LATENCY_STREAM == "pingmesh/latency"


class TestRecordBatch:
    @pytest.fixture()
    def round_(self, fabric):
        dc = fabric.topology.dc(0)
        src = dc.servers[0].device_id
        victim = dc.servers[7]
        victim.bring_down()
        try:
            results = fabric.probe_many(
                src,
                [(dc.servers[i].device_id, 80, 1000 if i == 3 else 0) for i in (1, 3, 7, 30)],
                t=42.0,
            )
        finally:
            victim.bring_up()
        tags = [("intra-pod", "high"), ("intra-pod", "high"), ("intra-pod", "low"), ("tor-level", "high")]
        return fabric.topology, results, tags

    def test_batch_rows_are_make_record_rows(self, round_):
        topology, results, tags = round_
        batch = make_records(topology, results, tags)
        assert len(batch) == batch.n == 4
        assert tuple(batch.columns) == RECORD_COLUMNS
        assert batch.rows() == [
            make_record(topology, result, purpose=purpose, qos=qos)
            for result, (purpose, qos) in zip(results, tags)
        ]
        assert {row["error"] for row in batch.rows()} == {None, "timeout"}
        assert sum(row["payload_rtt_us"] is not None for row in batch.rows()) == 1

    def test_pack_uses_the_declared_types(self, round_):
        topology, results, tags = round_
        batch = make_records(topology, results, tags)
        block = RecordBatch.pack([batch, batch[1:3]])
        assert block.n == 6 and tuple(block.columns) == RECORD_COLUMNS
        assert block.to_rows() == batch.rows() + batch.rows()[1:3]
        for name, column in block.columns.items():
            nullable = name in ("payload_rtt_us", "error")  # both hold a None here
            if name in CODED_COLUMNS:  # text the producer codes: int32 into one table
                assert column.dtype == np.int32 and block.decoded(name).dtype.kind == "U", name
                continue
            assert column.dtype == (object if nullable else np.dtype(RECORD_DTYPES[name])) or (
                column.dtype.kind == "U" and RECORD_DTYPES[name] is np.str_
            ), name
        assert set(block.vocab) == set(CODED_COLUMNS)
        assert len({id(vocab) for vocab in block.vocab.values()}) == 1
        # Without a None in them, the nullable columns pack typed too.
        assert RecordBatch.pack([batch[1:2]]).columns["payload_rtt_us"].dtype == np.float64
        assert RecordBatch.pack([batch[2:3]]).columns["error"].dtype.kind == "U"

    def test_pack_refuses_mixed_schemas(self, round_):
        topology, results, tags = round_
        fresh = make_records(topology, results, tags)
        stale = make_records(topology, results, tags)
        stale.stale = True
        assert tuple(stale.columns) == RECORD_COLUMNS + ("pinglist_stale",)
        assert tuple(fresh.columns) == RECORD_COLUMNS
        assert RecordBatch.pack([fresh, stale]) is None
        assert RecordBatch.pack([stale, stale]).columns["pinglist_stale"].dtype == np.bool_

    def test_slices_are_batches(self, round_):
        topology, results, tags = round_
        batch = make_records(topology, results, tags)
        assert batch[1:].rows() == batch.rows()[1:]
        assert len(batch[4:]) == 0 and len(batch[:9]) == 4

    def test_a_tag_per_probe_or_nothing(self, round_):
        """A bare ``zip`` dropped the surplus silently."""
        topology, results, tags = round_
        for wrong in (tags[:-1], tags + [("tor-level", "high")]):
            with pytest.raises(ValueError, match="tags for 4 probes"):
                make_records(topology, results, wrong)
