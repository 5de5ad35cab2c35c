"""Tests for network SLA tracking at macro and micro scopes."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.drop_inference import estimate_drop_rate
from repro.core.dsa.sla import (
    NetworkSla,
    ServiceDefinition,
    SlaScope,
    SlaTracker,
    compute_sla,
)
from repro.cosmos.columnar import ColumnBlock
from repro.cosmos.scope import RowSet, agg, col


def _row(
    src="dc0/s0",
    dst="dc0/s1",
    rtt_us=250.0,
    success=True,
    pod=0,
    podset=0,
    dc=0,
    dst_dc=None,
):
    return {
        "src": src,
        "dst": dst,
        "src_dc": dc,
        "dst_dc": dc if dst_dc is None else dst_dc,
        "src_podset": podset,
        "dst_podset": podset,
        "src_pod": pod,
        "dst_pod": pod,
        "success": success,
        "rtt_us": rtt_us,
    }


class TestComputeSla:
    def test_metrics(self):
        rows = [_row(rtt_us=100.0 + i) for i in range(100)]
        rows.append(_row(rtt_us=3.1e6))  # one drop signature
        sla = compute_sla(rows, SlaScope.POD, "dc0/pod0", 0.0, 600.0)
        assert sla.probe_count == 101
        assert sla.drop_rate == pytest.approx(1 / 101)
        assert 100.0 <= sla.p50_us <= 200.0
        assert sla.p99_us > sla.p50_us

    def test_all_failed_window(self):
        rows = [_row(success=False, rtt_us=21e6)] * 5
        sla = compute_sla(rows, SlaScope.SERVER, "s", 0.0, 600.0)
        assert sla.p50_us is None
        assert sla.drop_rate == 0.0

    def test_as_row_shape(self):
        sla = compute_sla([_row()], SlaScope.DATACENTER, "dc0", 0.0, 600.0)
        row = sla.as_row()
        assert row["scope"] == "datacenter"
        assert row["t"] == 600.0


class TestScopeTracking:
    @pytest.fixture()
    def rows(self):
        rows = []
        for pod in range(4):
            podset = pod // 2
            for i in range(10):
                rows.append(
                    _row(
                        src=f"dc0/s{pod}-{i}",
                        pod=pod,
                        podset=podset,
                        rtt_us=200.0 + pod * 50,
                    )
                )
        return rows

    def test_pod_scope(self, rows):
        slas = SlaTracker().track_scope(rows, SlaScope.POD, 0.0, 600.0)
        assert len(slas) == 4
        assert {sla.key for sla in slas} == {f"dc0/pod{p}" for p in range(4)}

    def test_podset_scope(self, rows):
        slas = SlaTracker().track_scope(rows, SlaScope.PODSET, 0.0, 600.0)
        assert len(slas) == 2

    def test_datacenter_scope(self, rows):
        slas = SlaTracker().track_scope(rows, SlaScope.DATACENTER, 0.0, 600.0)
        assert len(slas) == 1
        assert slas[0].probe_count == 40

    def test_server_scope(self, rows):
        slas = SlaTracker().track_scope(rows, SlaScope.SERVER, 0.0, 600.0)
        assert len(slas) == 40

    def test_results_sorted_by_key(self, rows):
        slas = SlaTracker().track_scope(rows, SlaScope.POD, 0.0, 600.0)
        assert [sla.key for sla in slas] == sorted(sla.key for sla in slas)


class TestServiceTracking:
    def test_service_mapping(self):
        """§1: SLAs per service by mapping services to their servers."""
        search = ServiceDefinition.of("search", ["dc0/a", "dc0/b"])
        storage = ServiceDefinition.of("storage", ["dc0/c"])
        tracker = SlaTracker([search, storage])
        rows = [
            _row(src="dc0/a", rtt_us=100.0),
            _row(src="dc0/b", rtt_us=200.0),
            _row(src="dc0/c", rtt_us=900.0),
            _row(src="dc0/unmapped", rtt_us=5000.0),
        ]
        slas = {sla.key: sla for sla in tracker.track_services(rows, 0.0, 600.0)}
        assert set(slas) == {"search", "storage"}
        assert slas["search"].probe_count == 2
        assert slas["storage"].p50_us == pytest.approx(900.0)

    def test_service_without_traffic_omitted(self):
        tracker = SlaTracker([ServiceDefinition.of("idle", ["dc0/zz"])])
        assert tracker.track_services([_row()], 0.0, 600.0) == []

    def test_duplicate_service_rejected(self):
        tracker = SlaTracker([ServiceDefinition.of("a", ["x"])])
        with pytest.raises(ValueError):
            tracker.register_service(ServiceDefinition.of("a", ["y"]))

    def test_empty_service_rejected(self):
        with pytest.raises(ValueError):
            ServiceDefinition.of("empty", [])

    def test_track_all_covers_every_scope(self):
        tracker = SlaTracker([ServiceDefinition.of("svc", ["dc0/s0-0"])])
        rows = [_row(src="dc0/s0-0")]
        slas = tracker.track_all(rows, 0.0, 600.0)
        scopes = {sla.scope for sla in slas}
        assert scopes == {
            SlaScope.DATACENTER,
            SlaScope.PODSET,
            SlaScope.POD,
            SlaScope.SERVER,
            SlaScope.SERVICE,
        }


class TestDcPairScope:
    """Cross-DC rows route exclusively to the DC_PAIR scope.

    A healthy long-haul probe pays tens to hundreds of milliseconds of
    speed-of-light latency; folding it into the intra-DC scopes would trip
    the 5 ms P99 threshold on a perfectly healthy WAN.
    """

    @pytest.fixture()
    def mixed_rows(self):
        rows = [_row(src=f"dc0/s0-{i}") for i in range(10)]
        rows += [
            _row(src=f"dc0/s0-{i}", dst=f"dc1/s0-{i}", dst_dc=1, rtt_us=54_000.0)
            for i in range(5)
        ]
        rows += [
            _row(src=f"dc0/s0-{i}", dst=f"dc2/s0-{i}", dst_dc=2, rtt_us=140_000.0)
            for i in range(3)
        ]
        return rows

    def test_dc_pair_scope_groups_only_cross_dc_rows(self, mixed_rows):
        slas = SlaTracker().track_scope(mixed_rows, SlaScope.DC_PAIR, 0.0, 600.0)
        assert {sla.key for sla in slas} == {"dc0->dc1", "dc0->dc2"}
        by_key = {sla.key: sla for sla in slas}
        assert by_key["dc0->dc1"].probe_count == 5
        assert by_key["dc0->dc2"].probe_count == 3
        assert by_key["dc0->dc1"].p50_us == pytest.approx(54_000.0)

    def test_dc_pair_keys_are_directional(self):
        rows = [
            _row(src="dc0/a", dst="dc1/b", dc=0, dst_dc=1),
            _row(src="dc1/b", dst="dc0/a", dc=1, dst_dc=0),
        ]
        slas = SlaTracker().track_scope(rows, SlaScope.DC_PAIR, 0.0, 600.0)
        assert {sla.key for sla in slas} == {"dc0->dc1", "dc1->dc0"}

    def test_intra_scopes_exclude_cross_dc_rows(self, mixed_rows):
        tracker = SlaTracker()
        for scope in (
            SlaScope.DATACENTER,
            SlaScope.PODSET,
            SlaScope.POD,
            SlaScope.SERVER,
        ):
            slas = tracker.track_scope(mixed_rows, scope, 0.0, 600.0)
            assert sum(sla.probe_count for sla in slas) == 10, scope
        dc_sla = tracker.track_scope(mixed_rows, SlaScope.DATACENTER, 0.0, 600.0)[0]
        # The 54/140 ms WAN samples must not pollute the local percentile.
        assert dc_sla.p99_us < 1000.0

    def test_services_exclude_cross_dc_rows(self, mixed_rows):
        tracker = SlaTracker([ServiceDefinition.of("svc", ["dc0/s0-0"])])
        slas = tracker.track_services(mixed_rows, 0.0, 600.0)
        assert len(slas) == 1
        assert slas[0].probe_count == 1  # only the intra row from dc0/s0-0

    def test_track_all_emits_dc_pair_slas(self, mixed_rows):
        slas = SlaTracker().track_all(mixed_rows, 0.0, 600.0)
        scopes = {sla.scope for sla in slas}
        assert SlaScope.DC_PAIR in scopes
        pair_keys = {sla.key for sla in slas if sla.scope == SlaScope.DC_PAIR}
        assert pair_keys == {"dc0->dc1", "dc0->dc2"}

    def test_rows_without_dst_dc_treated_as_intra(self):
        row = _row()
        del row["dst_dc"]
        assert SlaTracker().track_scope([row], SlaScope.DC_PAIR, 0.0, 600.0) == []
        slas = SlaTracker().track_scope([row], SlaScope.DATACENTER, 0.0, 600.0)
        assert slas[0].probe_count == 1


# -- the engine against the row loops it replaced -------------------------------

def _oracle_crosses_dc(row):
    return row.get("dst_dc", row["src_dc"]) != row["src_dc"]


def _oracle_scope_key(row, scope):
    if scope == SlaScope.SERVER:
        return row["src"]
    if scope == SlaScope.POD:
        return f"dc{row['src_dc']}/pod{row['src_pod']}"
    if scope == SlaScope.PODSET:
        return f"dc{row['src_dc']}/ps{row['src_podset']}"
    if scope == SlaScope.DATACENTER:
        return f"dc{row['src_dc']}"
    return f"dc{row['src_dc']}->dc{row['dst_dc']}"


def _oracle_sla(rows, scope, key, start, end):
    ok_rtts = [row["rtt_us"] for row in rows if row["success"]]
    return NetworkSla(
        scope=scope,
        key=key,
        window_start=start,
        window_end=end,
        probe_count=len(rows),
        drop_rate=estimate_drop_rate(rows).rate,
        p50_us=float(np.percentile(ok_rtts, 50)) if ok_rtts else None,
        p99_us=float(np.percentile(ok_rtts, 99)) if ok_rtts else None,
    )


def _oracle_track_all(rows, services, start, end):
    """``SlaTracker.track_all`` as hand-written loops: filter, group into
    lists of dicts, reduce each list — scope by scope, in Python."""
    slas = []
    for scope in (
        SlaScope.DATACENTER,
        SlaScope.DC_PAIR,
        SlaScope.PODSET,
        SlaScope.POD,
        SlaScope.SERVER,
    ):
        wanted = scope == SlaScope.DC_PAIR
        groups = {}
        for row in rows:
            if _oracle_crosses_dc(row) == wanted:
                groups.setdefault(_oracle_scope_key(row, scope), []).append(row)
        slas.extend(
            _oracle_sla(group, scope, key, start, end)
            for key, group in sorted(groups.items())
        )
    for service in sorted(services, key=lambda s: s.name):
        service_rows = [
            row
            for row in rows
            if row["src"] in service.server_ids and not _oracle_crosses_dc(row)
        ]
        if service_rows:
            slas.append(_oracle_sla(service_rows, SlaScope.SERVICE, service.name, start, end))
    return slas


_SERVICES = (
    ServiceDefinition.of("search", ["dc0/s0-0", "dc0/s1-1", "dc1/s0-0"]),
    ServiceDefinition.of("storage", ["dc0/s2-0"]),
    ServiceDefinition.of("idle", ["dc9/nobody"]),
)

# RTTs around every threshold the drop heuristic has, and a plain range.
_RTT_US = st.one_of(
    st.floats(min_value=50.0, max_value=5_000.0, allow_nan=False),
    st.sampled_from([2_999_999.9999999995, 3e6, 3.0002e6, 8_999_999.999999998, 9e6, 9.3e6]),
)


@st.composite
def _sla_rows(draw, with_dst_dc=True):
    rows = []
    for _ in range(draw(st.integers(0, 60))):
        dc = draw(st.integers(0, 1))
        pod = draw(st.integers(0, 2))
        host = draw(st.integers(0, 1))
        row = _row(
            src=f"dc{dc}/s{pod}-{host}",
            dst=f"dc{dc}/s{(pod + 1) % 3}-{host}",
            rtt_us=draw(_RTT_US),
            # Pod 2 of dc1 never answers: all-failed groups at every scope
            # below the data center.
            success=draw(st.booleans()) and not (dc == 1 and pod == 2),
            pod=pod,
            podset=pod // 2,
            dc=dc,
            dst_dc=draw(st.sampled_from([dc, dc, dc, 1 - dc, 2])),
        )
        if not with_dst_dc:
            del row["dst_dc"]
        rows.append(row)
    return rows


def _columnar(rows):
    return RowSet.from_columns(ColumnBlock.from_records(rows).columns)


class TestEngineEqualsRowLoops:
    @settings(max_examples=120, deadline=None)
    @given(rows=_sla_rows())
    def test_columnar_window(self, rows):
        tracker = SlaTracker(_SERVICES)
        expected = _oracle_track_all(rows, _SERVICES, 0.0, 600.0)
        assert tracker.track_all(_columnar(rows), 0.0, 600.0) == expected
        assert tracker.track_all(rows, 0.0, 600.0) == expected

    @settings(max_examples=40, deadline=None)
    @given(rows=_sla_rows(with_dst_dc=False))
    def test_window_without_dst_dc_column(self, rows):
        tracker = SlaTracker(_SERVICES)
        expected = _oracle_track_all(rows, _SERVICES, 0.0, 600.0)
        assert not any(sla.scope == SlaScope.DC_PAIR for sla in expected)
        assert tracker.track_all(_columnar(rows), 0.0, 600.0) == expected

    @settings(max_examples=40, deadline=None)
    @given(rows=_sla_rows(), drop=st.sets(st.integers(0, 59)))
    def test_rows_that_only_sometimes_carry_dst_dc(self, rows, drop):
        for index in drop:
            if index < len(rows):
                del rows[index]["dst_dc"]
        tracker = SlaTracker(_SERVICES)
        expected = _oracle_track_all(rows, _SERVICES, 0.0, 600.0)
        assert tracker.track_all(rows, 0.0, 600.0) == expected

    def test_empty_window(self):
        tracker = SlaTracker(_SERVICES)
        assert tracker.track_all(RowSet([]), 0.0, 600.0) == []
        assert tracker.track_all([], 0.0, 600.0) == []

    def test_each_scope_alone(self):
        rows = [
            _row(src=f"dc0/s{pod}-{i}", pod=pod, podset=pod // 2, rtt_us=200.0 + 7 * i,
                 success=(pod, i) != (3, 4), dst_dc=1 if i == 9 else 0)
            for pod in range(4)
            for i in range(10)
        ]
        tracker = SlaTracker(_SERVICES)
        expected = _oracle_track_all(rows, _SERVICES, 5.0, 65.0)
        for scope in SlaScope:
            assert tracker.track_scope(_columnar(rows), scope, 5.0, 65.0) == [
                sla for sla in expected if sla.scope == scope
            ], scope


def test_group_bys_leave_no_cyclic_garbage():
    """A scope's sort order and sorted copies die when it returns, not at the
    next full collection: no group-by context may hold a view of itself."""
    rows = _columnar([
        _row(src=f"dc0/s{pod}-{i % 2}", pod=pod, podset=pod // 2, rtt_us=200.0 + i,
             success=i % 7 > 0, dst_dc=int(i % 5 == 0))
        for pod in range(3)
        for i in range(40)
    ])
    gc.collect()
    gc.disable()
    try:
        assert SlaTracker(_SERVICES).track_all(rows, 0.0, 600.0)
        assert rows.group_by("src", "dst").aggregate(
            ok=agg.count_if(col("success")), p99_us=agg.percentile("rtt_us", 99)
        )
        assert gc.collect() == 0
    finally:
        gc.enable()
