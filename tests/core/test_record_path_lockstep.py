"""The record path, lock-step: columns from birth equal a dict per record.

A probe record is a column entry from the round that makes it to the job
that reads it (ISSUE 19); the pipeline it replaced lives on here as the
oracle — a dict per result (``_oracle_make_records``), a JSON line per
record on ``add``, a list-of-dicts buffer trimmed with ``del``
(``_OracleUploader``, the old ``ResultUploader``) and the store's own
packing of dict copies (``ColumnBlock.from_records``, still what
``CosmosStore.append`` does to a list of dicts).  Both are driven by one
script and held to each other exactly:

* after every call: ``local_log_bytes``, ``local_log_lines()`` (across
  rotation at a 2 KB cap too) and the whole ledger;
* after every flush: extent boundaries, column names, dtypes (``<U`` widths
  included; a coded column's decoded values), values, ``size_bytes``,
  ``store.read()`` rows, ``record_count``;
* and the overload paths one at a time: backstop overflow, spool eviction,
  failed-then-replayed batches, ``set_upload_fn`` black-outs.

Scripts mix successes, ``timeout`` failures, payload probes (float and
``None`` ``payload_rtt_us``), ``agent_down`` rounds, VIP-down dicts through
``add``, stale-tagged rounds and a non-ASCII server id.

Since ISSUE 22 a batch is born from the engine's columnar
:class:`~repro.netsim.fabric.ProbeBatch` and shares the ten columns its
pinglist fixes with every other round of that pinglist.  The same oracle
runs against those: the scripted rounds reach ``make_records`` as probe
batches in both forms the engine produces (assembled around scalar rows;
bare columns with no ``error`` / ``payload_rtt_s`` list at all), and
``TestEngineBornBatches`` drives a real fabric — all-fast rounds, mixed
scalar/fast rounds, a fast-partition ``timeout``, a stale round beside
fresh ones on one static object, the backstop cutting such a batch, spool
and replay — reading the oracle's input back through the batch's row view.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.agent import PingmeshAgent
from repro.core.agent.uploader import ResultUploader, UploadStats
from repro.core.dsa.records import RECORD_COLUMNS, make_records
from repro.cosmos.columnar import ColumnBlock
from repro.cosmos.store import CosmosStore
from repro.netsim.fabric import Fabric, ProbeBatch, ProbeResult, _RoundPlan
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.netsim.workload import PROFILES
from repro.resilience import RetryPolicy, SpooledBatch, UploadSpool, derive_seed

STREAM = "pingmesh/latency"

# -- the oracle: the pipeline as it was ----------------------------------------

_encode = json.JSONEncoder(separators=(",", ":"), default=str).encode


def _oracle_make_records(servers, results, tags) -> list[dict]:
    """A dict per result — ``make_records`` before batches."""
    rows = []
    for result, (purpose, qos) in zip(results, tags):
        src = servers[result.src]
        dst = servers[result.dst]
        rows.append(
            {
                "t": result.t,
                "src": result.src,
                "dst": result.dst,
                "src_dc": src.dc_index,
                "dst_dc": dst.dc_index,
                "src_podset": src.podset_index,
                "dst_podset": dst.podset_index,
                "src_pod": src.pod_index,
                "dst_pod": dst.pod_index,
                "purpose": purpose,
                "qos": qos,
                "success": result.success,
                "rtt_us": result.rtt_s * 1e6,
                "syn_drops": result.syn_drops,
                "payload_rtt_us": (
                    result.payload_rtt_s * 1e6
                    if result.payload_rtt_s is not None
                    else None
                ),
                "error": result.error,
            }
        )
    return rows


class _OracleUploader:
    """``ResultUploader`` before batches: a list of dicts, a rendered JSON
    line per record, ``del`` for the backstop.  Spool, retry policy and
    flush protocol are the (unchanged) real ones."""

    def __init__(
        self,
        store,
        server_id,
        flush_threshold_records=2000,
        max_buffer_records=10_000,
        max_retries=3,
        log_cap_bytes=256 * 1024,
        retry_base_s=60.0,
        retry_cap_s=600.0,
        spool_cap_records=20_000,
    ) -> None:
        self.store = store
        self.max_buffer_records = max_buffer_records
        self.max_retries = max_retries
        self.log_cap_bytes = log_cap_bytes
        self._upload_fn = self._default_upload
        self._buffer: list[dict] = []
        self._log: list[str] = []
        self._log_bytes = 0
        self.stats = UploadStats()
        self.spool = UploadSpool(cap_records=spool_cap_records)
        self.retry = RetryPolicy(
            retry_base_s, retry_cap_s, seed=derive_seed(server_id, STREAM, "upload-retry")
        )
        self._next_attempt_t = 0.0

    def _default_upload(self, records, t):
        self.store.append(STREAM, records, t=t)

    def set_upload_fn(self, upload_fn):
        self._upload_fn = upload_fn or self._default_upload

    def add(self, record):
        self.add_many([record])

    def add_many(self, records):
        if not records:
            return
        self.stats.records_added += len(records)
        self._buffer.extend(records)
        for record in records:
            line = _encode(record)
            self._log.append(line)
            self._log_bytes += len(line) + 1
            while self._log_bytes > self.log_cap_bytes and self._log:
                dropped = self._log.pop(0)
                self._log_bytes -= len(dropped) + 1
        if len(self._buffer) > self.max_buffer_records:
            overflow = len(self._buffer) - self.max_buffer_records
            del self._buffer[:overflow]
            self.stats.records_discarded += overflow

    @property
    def buffered_records(self):
        return len(self._buffer)

    @property
    def spooled_records(self):
        return self.spool.records

    def _stage_buffer(self, t):
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self.stats.records_spooled += len(batch)
        evicted = self.spool.push(SpooledBatch(records=batch, spooled_t=t))
        self.stats.records_discarded += len(evicted)

    def _attempt(self, records, t):
        self.stats.upload_attempts += 1
        try:
            self._upload_fn(records, t)
        except Exception:  # noqa: BLE001
            self.stats.upload_failures += 1
            return False
        return True

    def flush(self, t, *, force=False):
        self.stats.flushes += 1
        if not self._buffer and not self.spool:
            return True
        if not force and t < self._next_attempt_t:
            self._stage_buffer(t)
            return False
        while self.spool or self._buffer:
            batch = self.spool.peek_oldest()
            if batch is not None:
                if self._attempt(batch.records, t):
                    self.spool.pop_oldest()
                    self.stats.records_uploaded += len(batch.records)
                    self.stats.records_replayed += len(batch.records)
                    continue
                batch.attempts += 1
                if batch.attempts >= self.max_retries:
                    self.spool.pop_oldest()
                    self.stats.records_discarded += len(batch.records)
                    self.stats.failed_flushes += 1
                self._next_attempt_t = t + self.retry.next_delay()
                self._stage_buffer(t)
                return False
            records, self._buffer = self._buffer, []
            if self._attempt(records, t):
                self.stats.records_uploaded += len(records)
                continue
            if self.max_retries <= 1:
                self.stats.records_discarded += len(records)
                self.stats.failed_flushes += 1
            else:
                self.stats.records_spooled += len(records)
                evicted = self.spool.push(
                    SpooledBatch(records=records, spooled_t=t, attempts=1)
                )
                self.stats.records_discarded += len(evicted)
            self._next_attempt_t = t + self.retry.next_delay()
            return False
        self.retry.reset()
        self._next_attempt_t = 0.0
        return True

    def local_log_lines(self):
        return list(self._log)

    @property
    def local_log_bytes(self):
        return self._log_bytes


# -- the world the scripts run in ------------------------------------------------

ME = "dc0/ps0/pod0/s0"
PEERS = (
    "dc0/ps0/pod0/s1",
    "dc0/ps0/pod1/s0",
    "dc0/ps1/pod5/s12",
    "dc1/ps0/pod0/sérvér-ü",  # json escapes what numpy and len() count as one
    'dc0/ps3/pod14/"quoted\\host"',
)
SERVERS = {
    ME: SimpleNamespace(dc_index=0, podset_index=0, pod_index=0),
    PEERS[0]: SimpleNamespace(dc_index=0, podset_index=0, pod_index=0),
    PEERS[1]: SimpleNamespace(dc_index=0, podset_index=0, pod_index=1),
    PEERS[2]: SimpleNamespace(dc_index=0, podset_index=1, pod_index=5),
    PEERS[3]: SimpleNamespace(dc_index=1, podset_index=0, pod_index=0),
    PEERS[4]: SimpleNamespace(dc_index=0, podset_index=3, pod_index=14),
}
TAGS = (("intra-pod", "high"), ("tor-level", "high"), ("tor-level", "low"), ("inter-dc", "high"))
_STALE_AGENT = SimpleNamespace(pinglist_stale=True)


def _result(kind: str, dst: str, t: float, rtt_s: float) -> ProbeResult:
    if kind == "ok":
        return ProbeResult(ME, dst, t, True, rtt_s, syn_drops=0)
    if kind == "one-drop":
        return ProbeResult(ME, dst, t, True, 3.0 + rtt_s, syn_drops=1)
    if kind == "payload":
        return ProbeResult(ME, dst, t, True, rtt_s, payload_rtt_s=rtt_s * 3.7)
    if kind == "timeout":
        return ProbeResult(ME, dst, t, False, 21.0, error="timeout", syn_drops=3)
    assert kind == "agent_down"
    return ProbeResult(ME, dst, t, False, 0.0, error="agent_down")


def _vip_down_record(t: float, stale: bool) -> dict:
    record = {
        "t": t, "src": ME, "dst": "search.vip", "src_dc": 0, "dst_dc": 0,
        "src_podset": 0, "dst_podset": -1, "src_pod": 0, "dst_pod": -1,
        "purpose": "vip", "qos": "high", "success": False, "rtt_us": 0.0,
        "syn_drops": 0, "payload_rtt_us": None, "error": "vip_down",
    }
    if stale:
        record["pinglist_stale"] = True
    return record


def _bare_columns(results) -> ProbeBatch:
    """The form ``probe_many`` gives an all-analytic round: arrays, and no
    ``error`` / ``payload_rtt_s`` list when no row has one."""
    if any(r.payload_rtt_s is not None or r.error == "agent_down" for r in results):
        return ProbeBatch.from_results(results)
    errors = [r.error for r in results]
    return ProbeBatch(
        _RoundPlan(ME, tuple(r.dst for r in results)),
        results[0].t,
        np.array([r.success for r in results], dtype=bool),
        np.array([r.rtt_s for r in results], dtype=np.float64),
        np.array([r.syn_drops for r in results], dtype=np.int64),
        errors if any(errors) else None,
        None,
        range(50_000, 50_000 + len(results)),
    )


def _records(results, tags):
    return make_records(None, ProbeBatch.from_results(results), tags, SERVERS)


class _Pair:
    """The new uploader + store beside the oracle's, fed the same things."""

    def __init__(self, **uploader_kwargs) -> None:
        self.new_store = CosmosStore()
        self.old_store = CosmosStore()
        self.new = ResultUploader(self.new_store, ME, **uploader_kwargs)
        self.old = _OracleUploader(self.old_store, ME, **uploader_kwargs)

    def round(self, results, tags, stale=False, bare=False) -> None:
        self.probes(_bare_columns(results) if bare else ProbeBatch.from_results(results),
                    tags, stale, rows=results)

    def probes(self, probes, tags, stale=False, topology=None, servers=SERVERS, rows=None):
        """One engine call's probe batch into the new path, the rows it
        stands for (read back through its row view unless given) into the
        oracle.  Returns the record batch."""
        batch = make_records(topology, probes, tags, servers)
        rows = _oracle_make_records(servers, list(probes) if rows is None else rows, tags)
        if stale:
            PingmeshAgent._tag_stale_many(_STALE_AGENT, batch)
            for row in rows:
                row["pinglist_stale"] = True
        self.new.add_many(batch)
        self.old.add_many(rows)
        self.check_held()
        return batch

    def add(self, record: dict) -> None:
        self.new.add(dict(record))
        self.old.add(dict(record))
        self.check_held()

    def black_out(self, down: bool) -> None:
        def refuse(records, t):
            raise ConnectionError("cosmos VIP unreachable")

        for uploader in (self.new, self.old):
            uploader.set_upload_fn(refuse if down else None)

    def flush(self, t: float, force: bool = False) -> None:
        assert self.new.flush(t, force=force) == self.old.flush(t, force=force)
        self.check_held()
        self.check_stored()

    # -- what must agree ---------------------------------------------------

    def ledger(self, uploader) -> dict:
        ledger = dict(vars(uploader.stats))
        ledger["buffered"] = uploader.buffered_records
        ledger["spooled"] = uploader.spooled_records
        ledger["spool_batches"] = uploader.spool.batches
        ledger["spool_evicted"] = uploader.spool.records_evicted
        ledger["next_attempt_t"] = uploader._next_attempt_t
        return ledger

    def check_held(self) -> None:
        assert self.new.local_log_bytes == self.old.local_log_bytes
        assert self.new.local_log_lines() == self.old.local_log_lines()
        assert self.new.local_log_bytes == sum(
            len(line) + 1 for line in self.new.local_log_lines()
        )
        ledger = self.ledger(self.new)
        assert ledger == self.ledger(self.old)
        assert ledger["records_added"] == (
            ledger["records_uploaded"]
            + ledger["records_discarded"]
            + ledger["buffered"]
            + ledger["spooled"]
        )

    def check_stored(self) -> None:
        assert self.new_store.has_stream(STREAM) == self.old_store.has_stream(STREAM)
        if not self.new_store.has_stream(STREAM):
            return
        new, old = self.new_store.stream(STREAM), self.old_store.stream(STREAM)
        assert new.record_count == old.record_count
        assert new.size_bytes == old.size_bytes
        assert self.new_store.bytes_ingested == self.old_store.bytes_ingested
        assert self.new_store.records_ingested == self.old_store.records_ingested
        assert len(new.extents) == len(old.extents)
        for mine, theirs in zip(new.extents, old.extents):
            assert len(mine.records) == len(theirs.records)
            assert mine.size_bytes == theirs.size_bytes
            assert mine.appended_at == theirs.appended_at
            # The oracle's twin is what packing dict copies gives.  A coded
            # column is held to its values (what it is stored as, and every
            # job's reading of it, is test_record_fingerprint's business).
            reference = ColumnBlock.from_records(theirs.records)
            assert list(mine.columns.columns) == list(reference.columns)
            for name, column in reference.columns.items():
                assert mine.columns.decoded(name).tolist() == column.tolist(), name
                if name not in mine.columns.vocab:
                    assert mine.columns.columns[name].dtype == column.dtype, name
        new_rows = list(self.new_store.read(STREAM))
        assert new_rows == list(self.old_store.read(STREAM))
        assert [list(row) for row in new_rows] == [
            list(row) for row in self.old_store.read(STREAM)
        ]


# -- hypothesis scripts ----------------------------------------------------------

_KINDS = st.sampled_from(("ok", "ok", "ok", "one-drop", "payload", "timeout"))
_RTT = st.floats(min_value=1e-5, max_value=0.4, allow_nan=False)
_PROBE = st.tuples(
    _KINDS, st.sampled_from(PEERS), _RTT, st.sampled_from(TAGS)
)
_OPS = st.one_of(
    st.tuples(
        st.just("round"), st.lists(_PROBE, min_size=1, max_size=12), st.booleans(),
        st.booleans(),
    ),
    st.tuples(st.just("down-round"), st.integers(1, 6), st.booleans()),
    st.tuples(st.just("vip"), st.booleans()),
    st.tuples(st.just("flush"), st.booleans()),
    st.tuples(st.just("black-out"), st.booleans()),
)


def _run_script(pair: _Pair, script) -> None:
    t = 0.0
    for op in script:
        t += 30.0
        if op[0] == "round":
            _name, probes, stale, bare = op
            results = [_result(kind, dst, t, rtt) for kind, dst, rtt, _tag in probes]
            pair.round(results, [tag for *_rest, tag in probes], stale, bare)
        elif op[0] == "down-round":
            _name, n, stale = op
            results = [_result("agent_down", PEERS[i % len(PEERS)], t, 0.0) for i in range(n)]
            pair.round(results, [TAGS[1]] * n, stale)
        elif op[0] == "vip":
            pair.add(_vip_down_record(t, stale=op[1]))
        elif op[0] == "flush":
            pair.flush(t, force=op[1])
        else:
            pair.black_out(op[1])
    pair.black_out(False)
    pair.flush(t + 1000.0, force=True)


@settings(max_examples=60, deadline=None)
@given(script=st.lists(_OPS, min_size=1, max_size=25))
def test_scripted_rounds_match_the_dict_pipeline(script):
    _run_script(_Pair(retry_base_s=20.0, retry_cap_s=40.0), script)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(_OPS, min_size=1, max_size=25))
def test_log_rotation_at_a_2kb_cap(script):
    """Same scripts, a log that holds half a dozen lines: every call ends
    with the same surviving suffix, cut inside batches as often as between."""
    pair = _Pair(log_cap_bytes=2048, retry_base_s=20.0, retry_cap_s=40.0)
    _run_script(pair, script)
    assert pair.new.local_log_bytes <= 2048


@settings(max_examples=30, deadline=None)
@given(script=st.lists(_OPS, min_size=5, max_size=30))
def test_small_caps_exercise_backstop_and_spool(script):
    """Buffer cap 8, spool cap 20: most scripts overflow one or both."""
    pair = _Pair(
        flush_threshold_records=4,
        max_buffer_records=8,
        spool_cap_records=20,
        retry_base_s=20.0,
        retry_cap_s=40.0,
    )
    _run_script(pair, script)


# -- the overload paths, one at a time ---------------------------------------------


def _healthy_round(t: float, n: int, offset: int = 0) -> tuple[list, list]:
    results = [
        _result("ok", PEERS[(offset + i) % len(PEERS)], t, 2.5e-4 + 1e-7 * (offset + i))
        for i in range(n)
    ]
    return results, [TAGS[i % len(TAGS)] for i in range(n)]


def test_backstop_overflow_keeps_the_same_suffix():
    """10,400 rows into a 10,000-row backstop, 40 a round (a shard folding
    one silent-spine round): the same 400 are discarded, the same 10,000
    reach the store."""
    pair = _Pair()
    for index in range(260):
        pair.new.add_many(_records(*_healthy_round(60.0, 40, index * 40)))
        pair.old.add_many(_oracle_make_records(SERVERS, *_healthy_round(60.0, 40, index * 40)))
    pair.check_held()
    assert pair.new.stats.records_discarded == 400
    assert pair.new.buffered_records == 10_000
    pair.flush(60.0)
    stored = list(pair.new_store.read(STREAM))
    assert len(stored) == 10_000
    assert stored[0]["rtt_us"] == (2.5e-4 + 1e-7 * 400) * 1e6  # row 400 is the oldest kept


def test_backstop_cut_inside_a_batch():
    pair = _Pair(flush_threshold_records=5, max_buffer_records=10)
    pair.round(*_healthy_round(1.0, 7))
    pair.add(_vip_down_record(2.0, stale=False))
    pair.round(*_healthy_round(3.0, 6, offset=7))  # 14 held: 4 off the first batch
    assert pair.new.stats.records_discarded == 4
    pair.round(*_healthy_round(4.0, 9, offset=13))  # drops 3 rows, the dict, 5 rows
    assert pair.new.stats.records_discarded == 13
    pair.flush(5.0)


def test_spool_eviction_and_replay():
    pair = _Pair(spool_cap_records=25, retry_base_s=1.0, retry_cap_s=2.0, max_retries=5)
    pair.black_out(True)
    for index in range(4):
        pair.round(*_healthy_round(10.0 * index, 10, offset=10 * index))
        pair.flush(10.0 * index + 5.0)
    # 40 spooled into a 25-row quota: the oldest batches made room.
    assert pair.new.spooled_records == 20
    assert pair.new.stats.records_discarded == 20
    # One batch alone over the quota keeps its newest rows.
    pair.round(*_healthy_round(50.0, 30, offset=40))
    pair.flush(55.0)
    assert pair.new.spooled_records == 25
    pair.black_out(False)
    pair.round(*_healthy_round(60.0, 3, offset=70))
    pair.flush(100.0)
    assert pair.new.spooled_records == 0
    assert pair.new.stats.records_replayed == 25


def test_failed_then_replayed_batches_land_once():
    pair = _Pair(retry_base_s=1.0, retry_cap_s=2.0)
    pair.black_out(True)
    pair.round(*_healthy_round(1.0, 5))
    pair.flush(2.0)  # attempt 1 fails: spooled
    pair.round(*_healthy_round(3.0, 4, offset=5), stale=True)
    pair.flush(10.0)  # attempt 2 fails; the stale round is staged behind it
    pair.black_out(False)
    pair.add(_vip_down_record(11.0, stale=False))
    pair.flush(20.0)  # both batches replay, then the dict ships
    assert pair.new.stats.records_uploaded == 10
    assert [len(extent.records) for extent in pair.new_store.stream(STREAM).extents] == [5, 4, 1]


def test_retried_out_batch_is_discarded_on_both_sides():
    pair = _Pair(retry_base_s=1.0, retry_cap_s=2.0, max_retries=3)
    pair.black_out(True)
    pair.round(*_healthy_round(1.0, 6))
    for t in (2.0, 10.0, 20.0):
        pair.flush(t)
    assert pair.new.stats.records_discarded == 6
    assert pair.new.stats.failed_flushes == 1


# -- what the new path must not do ---------------------------------------------------


def test_a_flush_of_batches_is_adopted_not_copied():
    """The block ``flush`` packs is the extent: same object, no row twin."""
    seen = []
    store = CosmosStore()
    uploader = ResultUploader(store, ME)
    uploader.set_upload_fn(
        lambda records, t: (seen.append(records), store.append(STREAM, records, t=t))
    )
    uploader.add_many(_records(*_healthy_round(1.0, 8)))
    uploader.add_many(_records(*_healthy_round(2.0, 8, offset=8)))
    assert uploader.flush(3.0)
    (block,) = seen
    assert isinstance(block, ColumnBlock) and len(block) == 16
    (extent,) = store.stream(STREAM).extents
    assert extent.adopted and extent.records is extent.columns
    assert list(block.columns) == list(RECORD_COLUMNS)
    assert all(np.shares_memory(extent.columns.columns[name], block.columns[name]) for name in RECORD_COLUMNS)
    # Rows exist while someone iterates them, and are fresh every time.
    first, second = list(extent.records), list(extent.records)
    assert first == second and first[0] is not second[0]


def test_log_lines_are_rendered_only_for_a_reader(monkeypatch):
    import repro.core.agent.uploader as uploader_module

    calls = []
    real = uploader_module._encode
    monkeypatch.setattr(
        uploader_module, "_encode", lambda value: (calls.append(1), real(value))[1]
    )
    uploader = ResultUploader(CosmosStore(), ME)
    uploader.add_many(_records(*_healthy_round(1.0, 30)))  # warms the size memo
    del calls[:]
    for index in range(1, 20):
        uploader.add_many(_records(*_healthy_round(1.0 + index, 30)))
        uploader.add(_vip_down_record(float(index), stale=False))
    assert calls == []
    assert len(uploader.local_log_lines()) == 20 * 30 + 19
    assert len(calls) == 20 * 30 + 19


@pytest.mark.parametrize("stale_first", [False, True])
def test_mixed_schema_flush_packs_null_stale_on_fresh_rows(stale_first):
    """Stale-tagged rounds beside fresh ones disagree on schema: the flush
    ships row dicts, and the store packs them into one block whose
    ``pinglist_stale`` column is ``None`` on the fresh rows."""
    pair = _Pair()
    pair.round(*_healthy_round(1.0, 3), stale=stale_first)
    pair.round(*_healthy_round(2.0, 3, offset=3), stale=not stale_first)
    pair.flush(3.0)
    (extent,) = pair.new_store.stream(STREAM).extents
    assert not extent.adopted
    assert list(extent.columns.columns) == list(RECORD_COLUMNS) + ["pinglist_stale"]
    first, second = ([True] * 3, [None] * 3) if stale_first else ([None] * 3, [True] * 3)
    assert extent.columns.columns["pinglist_stale"].tolist() == first + second


# -- batches born from the engine's ProbeBatch -----------------------------------------

_ENGINE_SPEC = TopologySpec(n_podsets=2, pods_per_podset=3, servers_per_pod=6, n_spines=4)
_ENGINE_TAGS = (("intra-pod", "high"), ("tor-level", "high"), ("tor-level", "low"))


class _Engine:
    """A lossy 36-server fabric and one agent's round, as the agent hands
    it over: entries and tags as tuples, so the round plan and its static
    columns are built once and shared."""

    def __init__(self, payload_every: int = 0) -> None:
        lossy = PROFILES["throughput"].with_drop_targets(0.05, 0.099)
        self.fabric = Fabric(
            MultiDCTopology.single(_ENGINE_SPEC), seed=3, profiles={_ENGINE_SPEC.name: lossy}
        )
        servers = self.fabric.topology.dc(0).servers
        self.servers = {server.device_id: server for server in servers}
        self.src = servers[0].device_id
        self.entries = tuple(
            (s.device_id, 81, 1200 if payload_every and i % payload_every == 0 else 0)
            for i, s in enumerate(servers[1:31])
        )
        self.tags = tuple(_ENGINE_TAGS[i % 3] for i in range(30))

    def round(self, pair: _Pair, t: float, stale: bool = False):
        probes = self.fabric.probe_many(self.src, self.entries, t=t)
        batch = pair.probes(
            probes, self.tags, stale, topology=self.fabric.topology, servers=self.servers
        )
        return probes, batch


class TestEngineBornBatches:
    def test_all_fast_rounds_with_a_timeout(self):
        """Sixty analytic rounds, a flush every ten: bare columns all the
        way, 3 s / 9 s signatures and one 21 s ``timeout`` among them."""
        engine, pair = _Engine(), _Pair()
        errors, statics = [], set()
        for index in range(60):
            probes, batch = engine.round(pair, 60.0 * index)
            assert probes._kept is None and probes.payload_rtt_s is None
            errors.append(probes.error)
            statics.add(id(batch.static))
            if index % 10 == 9:
                pair.flush(60.0 * index + 1.0)
        assert len(statics) == 1  # sixty batches, one set of static columns
        assert sum(e is None for e in errors) > 50  # mostly no error list at all
        assert [e.count("timeout") for e in errors if e is not None] == [1]
        assert pair.new.stats.records_uploaded == 1800

    def test_mixed_scalar_and_fast_rounds(self):
        """Payload entries and a black-holed ToR send some of each round to
        the scalar engine; float and ``None`` payload RTTs share a column."""
        engine, pair = _Engine(payload_every=7), _Pair()
        for index in range(4):
            if index == 2:
                apply_scenario("tor-blackhole", engine.fabric)
            probes, batch = engine.round(pair, 60.0 * index)
            kept = sum(row is not None for row in probes._kept)
            assert kept == (5 if index < 2 else 10)
            assert sum(p is not None for p in batch.payload_rtt_us) <= 5
        assert {None, "timeout"} <= {
            error for segment in pair.new._log for error in segment.item.error
        }
        pair.flush(300.0)
        (extent,) = pair.new_store.stream(STREAM).extents
        assert extent.adopted and extent.columns.columns["payload_rtt_us"].dtype == object

    def test_a_stale_round_does_not_leak_into_its_static_siblings(self):
        engine, pair = _Engine(), _Pair()
        _probes, first = engine.round(pair, 0.0)
        _probes, stale = engine.round(pair, 60.0, stale=True)
        _probes, last = engine.round(pair, 120.0)
        assert first.static is stale.static is last.static
        assert stale.stale and not first.stale and not last.stale
        assert "pinglist_stale" in stale.columns
        assert "pinglist_stale" not in first.columns and "pinglist_stale" not in last.columns
        pair.flush(130.0)  # mixed schema: row dicts, as the oracle ships them
        (extent,) = pair.new_store.stream(STREAM).extents
        assert not extent.adopted
        assert extent.columns.columns["pinglist_stale"].tolist() == [None] * 30 + [True] * 30 + [None] * 30
        rows = list(pair.new_store.read(STREAM))
        assert ["pinglist_stale" in row for row in rows] == [False] * 30 + [True] * 30 + [False] * 30

    def test_backstop_cuts_a_batch_that_shares_static_columns(self):
        engine, pair = _Engine(), _Pair(flush_threshold_records=40, max_buffer_records=70)
        _probes, first = engine.round(pair, 0.0)
        engine.round(pair, 60.0)
        engine.round(pair, 120.0)  # 90 held: 20 rows off the first batch
        assert pair.new.stats.records_discarded == 20
        head = pair.new._buffer[0]
        assert head.n == 10 and head.static is not first.static
        assert first.n == 30 and len(first.static.lists["dst"]) == 30  # the shared one is whole
        assert head.static.lists["dst"] == first.static.lists["dst"][20:]
        pair.flush(130.0)
        assert [len(e.records) for e in pair.new_store.stream(STREAM).extents] == [70]

    def test_spool_and_replay(self):
        engine = _Engine()
        pair = _Pair(spool_cap_records=100, retry_base_s=1.0, retry_cap_s=2.0, max_retries=5)
        pair.black_out(True)
        for index in range(4):
            engine.round(pair, 60.0 * index)
            pair.flush(60.0 * index + 30.0)
        assert pair.new.spooled_records == 90  # 120 into a 100-row quota
        assert pair.new.stats.records_discarded == 30
        pair.black_out(False)
        engine.round(pair, 300.0, stale=True)
        pair.flush(400.0)
        assert pair.new.spooled_records == 0
        assert pair.new.stats.records_replayed == 90
        assert pair.new.stats.records_uploaded == 120
