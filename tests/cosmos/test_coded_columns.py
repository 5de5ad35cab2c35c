"""Coded text columns: int32 codes into a vocabulary, read as their values.

Every verb on a coded block gives what the same rows packed from dicts
give; the codes stay codes through the verbs that keep a column, and only
what leaves the engine is decoded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import CODED_COLUMNS, LATENCY_STREAM
from repro.core.dsa.scope_jobs import window_rows
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.cosmos.columnar import ColumnBlock, Vocabulary, concat_blocks
from repro.cosmos.scope import RowSet, agg, col, extract
from repro.cosmos.store import CosmosStore
from repro.netsim.topology import TopologySpec

# First seen is not sorted order: "zeta" gets code 0, "alpha" code 1.
_SERVERS = ("zeta/s1", "alpha/s0", "mid/s9", "alpha/s10", "zeta/s0")


def _rows(n: int = 60) -> list[dict]:
    return [
        {
            "t": float(i),
            "src": _SERVERS[i % 5],
            "dst": _SERVERS[(i * 3 + 1) % 5],
            "purpose": ("tor-level", "intra-pod")[i % 2],
            "success": i % 7 != 3,
            "rtt_us": 100.0 + (i * 37) % 251,
        }
        for i in range(n)
    ]


def _coded(rows: list[dict], vocab: Vocabulary | None = None) -> ColumnBlock:
    """The rows packed as the store packs dicts, then their text coded."""
    plain = ColumnBlock.from_records(rows)
    vocab = Vocabulary() if vocab is None else vocab
    names = ("src", "dst", "purpose")
    columns = {
        name: vocab.encode(arr.tolist()) if name in names else arr
        for name, arr in plain.columns.items()
    }
    return ColumnBlock(columns, plain.n, dict.fromkeys(names, vocab))


@pytest.fixture()
def pair():
    rows = _rows()
    coded = _coded(rows)
    assert coded.columns["src"].dtype == np.int32
    return RowSet.from_columns(coded.columns, coded.vocab), RowSet(rows)


def test_vocabulary_codes_are_first_appearance_order():
    vocab = Vocabulary()
    assert vocab.encode(["b", "a", "b", "c"]).tolist() == [0, 1, 0, 2]
    assert vocab.decode(np.array([2, 0, 1])).tolist() == ["c", "b", "a"]
    assert vocab.encode(["c", "d"]).tolist() == [2, 3]  # append-only
    assert vocab.decode(np.array([3, 1])).tolist() == ["d", "a"]


def test_where_against_a_literal_and_isin(pair):
    coded, plain = pair
    for predicate in (
        col("src") == "alpha/s0",
        col("src") != col("dst"),
        col("src").isin({"zeta/s1", "mid/s9"}) & col("success"),
    ):
        kept = coded.where(predicate)
        assert kept.output() == plain.where(predicate).output()
        assert kept._block.columns["src"].dtype == np.int32  # still coded


def test_group_by_src_dst_and_order_by_src(pair):
    coded, plain = pair

    def grouped(rows):
        return rows.group_by("src", "dst").aggregate(
            probes=agg.count(),
            p50=agg.percentile("rtt_us", 50),
            answered=agg.count_if(col("success") & (col("dst") != "mid/s9")),
        )

    assert grouped(coded).output() == grouped(plain).output()
    assert grouped(coded)._block.columns["dst"].dtype == np.int32
    for desc in (False, True):
        assert coded.order_by("src", desc=desc).output() == plain.order_by(
            "src", desc=desc
        ).output()
    assert coded.order_by("src").column("src")[0] == "alpha/s0"


def test_an_aggregate_named_like_a_key_is_not_decoded(pair):
    coded, plain = pair
    assert (
        coded.group_by("src").aggregate(src=agg.count()).output()
        == plain.group_by("src").aggregate(src=agg.count()).output()
    )


def test_select_take_column_output(pair):
    coded, plain = pair
    for rows in (coded, plain):
        assert rows.column("src") == [row["src"] for row in _rows()]
    assert coded.select("src", "rtt_us").output() == plain.select("src", "rtt_us").output()
    assert (
        coded.select("purpose", src=col("dst"), both=col("src") == col("dst")).output()
        == plain.select("purpose", src=col("dst"), both=col("src") == col("dst")).output()
    )
    assert list(coded) == list(plain) == _rows()


def test_store_read_and_size_bytes():
    rows = _rows(25)
    coded = _coded(rows)
    assert coded.size_bytes() == ColumnBlock.from_records(rows).size_bytes()
    store = CosmosStore(extent_max_records=10)
    store.append("coded", coded, t=1.0)
    store.append("plain", rows, t=1.0)
    assert store.bytes_ingested == 2 * ColumnBlock.from_records(rows).size_bytes()
    assert list(store.read("coded")) == list(store.read("plain")) == rows
    assert list(store.read_where("coded", lambda r: r["src"] == "mid/s9")) == [
        row for row in rows if row["src"] == "mid/s9"
    ]


def test_a_coded_block_meets_a_plain_one():
    first, second = _rows(10), _rows(20)[10:]
    mixed = concat_blocks([_coded(first), ColumnBlock.from_records(second)])
    assert not mixed.vocab and mixed.columns["src"].dtype.kind == "U"
    assert mixed.to_rows() == first + second
    # Two vocabularies are decoded too; one shared vocabulary is not.
    assert not concat_blocks([_coded(first), _coded(second)]).vocab
    vocab = Vocabulary()
    shared = concat_blocks([_coded(first, vocab), _coded(second, vocab)])
    assert shared.columns["src"].dtype == np.int32 and shared.to_rows() == first + second


# -- the record path ------------------------------------------------------------

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4, n_spines=2)


def _system() -> PingmeshSystem:
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC,),
            seed=4,
            agent=AgentConfig(round_mode="fast", upload_period_s=120.0),
            dsa=DsaConfig(ingestion_delay_s=0.0),
        )
    )
    system.start()
    return system


def test_a_window_concatenates_codes_without_decoding(monkeypatch):
    system = _system()
    system.run_for(700.0)
    extents = system.store.stream(LATENCY_STREAM).extents
    assert len(extents) > 1 and all(extent.adopted for extent in extents)
    decoded = []
    real = Vocabulary.decode
    monkeypatch.setattr(Vocabulary, "decode", lambda *a: (decoded.append(1), real(*a))[1])
    window = window_rows(system.store, 0.0, system.clock.now)
    assert decoded == []
    block = window._block
    assert set(block.vocab) == set(CODED_COLUMNS)
    assert all(block.columns[name].dtype == np.int32 for name in CODED_COLUMNS)
    assert len(window) == system.store.stream(LATENCY_STREAM).record_count


def test_extract_masks_extents_before_it_concatenates():
    vocab, rows = Vocabulary(), _rows(40)
    store = CosmosStore()
    store.append("s", _coded(rows[:20], vocab), t=0.0)
    whole = extract(store, "s", col("t") < 100.0)
    extent = store.stream("s").extents[0].columns
    assert np.shares_memory(whole._block.columns["src"], extent.columns["src"])  # no copy
    store.append("s", _coded(rows[20:], vocab), t=1.0)
    window = extract(store, "s", (col("t") >= 5.0) & (col("t") < 30.0))
    assert window.output() == rows[5:30]
    assert window._block.vocab["src"] is vocab


def test_growing_the_topology_keeps_stored_ids():
    system = _system()
    system.run_for(300.0)
    for agent in system.agents.values():
        agent.uploader.flush(system.clock.now, force=True)
    extents = list(system.store.stream(LATENCY_STREAM).extents)
    before = [list(extent.records) for extent in extents]
    codes = [extent.columns.columns["dst"].copy() for extent in extents]
    new_ids = system.add_podset()
    system.run_for(300.0)
    assert [list(extent.records) for extent in extents] == before
    assert all(
        np.array_equal(extent.columns.columns["dst"], old) for extent, old in zip(extents, codes)
    )
    rows = list(system.store.read(LATENCY_STREAM))
    assert {row["src"] for row in rows} >= set(new_ids)
