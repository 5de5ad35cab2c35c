"""The record path, held to recorded fingerprints — not to a twin.

What a stored probe record reads as, and every result the DSA jobs derive
from it, is pinned here as sha256 literals, recorded at commit 2c0b85d —
where ``src``, ``dst``, ``purpose`` and ``qos`` were stored as fixed-width
strings and ``extract`` concatenated a window before filtering it — before
any source edit (``python tests/core/test_record_fingerprint.py`` prints
them).  The system is the one ``bench_record_path`` builds (256 servers,
fast rounds, every probe a record, no ingestion delay) plus one service,
so the hourly job's per-service filter on ``src`` runs too.  At two seeds,
after eleven minutes of rounds, a forced flush, then the 10-minute, the
hourly and the daily job:

* every ``store.read()`` row of ``pingmesh/latency`` and
  ``pingmesh/latency-class``, values and key order, as ``repr`` prints them
  (a numpy scalar where a Python one was reads differently);
* ``bytes_ingested`` and ``records_ingested`` (the one value that has
  moved, see :data:`PINNED`);
* every results-database table, row for row.

No copy of an old implementation lives in this file.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import CLASS_STREAM, LATENCY_STREAM
from repro.core.dsa.sla import ServiceDefinition
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec

_SPEC = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8)
_SEEDS = (1, 7)
_SERVICE = ServiceDefinition.of(
    "search",
    [f"{_SPEC.name}/ps{ps}/pod{pod}/srv{s}" for ps, pod in ((0, 0), (1, 5)) for s in range(16)],
)


def run_system(seed: int) -> PingmeshSystem:
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC,),
            seed=seed,
            agent=AgentConfig(round_mode="fast"),
            dsa=DsaConfig(ingestion_delay_s=0.0),
            services=(_SERVICE,),
        )
    )
    system.start()
    system.run_for(660.0)
    now = system.clock.now
    for agent in system.agents.values():
        agent.uploader.flush(now, force=True)
    system.dsa.run_10min_job(now)
    system.dsa.run_hourly_job(now)
    system.dsa.run_daily_job(now)
    return system


def fingerprint(system: PingmeshSystem) -> dict[str, str]:
    """One digest per thing a reader can see."""
    store, database = system.store, system.database
    digests = {}
    for stream in (LATENCY_STREAM, CLASS_STREAM):
        digest = hashlib.sha256(repr(store.has_stream(stream)).encode())
        if store.has_stream(stream):
            for row in store.read(stream):
                digest.update(repr(row).encode())
        digests[stream] = digest.hexdigest()
    digests["ingested"] = repr((store.bytes_ingested, store.records_ingested))
    for table in database.tables():
        digest = hashlib.sha256()
        for row in database.query(table):
            digest.update(repr(row).encode())
        digests[f"table:{table}"] = digest.hexdigest()
    return digests


# Recorded at commit 2c0b85d, before any source edit.  Two values have moved
# since, on purpose: ``ingested``'s byte count, once, when ``size_bytes``
# stopped writing floats out to measure them (22,947,906 and 22,948,115 B at
# the parent; the float columns' lengths are now worked out arithmetically),
# and ``table:patterns_10min``, when the empty t=600 window stopped reading
# as ``podset-down [0, 1, 2, 3]`` (was 6ec6ef28...; now "no per-pair data").
PINNED: dict[int, dict[str, str]] = {
    1: {
        "ingested": "(22996218, 84510)",
        "pingmesh/latency": "3aaaab5e38464042e1d3d65bb6c0eeb99f9905abe37662db565ada1da1222ccd",
        "pingmesh/latency-class": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "table:blackhole_daily": "402190f7b89bd620487924e03cb15cfaec58218a467dde4ba76e4441d4349e4c",
        "table:drop_daily": "672d80043f7e5f72a60e17bddf86503e6f6795796db178594309870d4800a203",
        "table:patterns_10min": "baec0b2acc272e7541a097b1e444b3a173e090ca8f3856a674c85ac888991c04",
        "table:podpair_10min": "5b5a2c2b96bda16a6cce1a8a95562837d7d20f2a9448ab54d9dce1e3e14b24ec",
        "table:sla_hourly": "329808c23d921ed542ee28fad71bf3545537e5fea09ac08a61e999018433e10c",
    },
    7: {
        "ingested": "(22996218, 84510)",
        "pingmesh/latency": "aab32ecee34e9cedbf06d7b1090a7c4f890783da8bea21e475c60ea483d120cd",
        "pingmesh/latency-class": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "table:blackhole_daily": "402190f7b89bd620487924e03cb15cfaec58218a467dde4ba76e4441d4349e4c",
        "table:drop_daily": "27c9dfcb02ec2c7629d1a447009d9adf0fe6a2c53ad3a0efa0bc15512ec5b7e6",
        "table:patterns_10min": "baec0b2acc272e7541a097b1e444b3a173e090ca8f3856a674c85ac888991c04",
        "table:podpair_10min": "8162778ac30eb61e7e11d655cbdf99e0669fb3b0d108bcbfa0f75df977305a24",
        "table:sla_hourly": "9b72d0f9c65703a1c6b1df13d2fa8e89940ace7ffa1d9554e077915bf30956cb",
    },
}


@pytest.fixture(scope="module", params=_SEEDS)
def seeded(request):
    return request.param, run_system(request.param)


def test_record_fingerprint_is_the_parents(seeded):
    seed, system = seeded
    assert fingerprint(system) == PINNED[seed]


def test_the_pins_cover_every_job(seeded):
    """What the pins claim to cover was written: a per-service SLA, and a
    table from each of the three jobs."""
    _seed, system = seeded
    database = system.database
    for table in ("podpair_10min", "sla_hourly", "drop_daily", "blackhole_daily"):
        assert database.row_count(table) > 0, table
    assert [row["key"] for row in database.query("sla_hourly") if row["scope"] == "service"] == [
        "search"
    ]


if __name__ == "__main__":
    import pprint

    pprint.pprint({seed: fingerprint(run_system(seed)) for seed in _SEEDS}, width=120)
