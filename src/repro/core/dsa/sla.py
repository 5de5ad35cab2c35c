"""Network SLA definition and tracking (§4.3).

"We define network SLA as a set of metrics including packet drop rate,
network latency at the 50th percentile and the 99th percentile.  Network SLA
can then be tracked at different scopes including per server, per
pod/podset, per service, per data center."

An SLA is computed from a window of latency records.  Services are mapped to
the servers they run on (§1: "The network SLAs for all the services and
applications are calculated by mapping the services and applications to the
servers they use").

Every scope is a ``where / group_by / aggregate`` over the window's
:class:`~repro.cosmos.scope.RowSet`, so the window the pipeline extracts is
reduced in place — masks, one sort per scope, segmented reductions — and
only the SLAs themselves ever become Python objects.  A plain
``list[dict]`` is packed into a ``RowSet`` once, on entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.dsa.drop_inference import drop_rate_aggregate
from repro.cosmos.scope import RowSet, agg, col, lit

__all__ = ["SlaScope", "NetworkSla", "ServiceDefinition", "SlaTracker"]

Row = dict[str, Any]


class SlaScope(enum.Enum):
    SERVER = "server"
    POD = "pod"
    PODSET = "podset"
    DATACENTER = "datacenter"
    DC_PAIR = "dc-pair"
    SERVICE = "service"


@dataclass(frozen=True)
class NetworkSla:
    """One scope's SLA over one window."""

    scope: SlaScope
    key: str
    window_start: float
    window_end: float
    probe_count: int
    drop_rate: float
    p50_us: float | None
    p99_us: float | None

    def as_row(self) -> Row:
        return {
            "scope": self.scope.value,
            "key": self.key,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "t": self.window_end,
            "probe_count": self.probe_count,
            "drop_rate": self.drop_rate,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        }

    @classmethod
    def from_row(cls, row: Row) -> "NetworkSla":
        """The SLA an :meth:`as_row` row was written from."""
        return cls(
            SlaScope(row["scope"]), row["key"], row["window_start"], row["window_end"],
            row["probe_count"], row["drop_rate"], row["p50_us"], row["p99_us"],
        )


@dataclass(frozen=True)
class ServiceDefinition:
    """A service is the set of servers it runs on."""

    name: str
    server_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.server_ids:
            raise ValueError(f"service {self.name!r} has no servers")

    @classmethod
    def of(cls, name: str, server_ids: Iterable[str]) -> "ServiceDefinition":
        return cls(name=name, server_ids=frozenset(server_ids))


# The aggregation key of a record at each scope (source-side attribution:
# each server measures its own view of the network, §3.3.1): the columns
# that make it, and how their values spell the SLA's key.
_SCOPE_KEYS: dict[SlaScope, tuple[tuple[str, ...], Callable[..., str]]] = {
    SlaScope.SERVER: (("src",), lambda src: src),
    SlaScope.POD: (("src_dc", "src_pod"), lambda dc, pod: f"dc{dc}/pod{pod}"),
    SlaScope.PODSET: (("src_dc", "src_podset"), lambda dc, ps: f"dc{dc}/ps{ps}"),
    SlaScope.DATACENTER: (("src_dc",), lambda dc: f"dc{dc}"),
    SlaScope.DC_PAIR: (("src_dc", "dst_dc"), lambda src, dst: f"dc{src}->dc{dst}"),
}

# True for inter-DC records.  Rows without a ``dst_dc`` column (older
# fixtures, synthetic rows) are treated as intra-DC.
_CROSSES_DC = col("dst_dc", default=col("src_dc")) != col("src_dc")


def _group_slas(
    rows: RowSet,
    keys: tuple[str, ...],
    spell: Callable[..., str],
    scope: SlaScope,
    window_start: float,
    window_end: float,
) -> list[NetworkSla]:
    """One SLA per distinct value of ``keys``, sorted by spelled key.

    Counts and the §4.2 drop rate are over all of a group's probes,
    latency percentiles over its successful ones — ``None`` for a group
    without any.
    """
    if not rows:
        return []
    totals = (
        rows.group_by(*keys)
        .aggregate(probe_count=agg.count(), drop_rate=drop_rate_aggregate())
        .output()
    )
    successful = (
        rows.select(*keys, "success", "rtt_us").where(col("success"))
        .group_by(*keys)
        .aggregate(
            p50_us=agg.percentile("rtt_us", 50), p99_us=agg.percentile("rtt_us", 99)
        )
        .output()
    )
    latency = {tuple(row[key] for key in keys): row for row in successful}
    no_success = {"p50_us": None, "p99_us": None}
    slas = []
    for row in totals:
        group = tuple(row[key] for key in keys)
        percentiles = latency.get(group, no_success)
        slas.append(
            NetworkSla(
                scope=scope,
                key=spell(*group),
                window_start=window_start,
                window_end=window_end,
                probe_count=row["probe_count"],
                drop_rate=row["drop_rate"],
                p50_us=percentiles["p50_us"],
                p99_us=percentiles["p99_us"],
            )
        )
    slas.sort(key=lambda sla: sla.key)
    return slas


def compute_sla(
    rows: RowSet | Iterable[Row],
    scope: SlaScope,
    key: str,
    window_start: float,
    window_end: float,
) -> NetworkSla:
    """Aggregate one group of records into an SLA."""
    slas = _group_slas(
        RowSet.of(rows).select("success", "rtt_us", key=lit(key)),
        ("key",),
        str,
        scope,
        window_start,
        window_end,
    )
    if slas:
        return slas[0]
    return NetworkSla(scope, key, window_start, window_end, 0, 0.0, None, None)


class SlaTracker:
    """Computes SLAs over latency-record windows at every scope."""

    def __init__(self, services: Iterable[ServiceDefinition] = ()) -> None:
        self._services: dict[str, ServiceDefinition] = {}
        for service in services:
            self.register_service(service)

    def register_service(self, service: ServiceDefinition) -> None:
        if service.name in self._services:
            raise ValueError(f"service already registered: {service.name}")
        self._services[service.name] = service

    def services(self) -> list[str]:
        return sorted(self._services)

    # -- computation --------------------------------------------------------

    def track_scope(
        self,
        rows: RowSet | list[Row],
        scope: SlaScope,
        window_start: float,
        window_end: float,
    ) -> list[NetworkSla]:
        """One SLA per distinct key at ``scope`` (not SERVICE).

        Inter-DC records belong exclusively to the DC_PAIR scope: a healthy
        long-haul probe pays ~10-400 ms of speed-of-light RTT, so merging it
        into an intra-DC percentile would trip the 5 ms threshold on a
        perfectly healthy fabric.  Every other scope sees intra-DC rows only.
        """
        if scope == SlaScope.SERVICE:
            return self.track_services(rows, window_start, window_end)
        keys, spell = _SCOPE_KEYS[scope]
        in_scope = _CROSSES_DC if scope == SlaScope.DC_PAIR else ~_CROSSES_DC
        return _group_slas(
            RowSet.of(rows).where(in_scope),
            keys,
            spell,
            scope,
            window_start,
            window_end,
        )

    def track_services(
        self, rows: RowSet | list[Row], window_start: float, window_end: float
    ) -> list[NetworkSla]:
        """Per-service SLAs: a record belongs to a service when its *source*
        server runs that service.  Inter-DC rows are excluded — the service
        threshold is the intra-DC one, and a service whose pivot servers
        probe across DCs would otherwise read as breached while healthy."""
        if not self._services:
            return []
        intra = RowSet.of(rows).where(~_CROSSES_DC)
        slas = []
        for name, service in sorted(self._services.items()):
            service_rows = intra.where(col("src").isin(service.server_ids))
            if service_rows:
                slas.append(
                    compute_sla(
                        service_rows,
                        SlaScope.SERVICE,
                        name,
                        window_start,
                        window_end,
                    )
                )
        return slas

    def track_all(
        self, rows: RowSet | list[Row], window_start: float, window_end: float
    ) -> list[NetworkSla]:
        """Every scope, one pass — the macro and micro levels of §1."""
        rows = RowSet.of(rows)
        slas: list[NetworkSla] = []
        for scope in (
            SlaScope.DATACENTER,
            SlaScope.DC_PAIR,
            SlaScope.PODSET,
            SlaScope.POD,
            SlaScope.SERVER,
        ):
            slas.extend(self.track_scope(rows, scope, window_start, window_end))
        slas.extend(self.track_services(rows, window_start, window_end))
        return slas
