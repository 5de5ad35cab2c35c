"""Parametric Clos topology, after Figure 1 of the paper.

A :class:`ClosTopology` models one data center:

* ``servers_per_pod`` servers connect to one ToR switch, forming a *Pod*;
* ``pods_per_podset`` ToRs connect to ``leaves_per_podset`` Leaf switches,
  forming a *Podset*;
* ``n_podsets`` Podsets connect to ``n_spines`` Spine switches;
* a handful of border routers connect the DC to the inter-DC WAN.

A :class:`MultiDCTopology` is a set of data centers joined by a full-mesh
WAN whose per-pair propagation delays come from great-circle-ish distances
between configured geographic regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.addressing import IPv4Address
from repro.netsim.devices import Device, DeviceKind, Server, StateVersion, Switch

__all__ = [
    "TopologySpec",
    "ClosTopology",
    "MultiDCTopology",
    "REGION_COORDS",
    "SMALL_SPEC",
    "MEDIUM_SPEC",
]

# Rough (latitude, longitude) per named region, for WAN propagation delays.
REGION_COORDS: dict[str, tuple[float, float]] = {
    "us-west": (47.2, -119.9),
    "us-central": (41.6, -93.6),
    "us-east": (36.7, -78.4),
    "europe": (53.3, -6.3),
    "asia": (1.35, 103.8),
}


@dataclass(frozen=True)
class TopologySpec:
    """Dimensions and identity of one data center network.

    Defaults give a miniature but structurally faithful Clos: every code
    path (intra-pod, intra-podset, cross-podset, inter-DC) is exercised.
    """

    name: str = "dc0"
    region: str = "us-west"
    n_podsets: int = 2
    pods_per_podset: int = 4
    servers_per_pod: int = 8
    leaves_per_podset: int = 2
    n_spines: int = 4
    n_borders: int = 2
    profile_name: str = "throughput"  # key into workload profiles

    def __post_init__(self) -> None:
        for fieldname in (
            "n_podsets",
            "pods_per_podset",
            "servers_per_pod",
            "leaves_per_podset",
            "n_spines",
            "n_borders",
        ):
            value = getattr(self, fieldname)
            if value < 1:
                raise ValueError(f"{fieldname} must be >= 1, got {value}")
        if self.region not in REGION_COORDS:
            raise ValueError(
                f"unknown region {self.region!r}; known: {sorted(REGION_COORDS)}"
            )

    @property
    def n_pods(self) -> int:
        return self.n_podsets * self.pods_per_podset

    @property
    def n_servers(self) -> int:
        return self.n_pods * self.servers_per_pod


SMALL_SPEC = TopologySpec()
MEDIUM_SPEC = TopologySpec(
    name="dc-medium",
    n_podsets=4,
    pods_per_podset=10,
    servers_per_pod=20,
    leaves_per_podset=4,
    n_spines=16,
)


class ClosTopology:
    """One data center's Clos network, with device lookup tables."""

    def __init__(
        self,
        spec: TopologySpec,
        dc_index: int = 0,
        state_version: StateVersion | None = None,
    ) -> None:
        self.spec = spec
        self.dc_index = dc_index
        # Shared with the owning MultiDCTopology when there is one, so one
        # counter stamps the whole network.
        self.state_version = state_version or StateVersion()
        base = (10 + dc_index) << 24  # 10.0.0.0/8 for DC0, 11.0.0.0/8 for DC1...

        self.servers: list[Server] = []
        self.tors: list[Switch] = []  # indexed by pod index (one ToR per pod)
        self.leaves: list[list[Switch]] = []  # [podset][leaf]
        self.spines: list[Switch] = []
        self.borders: list[Switch] = []
        self._by_id: dict[str, Device] = {}

        for podset in range(spec.n_podsets):
            podset_leaves = []
            for leaf in range(spec.leaves_per_podset):
                switch = Switch(
                    device_id=f"{spec.name}/ps{podset}/leaf{leaf}",
                    kind=DeviceKind.LEAF,
                    dc_index=dc_index,
                    podset_index=podset,
                )
                podset_leaves.append(switch)
                self._register(switch)
            self.leaves.append(podset_leaves)

            for pod_in_podset in range(spec.pods_per_podset):
                pod = podset * spec.pods_per_podset + pod_in_podset
                tor = Switch(
                    device_id=f"{spec.name}/ps{podset}/tor{pod}",
                    kind=DeviceKind.TOR,
                    dc_index=dc_index,
                    podset_index=podset,
                    pod_index=pod,
                )
                self.tors.append(tor)
                self._register(tor)
                for host in range(spec.servers_per_pod):
                    index = pod * spec.servers_per_pod + host
                    server = Server(
                        device_id=f"{spec.name}/ps{podset}/pod{pod}/srv{host}",
                        kind=DeviceKind.SERVER,
                        dc_index=dc_index,
                        podset_index=podset,
                        pod_index=pod,
                        host_index=host,
                        ip=IPv4Address(base + index + 1),
                    )
                    self.servers.append(server)
                    self._register(server)

        for spine in range(spec.n_spines):
            switch = Switch(
                device_id=f"{spec.name}/spine{spine}",
                kind=DeviceKind.SPINE,
                dc_index=dc_index,
            )
            self.spines.append(switch)
            self._register(switch)

        for border in range(spec.n_borders):
            switch = Switch(
                device_id=f"{spec.name}/border{border}",
                kind=DeviceKind.BORDER,
                dc_index=dc_index,
            )
            self.borders.append(switch)
            self._register(switch)

    def _register(self, device: Device) -> None:
        if device.device_id in self._by_id:
            raise ValueError(f"duplicate device id: {device.device_id}")
        self._by_id[device.device_id] = device
        device._state_version = self.state_version

    # -- growth -----------------------------------------------------------

    def add_podset(self) -> list[Server]:
        """Grow the DC by one podset (racks landing on the floor).

        The new podset gets the spec's standard shape; returns its servers.
        The controller notices growth at its next regeneration — "the
        Pingmesh Controller ... automatically updates pinglists once
        network topology is updated" (§6.2).
        """
        spec = self.spec
        podset = len(self.leaves)  # next podset index
        base = (10 + self.dc_index) << 24
        podset_leaves = []
        for leaf in range(spec.leaves_per_podset):
            switch = Switch(
                device_id=f"{spec.name}/ps{podset}/leaf{leaf}",
                kind=DeviceKind.LEAF,
                dc_index=self.dc_index,
                podset_index=podset,
            )
            podset_leaves.append(switch)
            self._register(switch)
        self.leaves.append(podset_leaves)

        new_servers: list[Server] = []
        for pod_in_podset in range(spec.pods_per_podset):
            pod = podset * spec.pods_per_podset + pod_in_podset
            tor = Switch(
                device_id=f"{spec.name}/ps{podset}/tor{pod}",
                kind=DeviceKind.TOR,
                dc_index=self.dc_index,
                podset_index=podset,
                pod_index=pod,
            )
            self.tors.append(tor)
            self._register(tor)
            for host in range(spec.servers_per_pod):
                index = pod * spec.servers_per_pod + host
                server = Server(
                    device_id=f"{spec.name}/ps{podset}/pod{pod}/srv{host}",
                    kind=DeviceKind.SERVER,
                    dc_index=self.dc_index,
                    podset_index=podset,
                    pod_index=pod,
                    host_index=host,
                    ip=IPv4Address(base + index + 1),
                )
                self.servers.append(server)
                self._register(server)
                new_servers.append(server)

        # The spec is frozen; re-derive it with the new podset count so
        # n_pods / n_servers / pinglist generation stay consistent.
        import dataclasses

        self.spec = dataclasses.replace(spec, n_podsets=spec.n_podsets + 1)
        # Growth changes the ECMP candidate sets (new Leaf tier members) and
        # the reachable-server set: every cached path is suspect.
        self.state_version.bump()
        return new_servers

    # -- lookups ---------------------------------------------------------

    def device(self, device_id: str) -> Device:
        try:
            return self._by_id[device_id]
        except KeyError:
            raise KeyError(f"no such device in {self.spec.name}: {device_id}") from None

    def tor_of(self, server: Server) -> Switch:
        return self.tors[server.pod_index]

    def leaves_of(self, podset_index: int) -> list[Switch]:
        return self.leaves[podset_index]

    def servers_in_pod(self, pod_index: int) -> list[Server]:
        spp = self.spec.servers_per_pod
        return self.servers[pod_index * spp : (pod_index + 1) * spp]

    def servers_in_podset(self, podset_index: int) -> list[Server]:
        first_pod = podset_index * self.spec.pods_per_podset
        result: list[Server] = []
        for pod in range(first_pod, first_pod + self.spec.pods_per_podset):
            result.extend(self.servers_in_pod(pod))
        return result

    def all_switches(self) -> list[Switch]:
        switches: list[Switch] = list(self.tors)
        for podset_leaves in self.leaves:
            switches.extend(podset_leaves)
        switches.extend(self.spines)
        switches.extend(self.borders)
        return switches

    def __repr__(self) -> str:
        s = self.spec
        return (
            f"ClosTopology({s.name}: {s.n_servers} servers, {s.n_pods} pods, "
            f"{s.n_podsets} podsets, {s.n_spines} spines)"
        )


def _wan_one_way_seconds(region_a: str, region_b: str) -> float:
    """Approximate one-way WAN propagation between two regions.

    Great-circle distance at two-thirds light speed in fiber, times a 1.6
    path-stretch factor for real long-haul routes.
    """
    import math

    lat_a, lon_a = REGION_COORDS[region_a]
    lat_b, lon_b = REGION_COORDS[region_b]
    phi_a, phi_b = math.radians(lat_a), math.radians(lat_b)
    dphi = math.radians(lat_b - lat_a)
    dlambda = math.radians(lon_b - lon_a)
    a = (
        math.sin(dphi / 2) ** 2
        + math.cos(phi_a) * math.cos(phi_b) * math.sin(dlambda / 2) ** 2
    )
    distance_km = 6371.0 * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))
    fiber_speed_km_s = 2e5  # ~2/3 c
    stretch = 1.6
    return distance_km * stretch / fiber_speed_km_s


class MultiDCTopology:
    """Several data centers joined by a full-mesh WAN.

    WAN propagation is *directional*: ``wan_rtt[(i, j)]`` is the one-way
    latency attributed to packets flowing DC ``i`` → DC ``j``.  The
    constructor writes equal entries for both directions (the geographic
    default), but long-haul routes are routinely asymmetric — a reroute
    after a fiber cut can send one direction the long way around — so the
    two entries are independent and :meth:`set_wan_latency` can skew them.
    A probe's RTT over the WAN is the *sum* of the two directions' entries
    (:meth:`wan_pair_rtt`), never twice one of them.
    """

    def __init__(
        self, specs: list[TopologySpec], wan_asymmetry: float = 0.0
    ) -> None:
        if not specs:
            raise ValueError("need at least one data center spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate data center names: {names}")
        if not 0.0 <= wan_asymmetry < 1.0:
            raise ValueError(f"wan_asymmetry must be in [0, 1): {wan_asymmetry}")
        self.state_version = StateVersion()
        self.dcs: list[ClosTopology] = [
            ClosTopology(spec, dc_index=index, state_version=self.state_version)
            for index, spec in enumerate(specs)
        ]
        self._dc_by_name: dict[str, ClosTopology] = {
            dc.spec.name: dc for dc in self.dcs
        }
        # Directional one-way WAN propagation per ordered DC pair.  With
        # ``wan_asymmetry = a`` the low->high direction takes (1+a)x the
        # geographic one-way and high->low takes (1-a)x, so the pair RTT is
        # preserved while the split is visibly skewed.
        self.wan_rtt: dict[tuple[int, int], float] = {}
        for i, dc_a in enumerate(self.dcs):
            for j, dc_b in enumerate(self.dcs):
                if i < j:
                    one_way = _wan_one_way_seconds(
                        dc_a.spec.region, dc_b.spec.region
                    )
                    self.wan_rtt[(i, j)] = one_way * (1.0 + wan_asymmetry)
                    self.wan_rtt[(j, i)] = one_way * (1.0 - wan_asymmetry)

    @classmethod
    def single(cls, spec: TopologySpec | None = None) -> "MultiDCTopology":
        return cls([spec or TopologySpec()])

    # -- WAN latency -------------------------------------------------------

    def wan_pair_rtt(self, dc_a: int, dc_b: int) -> float:
        """Round-trip WAN propagation between two DCs (0.0 within one DC)."""
        if dc_a == dc_b:
            return 0.0
        return self.wan_rtt[(dc_a, dc_b)] + self.wan_rtt[(dc_b, dc_a)]

    def dc(self, name_or_index: str | int) -> ClosTopology:
        if isinstance(name_or_index, int):
            return self.dcs[name_or_index]
        try:
            return self._dc_by_name[name_or_index]
        except KeyError:
            raise KeyError(f"no such data center: {name_or_index}") from None

    def device(self, device_id: str) -> Device:
        dc_name = device_id.split("/", 1)[0]
        return self.dc(dc_name).device(device_id)

    def server(self, device_id: str) -> Server:
        device = self.device(device_id)
        if not isinstance(device, Server):
            raise TypeError(f"{device_id} is a {device.kind.value}, not a server")
        return device

    def all_servers(self) -> list[Server]:
        servers: list[Server] = []
        for dc in self.dcs:
            servers.extend(dc.servers)
        return servers

    @property
    def n_servers(self) -> int:
        return sum(dc.spec.n_servers for dc in self.dcs)

    def __repr__(self) -> str:
        return f"MultiDCTopology({[dc.spec.name for dc in self.dcs]}, {self.n_servers} servers)"
