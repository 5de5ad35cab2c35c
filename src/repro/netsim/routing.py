"""Path computation with ECMP five-tuple hashing.

The fabric is a folded Clos (Figure 1): server → ToR → Leaf → Spine → Leaf →
ToR → server within a DC, plus border routers and the WAN across DCs.  At
every tier with multiple equal-cost next hops the switch picks one by hashing
the five-tuple (§2.1), salted per tier/stage so paths do not polarize.

Routing excludes devices that are DOWN or ISOLATED — the routing protocol
withdraws them — but it happily routes *through* a faulty-but-up switch,
which is exactly what makes black-holes and silent random drops hard to
find (§5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.netsim.addressing import FiveTuple
from repro.netsim.devices import DeviceKind, Server, Switch
from repro.netsim.faults import wan_link_id
from repro.netsim.topology import ClosTopology, MultiDCTopology

__all__ = [
    "PathScope",
    "Path",
    "PodRoute",
    "Router",
    "NoRouteError",
    "SCOPE_HOP_KINDS",
]

# Per-stage ECMP hash salts; using distinct salts per decision point mirrors
# production practice of seeding each switch's hash differently.
_SALT_UP_LEAF = 0x1EAF
_SALT_UP_SPINE = 0x59135
_SALT_DOWN_LEAF = 0xD1EAF
_SALT_BORDER_SRC = 0xB0B0
_SALT_BORDER_DST = 0xB0B1
_SALT_SPINE_DST = 0x59136


class NoRouteError(Exception):
    """No live path exists between the endpoints."""


class PathScope(enum.Enum):
    """How far apart the endpoints are; drives latency/drop composition."""

    SAME_HOST = "same-host"
    INTRA_POD = "intra-pod"
    INTRA_PODSET = "intra-podset"
    INTRA_DC = "intra-dc"
    INTER_DC = "inter-dc"


@dataclass
class Path:
    """A one-way path: the ordered switches a packet traverses.

    ``wan_rtt`` is the one-way WAN propagation *this direction* pays —
    ``topology.wan_rtt[(src_dc, dst_dc)]`` — and 0 inside one DC.  The two
    directions of a probe may differ (asymmetric long-haul routing), so a
    probe's RTT composes ``forward.wan_rtt + reverse.wan_rtt``, never twice
    either one.
    """

    src: Server
    dst: Server
    scope: PathScope
    hops: list[Switch] = field(default_factory=list)
    wan_rtt: float = 0.0
    _hop_id_tuple: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def hop_id_tuple(self) -> tuple[str, ...]:
        """The hops' device ids, built once: a path is cached per ECMP
        bucket and every probe along it reports the same tuple."""
        ids = self._hop_id_tuple
        if ids is None:
            ids = self._hop_id_tuple = tuple([hop.device_id for hop in self.hops])
        return ids

    def hop_ids(self) -> list[str]:
        return list(self.hop_id_tuple)

    def __repr__(self) -> str:
        route = " -> ".join(self.hop_ids()) or "(direct)"
        return f"Path({self.src.device_id} => {self.dst.device_id} [{self.scope.value}]: {route})"


# The switch-kind sequence of a forward path, per scope.  Matches
# Router.uncached_path hop-for-hop: every ECMP candidate at a decision
# point sits in the same tier, so the *kind* sequence is scope-determined
# even though the concrete switches are not.  Every sequence is a
# palindrome, so the reverse path has the identical sequence — which is
# what lets the class-round engine compute attempt-drop probabilities
# without materializing a single Path.
SCOPE_HOP_KINDS: dict[PathScope, tuple[DeviceKind, ...]] = {
    PathScope.SAME_HOST: (),
    PathScope.INTRA_POD: (DeviceKind.TOR,),
    PathScope.INTRA_PODSET: (DeviceKind.TOR, DeviceKind.LEAF, DeviceKind.TOR),
    PathScope.INTRA_DC: (
        DeviceKind.TOR,
        DeviceKind.LEAF,
        DeviceKind.SPINE,
        DeviceKind.LEAF,
        DeviceKind.TOR,
    ),
    PathScope.INTER_DC: (
        DeviceKind.TOR,
        DeviceKind.LEAF,
        DeviceKind.SPINE,
        DeviceKind.BORDER,
        DeviceKind.BORDER,
        DeviceKind.SPINE,
        DeviceKind.LEAF,
        DeviceKind.TOR,
    ),
}


def classify_scope(topology: MultiDCTopology, src: Server, dst: Server) -> PathScope:
    """Determine the topological relationship of two servers."""
    if src.device_id == dst.device_id:
        return PathScope.SAME_HOST
    if src.dc_index != dst.dc_index:
        return PathScope.INTER_DC
    if src.pod_index == dst.pod_index:
        return PathScope.INTRA_POD
    if src.podset_index == dst.podset_index:
        return PathScope.INTRA_PODSET
    return PathScope.INTRA_DC


def _pick(candidates: list[Switch], flow: FiveTuple, salt: int) -> Switch:
    """ECMP choice among live candidates; raises if none are live."""
    live = [switch for switch in candidates if switch.is_up]
    if not live:
        raise NoRouteError("all candidate next-hops are down")
    if len(live) == 1:
        return live[0]
    return live[flow.ecmp_hash(salt) % len(live)]


@dataclass(frozen=True, eq=False)
class PodRoute:
    """Everything about routing (src pod -> dst pod) that no flow changes.

    One record per ordered pod pair per routing generation, shared by every
    server pair and every probe between the two pods: :meth:`Router.path`
    hashes a flow against ``tiers``, the fabric's scalar/fast partition and
    class plans read ``routable`` and ``envelope``.  ``tiers`` are the
    ordered ECMP decision points as ``(live switches, salt)``; the live
    tuples are shared between records.  ``envelope`` holds the id of every
    device *any* ECMP choice can cross in either direction — candidates
    that are down included, and both WAN direction keys — because a fault
    check must be conservative.  For two distinct servers; a same-host
    pair has no route to look up.
    """

    scope: PathScope
    n_hops: int
    src_tor: Switch
    dst_tor: Switch
    tiers: tuple[tuple[tuple[Switch, ...], int], ...]
    wan_fwd: float  # one-way WAN propagation src DC -> dst DC (0 intra-DC)
    wan_rev: float
    envelope: frozenset[str]
    routable: bool  # both ToRs up and no tier empty


class Router:
    """Computes forward paths over a :class:`MultiDCTopology`.

    Flow-independent facts live in a pod-pair route table
    (:class:`PodRoute`, filled lazily); a path is then one table lookup,
    one ECMP hash per tier, and — for a bucket not seen this generation —
    direct hop assembly.  Paths are memoized per ``(src, dst,
    ecmp_bucket)``, where the bucket is the tuple of per-tier ECMP hash
    decisions the flow implies — so the agents' source-port sweep still
    lands on (and caches) every distinct path, it just never recomputes
    one.  Both are stamped with the topology's
    :class:`~repro.netsim.devices.StateVersion`: the route table and its
    live-tier memo with the routing generation, so a fault change or a
    server flip keeps every :class:`PodRoute` record; the path cache with
    the state generation, so it empties on every change and holds only the
    paths one generation probed.  Liveness is frozen within a routing
    generation, which is what makes a cached path provably identical to a
    fresh :meth:`uncached_path` computation.
    """

    def __init__(self, topology: MultiDCTopology) -> None:
        self.topology = topology
        self._state_version = topology.state_version
        self._cache_version = -1
        self._routing_version = -1
        self._path_cache: dict[tuple[str, str, tuple[int, ...]], Path] = {}
        self._routes: dict[tuple[int, int, int, int], PodRoute] = {}
        self._live_cache: dict[int, tuple[Switch, ...]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache plumbing ----------------------------------------------------

    def _check_generation(self) -> None:
        version = self._state_version
        if version.value != self._cache_version:
            self._path_cache.clear()
            self._cache_version = version.value
            if version.routing != self._routing_version:
                self._routes.clear()
                self._live_cache.clear()
                self._routing_version = version.routing

    def _live(self, candidates: list[Switch]) -> tuple[Switch, ...]:
        """Live members of a stable candidate list, per routing generation.

        Keyed by list identity: the candidate lists (``dc.spines``,
        ``dc.borders``, ``dc.leaves[podset]``) are owned by the topology and
        stay alive for its lifetime, so ids cannot be recycled while cached.
        """
        key = id(candidates)
        live = self._live_cache.get(key)
        if live is None:
            live = tuple(switch for switch in candidates if switch.is_up)
            self._live_cache[key] = live
        return live

    def pod_route(self, src: Server, dst: Server) -> PodRoute:
        """The route-table record of two *distinct* servers' pod pair."""
        self._check_generation()
        key = (src.dc_index, src.pod_index, dst.dc_index, dst.pod_index)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._build_route(src, dst)
        return route

    def _build_route(self, src: Server, dst: Server) -> PodRoute:
        scope = classify_scope(self.topology, src, dst)
        src_dc = self.topology.dc(src.dc_index)
        dst_dc = self.topology.dc(dst.dc_index)
        src_tor, dst_tor = src_dc.tor_of(src), dst_dc.tor_of(dst)
        # The ordered ECMP decision points, exactly as uncached_path picks.
        points: list[tuple[list[Switch], int]] = []
        if scope is not PathScope.INTRA_POD:
            points.append((src_dc.leaves_of(src.podset_index), _SALT_UP_LEAF))
        if scope in (PathScope.INTRA_DC, PathScope.INTER_DC):
            points.append((src_dc.spines, _SALT_UP_SPINE))
            if scope is PathScope.INTER_DC:
                points.append((src_dc.borders, _SALT_BORDER_SRC))
                points.append((dst_dc.borders, _SALT_BORDER_DST))
                points.append((dst_dc.spines, _SALT_SPINE_DST))
            points.append((dst_dc.leaves_of(dst.podset_index), _SALT_DOWN_LEAF))
        envelope = {src_tor.device_id, dst_tor.device_id}
        for candidates, _salt in points:
            envelope.update(switch.device_id for switch in candidates)
        wan_fwd = wan_rev = 0.0
        if scope is PathScope.INTER_DC:
            there, back = (src.dc_index, dst.dc_index), (dst.dc_index, src.dc_index)
            wan_fwd, wan_rev = self.topology.wan_rtt[there], self.topology.wan_rtt[back]
            envelope.update((wan_link_id(*there), wan_link_id(*back)))
        tiers = tuple((self._live(candidates), salt) for candidates, salt in points)
        return PodRoute(
            scope=scope,
            n_hops=len(SCOPE_HOP_KINDS[scope]),
            src_tor=src_tor,
            dst_tor=dst_tor,
            tiers=tiers,
            wan_fwd=wan_fwd,
            wan_rev=wan_rev,
            envelope=frozenset(envelope),
            routable=src_tor.is_up
            and dst_tor.is_up
            and all(live for live, _salt in tiers),
        )

    def ecmp_bucket(
        self, src: Server, dst: Server, flow: FiveTuple
    ) -> tuple[int, ...]:
        """The tuple of per-tier hash decisions ``flow`` makes for this pair.

        Two flows with the same bucket take the same path within one state
        generation.  The bucket is finite because the ephemeral port range
        is: a full source-port sweep revisits the same bucket set.  Raises
        :class:`NoRouteError` when routing has no live path.
        """
        if src.device_id == dst.device_id:
            return ()
        return self._bucket_for(self.pod_route(src, dst), flow)

    @staticmethod
    def _bucket_for(route: PodRoute, flow: FiveTuple) -> tuple[int, ...]:
        if not route.routable:
            raise NoRouteError("a ToR or a whole ECMP tier on the route is down")
        return tuple(
            [
                flow.ecmp_hash(salt) % len(live) if len(live) > 1 else 0
                for live, salt in route.tiers
            ]
        )

    # -- path computation ---------------------------------------------------

    def path(self, src: Server, dst: Server, flow: FiveTuple) -> Path:
        """The one-way path of a packet with ``flow`` from ``src`` to ``dst``.

        Cached per ``(src, dst, ecmp_bucket)``; semantics are identical to
        :meth:`uncached_path`, which computes every path from scratch.
        Raises :class:`NoRouteError` when routing has no live path (e.g. the
        whole Leaf tier of a podset is down).  A *faulty* switch that is
        still up is part of the path — faults are applied downstream.
        """
        if src.device_id == dst.device_id:
            return Path(src, dst, PathScope.SAME_HOST)
        route = self.pod_route(src, dst)
        bucket = self._bucket_for(route, flow)
        key = (src.device_id, dst.device_id, bucket)
        cached = self._path_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        hops = [route.src_tor]
        for (live, _salt), choice in zip(route.tiers, bucket):
            hops.append(live[choice])
        if route.scope is not PathScope.INTRA_POD:
            hops.append(route.dst_tor)
        path = self._path_cache[key] = Path(src, dst, route.scope, hops, route.wan_fwd)
        return path

    def uncached_path(self, src: Server, dst: Server, flow: FiveTuple) -> Path:
        """Reference implementation: compute the path from scratch.

        This is the ground truth the cache is verified against (the path
        cache property test asserts cached == uncached across random fault
        and growth sequences).
        """
        scope = classify_scope(self.topology, src, dst)
        if scope == PathScope.SAME_HOST:
            return Path(src, dst, scope)

        src_dc = self.topology.dc(src.dc_index)
        dst_dc = self.topology.dc(dst.dc_index)
        hops: list[Switch] = []

        src_tor = src_dc.tor_of(src)
        if not src_tor.is_up:
            raise NoRouteError(f"source ToR {src_tor.device_id} is down")
        hops.append(src_tor)

        if scope == PathScope.INTRA_POD:
            return Path(src, dst, scope, hops)

        if scope == PathScope.INTRA_PODSET:
            leaf = _pick(src_dc.leaves_of(src.podset_index), flow, _SALT_UP_LEAF)
            hops.append(leaf)
            hops.append(self._dst_tor(dst_dc, dst))
            return Path(src, dst, scope, hops)

        # Up through the source podset to the spine tier.
        up_leaf = _pick(src_dc.leaves_of(src.podset_index), flow, _SALT_UP_LEAF)
        hops.append(up_leaf)
        spine = _pick(src_dc.spines, flow, _SALT_UP_SPINE)
        hops.append(spine)

        if scope == PathScope.INTRA_DC:
            down_leaf = _pick(
                dst_dc.leaves_of(dst.podset_index), flow, _SALT_DOWN_LEAF
            )
            hops.append(down_leaf)
            hops.append(self._dst_tor(dst_dc, dst))
            return Path(src, dst, scope, hops)

        # INTER_DC: exit via a border router, cross the WAN, descend the
        # destination DC's Clos.
        hops.append(_pick(src_dc.borders, flow, _SALT_BORDER_SRC))
        hops.append(_pick(dst_dc.borders, flow, _SALT_BORDER_DST))
        hops.append(_pick(dst_dc.spines, flow, _SALT_SPINE_DST))
        hops.append(_pick(dst_dc.leaves_of(dst.podset_index), flow, _SALT_DOWN_LEAF))
        hops.append(self._dst_tor(dst_dc, dst))
        wan_rtt = self.topology.wan_rtt[(src.dc_index, dst.dc_index)]
        return Path(src, dst, scope, hops, wan_rtt=wan_rtt)

    @staticmethod
    def _dst_tor(dst_dc: ClosTopology, dst: Server) -> Switch:
        tor = dst_dc.tor_of(dst)
        if not tor.is_up:
            raise NoRouteError(f"destination ToR {tor.device_id} is down")
        return tor
