"""The pinglist generation algorithm (§3.3.1).

Three levels of complete graphs:

1. **Intra-pod, server level** — "Within a Pod, we let all the servers under
   the same ToR switch form a complete graph": every server probes every
   other server in its pod.
2. **Intra-DC, ToR level** — "for any ToR-pair (ToRx, ToRy), let server i in
   ToRx ping server i in ToRy".  Every server therefore probes exactly one
   peer (its own host index) in every other pod — *all* servers participate
   and the probing load balances itself.
3. **Inter-DC, DC level** — "all the DCs form yet another complete graph.
   In each DC, we select a number of servers (with several servers selected
   from each Podset)"; only the selected servers probe across DCs.

On top, per §6.2 extensions: a low-priority QoS class duplicates the
ToR-level graph onto a second TCP port, payload pings duplicate a slice of
it with an 800–1200 B echo, and VIPs can be added as extra targets.

"The Pingmesh Controller uses threshold values to limit the total number of
probes of a server" — ``max_peers_per_server`` trims lowest-priority entries
first.  Even when two servers appear in each other's pinglists, each
measures independently (both directions are generated).

The graphs are complete graphs over *pods*, and so is the computation:
every server of a pod shares its pod-mates and, up to its host index, its
peer pods — before and after the threshold, whose verdict depends only on
how many entries each level contributes.  :class:`_PodSlots` is that
shared structure, worked out once per pod; a server's pinglist is read off
it by host index, from interned entries.  Enumerating the same graph per
server (647,168 candidate entries to keep 262,144 at 4,096 servers, 8.9 M
for 1.05 M at 16k) was most of a fleet's cold start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller.pinglist import PingParameters, Pinglist, PinglistEntry
from repro.netsim.topology import ClosTopology, MultiDCTopology

__all__ = ["GeneratorConfig", "PingmeshGenerator"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunables of the generation algorithm."""

    probe_interval_s: float = 60.0
    max_peers_per_server: int = 5000  # the paper's upper threshold
    inter_dc_servers_per_podset: int = 2  # "several servers ... each Podset"
    enable_qos_low: bool = False  # §6.2 QoS monitoring extension
    payload_bytes: int = 1000  # payload ping size (800-1200 B, §4.1)
    payload_every_nth_peer: int = 0  # 0 disables payload entries
    vip_targets: tuple[str, ...] = ()  # §6.2 VIP monitoring extension

    def __post_init__(self) -> None:
        if self.max_peers_per_server < 1:
            raise ValueError(
                f"max_peers_per_server must be >= 1: {self.max_peers_per_server}"
            )
        if self.inter_dc_servers_per_podset < 1:
            raise ValueError(
                "inter_dc_servers_per_podset must be >= 1: "
                f"{self.inter_dc_servers_per_podset}"
            )
        if self.payload_every_nth_peer < 0:
            raise ValueError(
                f"payload_every_nth_peer must be >= 0: {self.payload_every_nth_peer}"
            )
        if not 800 <= self.payload_bytes <= 65_536:
            raise ValueError(
                f"payload_bytes outside sane range [800, 65536]: {self.payload_bytes}"
            )


@dataclass(frozen=True)
class _PodSlots:
    """One pod's pinglist after the threshold, up to the host index."""

    intra: tuple[PinglistEntry, ...]  # the pod's own column
    # Kept positions among a server's pod-mates (the column minus itself).
    intra_kept: tuple[int, ...]
    # Then, in order: a column to index by host, or an entry all share.
    rest: tuple

    def entries_for(self, host: int) -> tuple[PinglistEntry, ...]:
        intra = self.intra
        entries = [intra[p + (p >= host)] for p in self.intra_kept]
        entries.extend(
            slot if isinstance(slot, PinglistEntry) else slot[host]
            for slot in self.rest
        )
        return tuple(entries)


class _DcMemo:
    """What one DC's pinglists are built from; dropped whole when it changes."""

    __slots__ = ("columns", "slots", "servers", "inter_dc")

    def __init__(self) -> None:
        # (pod, purpose, qos, payload) -> the pod's servers as entries, by
        # host index: every distinct entry of the DC, one object each.
        self.columns: dict[tuple, tuple[PinglistEntry, ...]] = {}
        # (pod, probes across DCs?) -> the pod's kept slots
        self.slots: dict[tuple[int, bool], _PodSlots] = {}
        # server_id -> post-threshold entries (what ``entries_computed`` counts)
        self.servers: dict[str, tuple[PinglistEntry, ...]] = {}
        # (ids of this DC's inter-DC probers, the entries each of them adds)
        self.inter_dc: tuple[frozenset, tuple[PinglistEntry, ...]] | None = None

    def drop_inter_dc(self, server_ids) -> None:
        """Forget everything built from a selection that has since moved."""
        self.inter_dc = None
        for key in [key for key in self.slots if key[1]]:
            del self.slots[key]
        for server_id in server_ids:
            self.servers.pop(server_id, None)


class PingmeshGenerator:
    """Computes every server's pinglist from the topology.

    The graph is computed per *pod*, not per server: a :class:`_PodSlots`
    holds what the three levels plus the §6.2 extras leave after the
    threshold, and a server's list is instantiated from it by host index
    out of interned :class:`PinglistEntry` objects (one per distinct peer,
    purpose, QoS class and payload).  Slots, entry columns and the
    per-server tuples live in one memo per DC: a generation bump alone
    (kill-switch lift, config-free regenerate) re-stamps memoized entries
    into fresh XML without recomputing anything, and a topology delta
    drops only the DCs it dirties (plus, when the frozen inter-DC
    selection moves, what was built from the old one).
    ``entries_computed`` counts the server lists actually instantiated —
    the controller's O(changed) refresh claim is asserted against it.
    """

    def __init__(
        self, topology: MultiDCTopology, config: GeneratorConfig | None = None
    ) -> None:
        self.topology = topology
        self.config = config or GeneratorConfig()
        self.entries_computed = 0
        self._memo: dict[int, _DcMemo] = {}  # by dc_index
        self._cached_config: GeneratorConfig | None = None
        # dc_index -> ((device_id, ip), ...): the inter-DC selection frozen
        # at regeneration time, so a GET-time (lazy) computation cannot see
        # a different liveness view than an eager regenerate would have.
        self._inter_dc_frozen: dict[int, tuple] | None = None
        self._adopt_config()

    # -- cache maintenance ------------------------------------------------------

    def _adopt_config(self) -> None:
        """A swapped config invalidates everything derived from the old one
        (and brings its one, shared :class:`PingParameters`)."""
        if self.config is not self._cached_config:
            self._cached_config = self.config
            self._parameters = PingParameters(
                probe_interval_s=self.config.probe_interval_s
            )
            self.invalidate_all()

    def invalidate_all(self) -> None:
        self._memo.clear()

    def invalidate_dcs(self, dc_indices) -> None:
        for index in dc_indices:
            self._memo.pop(index, None)

    def _inter_dc_live(self) -> dict[int, tuple]:
        return {
            dc.dc_index: tuple(
                (server.device_id, str(server.ip))
                for server in self.inter_dc_selection(dc)
            )
            for dc in self.topology.dcs
        }

    def refresh_inter_dc_snapshot(self) -> set:
        """Freeze the inter-DC selection at the current liveness view.

        Returns the ids of servers whose pinglists the move dirties: every
        participant of a selection that changed — old and new, all DCs —
        because a changed selection in one DC rewrites the inter-DC target
        list of every selected server everywhere.
        """
        if len(self.topology.dcs) <= 1:
            self._inter_dc_frozen = {}
            return set()
        new = self._inter_dc_live()
        old = self._inter_dc_frozen
        self._inter_dc_frozen = new
        if old is None or old == new:
            return set()
        changed: set = set()
        for snapshot in (old, new):
            for selection in snapshot.values():
                changed.update(sid for sid, _ip in selection)
        return changed

    def note_topology_delta(self, changed_dcs=None) -> None:
        """Invalidate what one regeneration's delta dirties.

        ``changed_dcs=None`` means "unknown delta" and clears everything
        (safe default); an explicit iterable — possibly empty, e.g. a pure
        generation bump when the kill switch lifts — clears only those
        DCs' memos plus what the refreshed selection snapshot moved.
        """
        self._adopt_config()
        if changed_dcs is None:
            self.invalidate_all()
        else:
            self.invalidate_dcs(changed_dcs)
        moved = self.refresh_inter_dc_snapshot()
        if moved:
            for memo in self._memo.values():
                memo.drop_inter_dc(moved)

    # -- selection helpers ------------------------------------------------------

    def inter_dc_selection(self, dc: ClosTopology) -> list:
        """The servers of one DC that participate in inter-DC probing.

        Deterministic given one liveness view: the first
        ``inter_dc_servers_per_podset`` *live* servers of each podset, so a
        down pivot falls through to the next live server instead of
        silently blinding its podset's inter-DC coverage until it reboots.
        Determinism matters — every controller replica must generate
        identical pinglists to stay stateless behind the VIP, and replicas
        regenerating at the same instant see the same liveness.
        """
        selected = []
        for podset in range(dc.spec.n_podsets):
            live = [s for s in dc.servers_in_podset(podset) if s.is_up]
            selected.extend(live[: self.config.inter_dc_servers_per_podset])
        return selected

    # -- the algorithm -------------------------------------------------------------

    def generate_for(
        self, server_id: str, generation: int = 1, t: float = 0.0
    ) -> Pinglist:
        """Generate the pinglist of one server (memoized entry graph)."""
        server = self.topology.server(server_id)
        self._adopt_config()
        memo = self._memo.get(server.dc_index)
        if memo is None:
            memo = self._memo[server.dc_index] = _DcMemo()
        entries = memo.servers.get(server.device_id)
        if entries is None:
            entries = memo.servers[server.device_id] = self._pod_slots(
                memo, server
            ).entries_for(server.host_index)
            self.entries_computed += 1
        return Pinglist(
            server_id=server.device_id,
            generation=generation,
            generated_at=t,
            parameters=self._parameters,
            entries=entries,
        )

    def _column(
        self,
        memo: _DcMemo,
        dc: ClosTopology,
        pod: int,
        purpose: str,
        qos: str = "high",
        payload_bytes: int = 0,
    ) -> tuple[PinglistEntry, ...]:
        """One pod's servers as entries of one kind, by host index."""
        key = (pod, purpose, qos, payload_bytes)
        column = memo.columns.get(key)
        if column is None:
            column = memo.columns[key] = tuple(
                PinglistEntry.interned(
                    peer.device_id, str(peer.ip), purpose, qos, payload_bytes
                )
                for peer in dc.servers_in_pod(pod)
            )
        return column

    def _inter_dc(
        self, memo: _DcMemo, dc_index: int
    ) -> tuple[frozenset, tuple[PinglistEntry, ...]]:
        """Level 3: who in this DC probes across DCs, and whom.

        The frozen regeneration-time snapshot wins over a live
        computation: liveness may have drifted between regenerate and this
        (lazy) GET, and eager/lazy byte parity requires one consistent view.
        """
        if memo.inter_dc is None:
            selection = self._inter_dc_frozen or self._inter_dc_live()
            memo.inter_dc = (
                frozenset(sid for sid, _ip in selection.get(dc_index, ())),
                tuple(
                    PinglistEntry.interned(peer_id, peer_ip, "inter-dc")
                    for other in self.topology.dcs
                    if other.dc_index != dc_index
                    for peer_id, peer_ip in selection.get(other.dc_index, ())
                ),
            )
        return memo.inter_dc

    def _pod_slots(self, memo: _DcMemo, server) -> _PodSlots:
        """The three-level graph for the server's pod, post-threshold.

        Pods of one DC are all ``servers_per_pod`` wide (built and grown
        from one spec), so "server i in ToRx pings server i in ToRy" finds
        a peer in every other pod and the level sizes the threshold sees
        are the pod's, not the server's.
        """
        config = self.config
        inter_dc: tuple[PinglistEntry, ...] = ()
        if len(self.topology.dcs) > 1:
            selected, targets = self._inter_dc(memo, server.dc_index)
            if server.device_id in selected:
                inter_dc = targets
        key = (server.pod_index, bool(inter_dc))
        slots = memo.slots.get(key)
        if slots is not None:
            return slots

        dc = self.topology.dc(server.dc_index)
        pod = server.pod_index
        others = [other for other in range(dc.spec.n_pods) if other != pod]
        # (priority, slot), in pinglist order.  Level 1: the intra-pod
        # complete graph, as positions among the server's pod-mates.
        leveled: list[tuple[int, object]] = [
            (0, position) for position in range(dc.spec.servers_per_pod - 1)
        ]
        # Level 2: the ToR-level complete graph, one column per peer pod.
        leveled += [(1, self._column(memo, dc, other, "tor-level")) for other in others]
        # §6.2 QoS extension: the ToR-level graph again, low priority class.
        if config.enable_qos_low:
            leveled += [
                (4, self._column(memo, dc, other, "tor-level", "low"))
                for other in others
            ]
        # §4.1 payload pings: every Nth ToR-level peer also gets a payload
        # probe, to catch length-dependent drops (FCS/SerDes errors).
        if config.payload_every_nth_peer > 0:
            payload = config.payload_bytes
            leveled += [
                (4, self._column(memo, dc, other, "tor-level", "high", payload))
                for other in others[:: config.payload_every_nth_peer]
            ]
        # Level 3: the inter-DC complete graph over selected servers.
        leveled += [(2, entry) for entry in inter_dc]
        # §6.2 VIP monitoring: extra logical targets.
        leveled += [
            (3, PinglistEntry.interned(vip, vip, "vip")) for vip in config.vip_targets
        ]

        kept = self._apply_threshold(leveled)
        slots = memo.slots[key] = _PodSlots(
            intra=self._column(memo, dc, pod, "intra-pod"),
            intra_kept=tuple(slot for priority, slot in kept if priority == 0),
            rest=tuple(slot for priority, slot in kept if priority != 0),
        )
        return slots

    def _apply_threshold(
        self, leveled: list[tuple[int, object]]
    ) -> list[tuple[int, object]]:
        """Trim to ``max_peers_per_server``, dropping lowest priority first.

        Priority: intra-pod (0) > tor-level at high qos (1) > inter-dc (2)
        > vip (3) > low-qos / payload duplicates (4).  Within a level, a
        deterministic stride-sample keeps coverage spread rather than
        truncating a prefix.
        """
        limit = self.config.max_peers_per_server
        if len(leveled) <= limit:
            return leveled
        buckets: dict[int, list[tuple[int, object]]] = {}
        for pair in leveled:
            buckets.setdefault(pair[0], []).append(pair)
        kept: list[tuple[int, object]] = []
        for level in sorted(buckets):
            room = limit - len(kept)
            if room <= 0:
                break
            bucket = buckets[level]
            if len(bucket) <= room:
                kept.extend(bucket)
            else:
                stride = len(bucket) / room
                kept.extend(bucket[int(i * stride)] for i in range(room))
        return kept

    def generate_all(self, generation: int = 1, t: float = 0.0) -> dict[str, Pinglist]:
        """Pinglists for every server in every DC."""
        return {
            server.device_id: self.generate_for(server.device_id, generation, t)
            for server in self.topology.all_servers()
        }
