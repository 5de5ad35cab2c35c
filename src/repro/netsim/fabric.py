"""The network engine: probes in, RTTs (or drop signatures) out.

:class:`Fabric` combines the topology, routing, per-DC latency/drop models
and the fault injector.  It offers two probe paths:

* :meth:`Fabric.probe` — full-fidelity scalar path used by the simulated
  Pingmesh Agents: fresh source port, per-attempt per-hop drop decisions,
  fault evaluation, SNMP counter bookkeeping, TCP retransmission
  signatures, optional payload echo.
* :meth:`Fabric.probe_many` — the fleet fast path: one agent's whole probe
  round in a single call, returned as one columnar :class:`ProbeBatch`.
  Probes whose own ECMP path crosses no live fault sample outcome + RTT
  array-at-a-time from the analytic model: the pair's per-hop drop
  budgets collapsed into one attempt-drop probability, three Bernoulli
  attempts per probe, an RTT from the DC latency model;
  probes that need full fidelity (a fault on the flow's forward or reverse
  path, a payload echo, a down endpoint) run the scalar engine, and ones
  with no live route are answered by the plan — correctness never depends
  on which partition a probe landed in.
  Everything about a round but its ports and draws is compiled once per
  (source, entries object, generation) into a :class:`_RoundPlan`.

The same models and the same seed discipline back both paths, and the
closed-form class rounds (:meth:`Fabric.run_class_plan`) draw from the
same analytic model a group at a time.  What routing knows about a pod
pair comes from the router's route table
(:class:`~repro.netsim.routing.PodRoute`); the verdicts and pair info built
on it are cached against the topology's ``state_version`` and invalidated
wholesale on any device transition, fault change, or growth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from repro.netsim import tcp
from repro.netsim.addressing import (
    PROTO_TCP,
    EphemeralPortAllocator,
    FiveTuple,
    ecmp_hash_many,
)
from repro.netsim import drops
from repro.netsim.devices import Server, Switch
from repro.netsim.drops import DropModel
from repro.netsim.faults import FaultInjector, wan_link_id
from repro.netsim.latency import LatencyModel
from repro.netsim.routing import (
    SCOPE_HOP_KINDS,
    NoRouteError,
    Path,
    PathScope,
    PodRoute,
    Router,
)
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.netsim.workload import PROFILES, WorkloadProfile, profile_for

__all__ = [
    "Fabric",
    "ProbeResult",
    "ProbeBatch",
    "ProbeEntry",
    "ClassGroup",
    "ClassRoundPlan",
    "ClassOutcome",
    "merge_class_plans",
    "execute_class_groups",
    "DEFAULT_PROBE_PORT",
]

DEFAULT_PROBE_PORT = 81  # the agent's well-known probe listening port


@dataclass
class ProbeResult:
    """Outcome of one TCP probe as the *measuring agent* sees it.

    ``error`` is ``None`` on success, else one of ``"timeout"`` (all SYN
    attempts lost — dead peer and triple drop look identical, which is why
    §4.2's heuristic excludes failed probes), ``"no_route"``, or
    ``"agent_down"`` (refused at the source: no process on a powered-off
    host).  ``syn_drops`` and ``forward_hops`` are included for
    analysis convenience; the production agent records src/dst/ports/rtt.
    """

    src: str
    dst: str
    t: float
    success: bool
    rtt_s: float
    error: str | None = None
    syn_drops: int = 0
    payload_rtt_s: float | None = None
    flow: FiveTuple | None = None
    scope: PathScope | None = None
    forward_hops: tuple[str, ...] = ()

    @property
    def rtt_us(self) -> float:
        return self.rtt_s * 1e6


# One probe request in a probe_many round: (dst_id, dst_port, payload_bytes).
ProbeEntry = tuple[str, int, int]

# A round plan's ``slow`` flow for an entry whose pod pair has no live route.
_NO_ROUTE = -2

_MAX_TIERS = 6  # ECMP decision points on the longest (inter-DC) route


@dataclass(frozen=True)
class _ClassFacts:
    """What the drop model and the fault registry add to a pod pair's route.

    Per-tier drop budgets and scope-determined hop counts mean the whole
    analytic model of a pair — attempt-drop probability, hop count, WAN
    RTT, ECMP envelope — is a function of the endpoints' topological
    coordinates alone.  Memoized per (src pod, dst pod) and generation, so
    the scalar-vs-analytic verdict costs one dict lookup per pair.
    """

    route: PodRoute
    p_attempt: float
    # Full fidelity for every flow: no live route, or a fault on what every
    # flow of the pair crosses (either ToR, a WAN direction).
    scalar: bool
    # Set when a fault sits on an ECMP tier of the envelope instead, where
    # only the flows that hash onto it meet it: one column per decision
    # point, forward tiers then the reply's, as uint64 rows ``(salt, live
    # switches, slot of the first, 1 if forward)`` — see ``Fabric._slots``.
    tiers: np.ndarray | None
    # What class grouping keys on besides (purpose, qos).  The WAN term
    # splits on *direction* (wan_fwd vs wan_rev, plus the destination DC):
    # with asymmetric long-haul latency, dc0->dc1 and dc0->dc2 classes — or
    # a skewed dc0->dc1 vs its mirror — must never share a multinomial draw.
    class_key: tuple


@dataclass
class _PairFastInfo:
    """Cached per-(src, dst, dst_port) routing facts for the fast path.

    Built from a representative flow (fixed source port, like
    :meth:`Fabric.expected_attempt_drop`) for pairs the partition sends to
    the fast path, and only those; valid for one state generation.
    """

    dst: Server
    p_attempt: float
    n_hops: int
    wan_rtt: float
    scope: PathScope
    forward_hop_ids: tuple[str, ...]
    forward_counters: tuple  # the forward hops' SnmpCounters, pre-resolved


class _FlowColumns:
    """A plan's judged flows as the arrays one ECMP pass reads.

    Per flow, in entry order: ``at`` (entry position), ``dsts``, ``facts``
    (the pod pair's) and ``starts`` — the flow's first column, one past the
    last flow's at the end.  Per column, one for each decision point on a
    flow's forward or reverse route: ``row`` is the flow, ``salt`` /
    ``n_live`` / ``offset`` / ``forward`` are the pairs'
    ``_ClassFacts.tiers`` side by side, ``ip_a`` / ``ip_b`` / ``dst_port``
    the five-tuple as the column's direction sends it (the reply swaps the
    addresses) — everything but the round's source port, which ``port_at``
    finds among the up-front ports.  ``slots`` is the generation's table.
    """

    __slots__ = (
        "at", "dsts", "facts", "starts", "row", "salt", "n_live", "offset",
        "forward", "ip_a", "ip_b", "dst_port", "port_at", "slots",
    )

    def __init__(self, plan: "_RoundPlan", dsts, facts, slots: list[Switch]) -> None:
        self.dsts, self.facts, self.slots = dsts, facts, slots
        places = [place for place, (_at, flow) in enumerate(plan.slow) if flow >= 0]
        self.at = [plan.slow[place][0] for place in places]
        tiers = [each.tiers for each in facts]
        widths = [columns.shape[1] for columns in tiers]
        self.starts = np.cumsum([0] + widths)
        self.row = row = np.repeat(np.arange(len(widths)), widths)
        self.salt, self.n_live, self.offset, forward = np.concatenate(tiers, axis=1)
        self.forward = forward = forward != 0
        # What differs flow to flow: its port's place, and whom it probes.
        self.port_at, dst_ip, self.dst_port = np.array(
            [
                (place, dst.ip.value, plan.entries[index][1])
                for place, index, dst in zip(places, self.at, dsts)
            ],
            dtype=np.uint64,
        )[row].T
        src_ip = np.uint64(plan.src_ip.value)
        self.ip_a = np.where(forward, src_ip, dst_ip)
        self.ip_b = np.where(forward, dst_ip, src_ip)

    def hops(self, flow: int, slots) -> tuple[list[Switch], list[Switch]]:
        """A flow's own forward and reverse hops, given a round's slot per
        column — switch for switch what ``Router.path`` picks."""
        start, stop = self.starts[flow], self.starts[flow + 1]
        half = (start + stop) // 2  # the forward tiers, then as many back
        route, table = self.facts[flow].route, self.slots
        return (
            [route.src_tor, *[table[slot] for slot in slots[start:half]], route.dst_tor],
            [route.dst_tor, *[table[slot] for slot in slots[half:stop]], route.src_tor],
        )


class _RoundPlan:
    """What one (source, entries object, generation) fixes about a round.

    The partition, in entry order: ``slow`` positions get their source
    ports up front, as ``(position, flow)`` — ``flow`` -1 for the ones that
    always go to the full-fidelity engine, ``_NO_ROUTE`` for the ones with
    no live route (their destinations in ``unroutable``, by position),
    else the row in ``flows`` whose verdict each round decides; ``fast``
    ones always join the analytic draw.  Of the analytic candidates
    (``at``: fast, then judged), all but the draws: ``p_attempt``,
    ``n_hops`` and ``wan`` (``None``: no WAN term) per candidate; and, fixed
    because a plan without judged flows draws for all of them every round,
    ``hop_classes`` as ``(n_hops, places, how many)`` in order of first
    appearance and ``no_drops`` as the read-only ``(success, syn_drops)``
    columns every round without a lost SYN shares.  ``counters`` is one
    ``(SnmpCounters, packets per round)`` per distinct forward hop of the
    fast positions, ``infos`` (by entry position, the fast ones') serve the
    row view.  ``static`` belongs to the record layer: what it derived from
    this plan, kept with it.
    """

    __slots__ = (
        "src_id", "src_ip", "entries", "dst_ids", "slow", "unroutable", "flows",
        "fast", "at", "infos", "p_attempt", "n_hops", "wan", "hop_classes",
        "counters", "no_drops", "static",
    )

    def __init__(self, src_id: str, dst_ids: tuple[str, ...]) -> None:
        self.src_id = src_id
        self.dst_ids = dst_ids
        self.unroutable = {}
        self.static = None


@dataclass(slots=True, eq=False)
class ProbeBatch(Sequence):
    """One :meth:`Fabric.probe_many` round, column-major, in entry order.

    ``success`` (bool), ``rtt_s`` and ``syn_drops`` (int64) are arrays,
    ``src_port`` a sequence of ints (0: refused at the source), ``error``
    and ``payload_rtt_s`` lists — or ``None`` when no row has one.  ``src``,
    ``t`` and what the round's plan fixes per position are shared by the
    whole batch; nothing is written after birth (rounds without a lost SYN
    share their plan's read-only ``success`` / ``syn_drops``).  It is also
    the read-only sequence of :class:`ProbeResult` the round used to be: a
    row is built when someone indexes or iterates, and only then — except
    the scalar engine's rows, which are the objects :meth:`Fabric.probe`
    returned.
    """

    plan: _RoundPlan
    t: float
    success: np.ndarray
    rtt_s: np.ndarray
    syn_drops: np.ndarray
    error: list | None
    payload_rtt_s: list | None
    src_port: Sequence[int]
    _kept: list | None = None  # the scalar engine's rows by position, if any
    _flow_slots: np.ndarray | None = None  # the judged flows' slot per column

    @classmethod
    def assemble(
        cls, plan: _RoundPlan, t: float, scalar_at, rows, analytic=None,
        flow_slots=None, no_route=(),
    ) -> "ProbeBatch":
        """Columns read off the scalar engine's ``rows`` (at positions
        ``scalar_at``), with the analytic draw's ``(positions, success,
        rtt_s, syn_drops, error, src_port)`` and the source ports of the
        plan's unroutable positions (``no_route``) scattered among them."""
        n = len(plan.dst_ids)
        kept: list = [None] * n
        success = np.zeros(n, dtype=bool)
        rtt_s = np.zeros(n)
        syn_drops = np.zeros(n, dtype=np.int64)
        error: list = [None] * n
        payload_rtt_s: list = [None] * n
        src_port = [0] * n
        for index, row in zip(scalar_at, rows):
            kept[index] = row
            success[index] = row.success
            rtt_s[index] = row.rtt_s
            syn_drops[index] = row.syn_drops
            error[index] = row.error
            payload_rtt_s[index] = row.payload_rtt_s
            if row.flow is not None:
                src_port[index] = row.flow.src_port
        for index, port in zip(plan.unroutable, no_route):
            error[index] = "no_route"
            src_port[index] = port
        if analytic is not None:
            at, drawn_success, drawn_rtt_s, drawn_syn_drops, drawn_error, ports = analytic
            success[at] = drawn_success
            rtt_s[at] = drawn_rtt_s
            syn_drops[at] = drawn_syn_drops
            for place, index in enumerate(at.tolist()):
                src_port[index] = ports[place]
                if drawn_error is not None:
                    error[index] = drawn_error[place]
        return cls(
            plan, t, success, rtt_s, syn_drops, error, payload_rtt_s, src_port, kept,
            flow_slots,
        )

    @classmethod
    def from_results(cls, results: Sequence[ProbeResult]) -> "ProbeBatch":
        """The batch of one source's scalar probes at one instant (a
        ``Fabric.probe`` loop, a single VIP probe)."""
        first = results[0]
        if any(row.src != first.src or row.t != first.t for row in results):
            raise ValueError("a batch shares one source and one instant")
        plan = _RoundPlan(first.src, tuple([row.dst for row in results]))
        return cls.assemble(plan, first.t, range(len(results)), results)

    @property
    def src(self) -> str:
        return self.plan.src_id

    def __len__(self) -> int:
        return len(self.plan.dst_ids)

    def __getitem__(self, index):
        at = range(len(self))[index]  # negatives, bounds and slices: range's
        if isinstance(index, slice):
            return [self._row(i) for i in at]
        return self._row(at)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def _row(self, index: int) -> ProbeResult:
        row = self._kept[index] if self._kept is not None else None
        if row is None:
            plan = self.plan
            info = plan.infos[index]
            if info is not None:
                dst, scope, hops = info.dst, info.scope, info.forward_hop_ids
            elif index in plan.unroutable:  # no route: no scope, no hops
                dst, scope, hops = plan.unroutable[index], None, ()
            else:  # a judged flow that met no fault: its own hops
                flows = plan.flows
                flow = flows.at.index(index)
                dst, scope = flows.dsts[flow], flows.facts[flow].route.scope
                there, _back = flows.hops(flow, self._flow_slots)
                hops = tuple([hop.device_id for hop in there])
            row = ProbeResult(
                src=plan.src_id,
                dst=plan.dst_ids[index],
                t=self.t,
                success=bool(self.success[index]),
                rtt_s=float(self.rtt_s[index]),
                error=self.error[index] if self.error is not None else None,
                syn_drops=int(self.syn_drops[index]),
                flow=FiveTuple(
                    src_ip=plan.src_ip,
                    src_port=self.src_port[index],
                    dst_ip=dst.ip,
                    dst_port=plan.entries[index][1],
                    protocol=PROTO_TCP,
                ),
                scope=scope,
                forward_hops=hops,
            )
        return row


@dataclass
class ClassGroup:
    """One (purpose, qos, path-class) group of a class-round plan.

    Every member pair shares the analytic model inputs — attempt-drop
    probability, hop count, WAN RTT, DC latency model — so one multinomial
    draw plus one latency sample covers the whole group of ``n``.  Who the
    members are is the plan's ``member_indices`` and ``rounds``, not the
    group's.
    """

    purpose: str
    qos: str
    dc_index: int
    dst_dc: int  # destination DC (== dc_index except for inter-DC groups)
    scope: PathScope
    n_hops: int
    wan_fwd: float  # one-way WAN propagation, src DC -> dst DC (0 intra-DC)
    wan_rev: float  # one-way WAN propagation, dst DC -> src DC
    wan_rtt: float  # wan_fwd + wan_rev: the WAN term added to sampled RTTs
    p_attempt: float
    n: int


@dataclass
class ClassRoundPlan:
    """A pinglist round compiled into closed-form class groups.

    Valid for exactly one state generation: any fault change, device flip
    or growth bumps the version and forces a rebuild, which is what makes
    the fault-degradation rule automatic.  ``passthrough`` holds the entry
    indices that must keep per-pair fidelity (payload echo, down or
    unroutable destination, live fault in the class envelope) — callers
    route those through :meth:`Fabric.probe_many` unchanged.
    """

    version: int
    groups: list[ClassGroup]
    passthrough: list[int]
    n_class_probes: int
    # Per-round SNMP accounting, pre-aggregated: each class member adds one
    # packet per round to a representative forward path, spread over live
    # ECMP candidates by member ordinal (mirroring the per-pair fast path's
    # per-probe increments at aggregate granularity).
    counter_increments: list[tuple]  # (SnmpCounters, packets per round)
    # Parallel to ``groups``: the entry indices behind each group's members
    # (with ``passthrough``, a partition of the round's entries).
    member_indices: list[list[int]] = field(default_factory=list)
    # Makes ``rounds``; only round observers read them, so a plan carries how.
    make_rounds: Callable[[], list] = field(default=list, compare=False, repr=False)

    @cached_property
    def rounds(self) -> list[tuple[str, Sequence[ProbeEntry], list[int]]]:
        """Per source, ``(src_id, entries, positions)``: the round the plan was
        compiled from, held by reference, and where its class members sit in
        it — what :meth:`Fabric.account_class_round` reports."""
        return self.make_rounds()


@dataclass
class ClassOutcome:
    """One class group's outcome for one round.

    ``rtt_s`` holds the successful probes' RTTs (retransmission waits
    included), ordered 0-drop then 1-drop then 2-drop segments.
    """

    purpose: str
    qos: str
    scope: PathScope
    n: int
    failed: int
    one_drop: int
    two_drops: int
    rtt_s: np.ndarray
    # Destination DC of the group (== the source DC for intra-DC classes);
    # lets class records summarize ``pingmesh/latency-class`` per DC pair.
    dst_dc: int = -1

    @property
    def success(self) -> int:
        return self.n - self.failed


def merge_class_plans(
    plans: Sequence[ClassRoundPlan],
    sources: Sequence[tuple[str, Sequence[ProbeEntry]]] | None = None,
) -> ClassRoundPlan:
    """Merge per-source class plans into one (e.g. per podset shard).

    Groups with identical (purpose, qos, class) keys add their counts — a
    sum of multinomials with the same parameters is the multinomial of the
    sum, so executing the merged plan is distributed identically to
    executing the parts.  ``passthrough`` and ``member_indices`` are
    per-source and do not survive the merge; callers keep those alongside.
    ``rounds`` concatenate.

    ``sources``, when given, names the ``(src_id, entries)`` each plan
    stands for, and makes the plan a *template*: compiled for another
    source whose round has the same :meth:`Fabric.class_plan_shape` and
    destination liveness, it equals this source's own plan except for who
    the members are — the source's ``entries`` at the template's member
    positions.  One template may stand for many sources; its SNMP
    increments then count once per source, folded in one pass.
    """
    if not plans:
        return ClassRoundPlan(
            version=-1, groups=[], passthrough=[], n_class_probes=0,
            counter_increments=[],
        )
    version = plans[0].version
    groups: dict[tuple, ClassGroup] = {}
    uses: dict[int, list] = {}  # id(plan) -> [plan, times listed]
    for plan in plans:
        if plan.version != version:
            raise ValueError(
                f"cannot merge plans across generations: {plan.version} != {version}"
            )
        uses.setdefault(id(plan), [plan, 0])[1] += 1
        for group in plan.groups:
            key = (
                group.purpose, group.qos, group.dc_index, group.dst_dc,
                group.scope, group.n_hops, group.wan_fwd, group.wan_rev,
                group.p_attempt,
            )
            merged = groups.get(key)
            if merged is None:
                merged = groups[key] = replace(group, n=0)
            merged.n += group.n
    acc: dict[int, list] = {}
    for plan, times in uses.values():
        for counters, packets in plan.counter_increments:
            acc.setdefault(id(counters), [counters, 0])[1] += packets * times
    merged_groups = list(groups.values())
    if sources is None:
        make_rounds = lambda: [each for plan in plans for each in plan.rounds]
    else:  # each template's members by position, as its own ``rounds`` lists them
        listed = [(src, plan.member_indices) for src, plan in zip(sources, plans) if plan.groups]
        make_rounds = lambda: [
            (*src, sorted(at for group in members for at in group)) for src, members in listed
        ]
    return ClassRoundPlan(
        version=version,
        groups=merged_groups,
        passthrough=[],
        n_class_probes=sum(group.n for group in merged_groups),
        counter_increments=[(c, k) for c, k in acc.values()],
        make_rounds=make_rounds,
    )


def execute_class_groups(groups, latency_models, t, draw) -> list[ClassOutcome]:
    """One round of closed-form class draws — the pure-math core.

    ``groups`` is any sequence of objects carrying the :class:`ClassGroup`
    model fields (``purpose``, ``qos``, ``scope``, ``n``, ``p_attempt``,
    ``dc_index``, ``n_hops``, ``wan_rtt``, ``dst_dc``); ``latency_models``
    maps ``dc_index`` -> :class:`~repro.netsim.latency.LatencyModel`.  The
    draw sequence per group is fixed (multinomial, then the latency
    sample), so two callers holding generators in the same state produce
    bit-identical outcomes, whichever thread each runs on.

    Shared-state side effects (conservation ledger, SNMP counters, round
    observers) are :meth:`Fabric.account_class_round`'s; this function
    touches only ``draw``.
    """
    sig1, sig2 = tcp.ONE_DROP_RTT_S, tcp.TWO_DROPS_RTT_S
    outcomes: list[ClassOutcome] = []
    for group in groups:
        m = group.n
        p = group.p_attempt
        p0 = 1.0 - p
        counts = draw.multinomial(m, (p0, p * p0, p * p * p0, p * p * p))
        n0, n1, n2, n_fail = (int(c) for c in counts)
        n_ok = n0 + n1 + n2
        if n_ok:
            rtt = latency_models[group.dc_index].sample(
                draw, group.n_hops, t=t, n=n_ok
            )
            if group.wan_rtt:
                rtt += group.wan_rtt
            if n1:
                rtt[n0:n0 + n1] += sig1
            if n2:
                rtt[n0 + n1:] += sig2
            one_drop = int(np.count_nonzero((rtt >= sig1) & (rtt < sig2)))
            two_drops = int(np.count_nonzero(rtt >= sig2))
        else:
            rtt = np.empty(0)
            one_drop = two_drops = 0
        outcomes.append(
            ClassOutcome(
                purpose=group.purpose,
                qos=group.qos,
                scope=group.scope,
                n=m,
                failed=n_fail,
                one_drop=one_drop,
                two_drops=two_drops,
                rtt_s=rtt,
                dst_dc=group.dst_dc,
            )
        )
    return outcomes


def _runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Items ordered by label (labels by first appearance, stable): order, starts, sizes."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    heads = np.flatnonzero(np.diff(ranked, prepend=ranked[:1] - 1))  # each label's first item
    by_first = np.argsort(order[heads])
    sizes = np.diff(np.append(heads, len(labels)))[by_first]
    starts = np.cumsum(sizes) - sizes
    at = np.repeat(heads[by_first] - starts, sizes) + np.arange(len(labels))
    return order[at], starts, sizes


def _hop_classes(n_hops: list[int]) -> list[tuple]:
    """``(n_hops, places, how many)`` per distinct hop count among analytic
    probes, in order of first appearance — an RTT draw each."""
    by_hops: dict[int, list[int]] = {}
    for place, hops in enumerate(n_hops):
        by_hops.setdefault(hops, []).append(place)
    return [
        (hops, np.array(places, dtype=np.intp), len(places))
        for hops, places in by_hops.items()
    ]


def _rounds_by_source(servers, src_at, member, entries) -> list[tuple]:
    """A plan's ``rounds``: per source by first appearance, ``(src_id,
    entries, positions)`` with the positions of its members."""
    positions: dict[int, list[int]] = {}
    for at, src in zip(member.tolist(), src_at[member].tolist()):
        positions.setdefault(src, []).append(at)
    round_ = entries()
    return [(servers[src].device_id, round_, at) for src, at in positions.items()]


class Fabric:
    """A multi-DC network ready to carry probes.

    Parameters
    ----------
    topology:
        The network.  Each DC's ``spec.profile_name`` selects its workload
        profile unless ``profiles`` overrides it.
    seed:
        Seeds an internal ``numpy`` generator; identical seeds give
        identical probe streams.
    profiles:
        Optional explicit mapping of DC name → profile.
    """

    def __init__(
        self,
        topology: MultiDCTopology,
        seed: int = 0,
        profiles: dict[str, WorkloadProfile] | None = None,
    ) -> None:
        self.topology = topology
        self.router = Router(topology)
        self.faults = FaultInjector(state_version=topology.state_version)
        self.rng = np.random.default_rng(seed)
        self._profiles: dict[int, WorkloadProfile] = {}
        self._latency: dict[int, LatencyModel] = {}
        self._dropmodel: dict[int, DropModel] = {}
        for dc in topology.dcs:
            if profiles and dc.spec.name in profiles:
                profile = profiles[dc.spec.name]
            else:
                profile = profile_for(dc.spec.profile_name)
            self._profiles[dc.dc_index] = profile
            self._latency[dc.dc_index] = LatencyModel(profile)
            self._dropmodel[dc.dc_index] = DropModel(profile)
        self._ports: dict[str, EphemeralPortAllocator] = {}
        # Conservation ledger (checked by the chaos invariant catalogue):
        # probes_carried entered the network; probes_refused were turned
        # away at the source host (agent down) and never touched a wire.
        # Every engine — scalar, fast path, class rounds — reports what it
        # probed, so carried + refused == probes reported.
        self.probes_carried = 0
        self.probes_refused = 0
        # Round observers: called once per engine call as (src_id, entries,
        # t), ``entries`` the (dst_id, dst_port, payload_bytes) triples that
        # call probed from src_id at t — the chaos invariant checker hooks
        # in here.
        self.round_observers: list[
            Callable[[str, Sequence[ProbeEntry], float], None]
        ] = []
        # Fast-path pair info and pod-pair class facts, both valid for one
        # state generation (see _check_generation).  The facts' key is far
        # coarser (pods, not servers): 16k servers with a 64-peer cap touch
        # a few thousand pod pairs, so a post-invalidation rebuild is cheap.
        self._pair_cache: dict[tuple[str, str, int], _PairFastInfo] = {}
        self._class_facts_cache: dict[tuple, _ClassFacts] = {}
        self._round_plans: dict[str, _RoundPlan] = {}  # by source, its latest
        # The live switches of every ECMP tier a judged flow can cross, each
        # tier's side by side (found by its first switch): a hash choice
        # plus the tier's offset is a *slot*, and one gather against
        # ``_slot_faulted`` tells whether the flow met a fault there.
        self._slots: list[Switch] = []
        self._tier_offsets: dict[str, int] = {}
        self._slot_faulted = np.zeros(0, dtype=bool)
        # Per generation, a row per class code (a class key and the ECMP tiers
        # it crosses, ``_class_rows``): the key's number in ``_class_keys``,
        # then per tier its offset and live count.  ``_pair_rows``: each
        # (source pod, destination pod)'s row; -1 passes through, -2 unseen.
        self._class_table = np.zeros((0, 1 + 2 * _MAX_TIERS), dtype=np.int64)
        self._class_rows: dict[tuple, int] = {}
        self._class_keys: dict[tuple, int] = {}
        self._pair_rows: np.ndarray | None = None
        self._cache_version = -1
        # Every server named so far by number, its pod's number, and every pod's
        # ToR by number: all append-only and identity-stable.
        self._numbers: dict[str, int] = {}
        self.servers: list[Server] = []
        self._server_pods = np.zeros(0, dtype=np.intp)
        self._pods: dict[tuple[int, int], int] = {}
        self._tors: list[Switch] = []

    @classmethod
    def single_dc(cls, spec: TopologySpec | None = None, seed: int = 0) -> "Fabric":
        """Convenience: a fabric over one data center."""
        return cls(MultiDCTopology.single(spec), seed=seed)

    @property
    def state_version(self) -> int:
        """The topology's routing-state generation (monotonic)."""
        return self.topology.state_version.value

    # -- model lookups ------------------------------------------------------

    def profile_of(self, server_or_dc: Server | int) -> WorkloadProfile:
        dc_index = (
            server_or_dc if isinstance(server_or_dc, int) else server_or_dc.dc_index
        )
        return self._profiles[dc_index]

    def latency_model(self, dc_index: int) -> LatencyModel:
        return self._latency[dc_index]

    def drop_model(self, dc_index: int) -> DropModel:
        return self._dropmodel[dc_index]

    def _resolve(self, server: Server | str) -> Server:
        if isinstance(server, Server):
            return server
        if server not in self._numbers:
            self.server_numbers([server])
        return self.servers[self._numbers[server]]

    def server_numbers(self, ids: list[str]) -> np.ndarray:
        """The servers' numbers; a new id numbers every server not yet seen."""
        numbers = self._numbers
        try:
            return np.array([numbers[each] for each in ids], dtype=np.intp)
        except KeyError as missing:
            self.topology.server(missing.args[0])  # raises for no such server
            new = [s for s in self.topology.all_servers() if s.device_id not in numbers]
            numbers.update((s.device_id, len(self.servers) + i) for i, s in enumerate(new))
            self.servers += new
            for server in new:
                if (server.dc_index, server.pod_index) not in self._pods:
                    self._pods[server.dc_index, server.pod_index] = len(self._tors)
                    self._tors.append(self.topology.dc(server.dc_index).tor_of(server))
            pods = [self._pods[server.dc_index, server.pod_index] for server in new]
            self._server_pods = np.concatenate([self._server_pods, np.array(pods, dtype=np.intp)])
            self._pair_rows = None  # sized by the pods
            return self.server_numbers(ids)

    def _port_allocator(self, server_id: str) -> EphemeralPortAllocator:
        allocator = self._ports.get(server_id)
        if allocator is None:
            allocator = self._ports[server_id] = EphemeralPortAllocator()
        return allocator

    # -- per-packet mechanics ------------------------------------------------

    def _traverse(
        self, path: Path, flow: FiveTuple, packet_bytes: int
    ) -> tuple[bool, float]:
        """Send one packet along ``path``.  Returns (delivered, extra_latency)."""
        drop_model = self._dropmodel[path.src.dc_index]
        # Host-side loss (stack + NIC at both endpoints).
        if self.rng.random() < drop_model.budget.host_side:
            return False, 0.0
        extra_latency = 0.0
        faulted = self.faults.faulted_switch_ids()
        for hop in path.hops:
            hop.counters.packets_forwarded += 1
            if self.rng.random() < drop_model.hop_drop_prob(hop.kind):
                hop.counters.input_discards += 1
                return False, extra_latency
            # The fault uniform is drawn per hop whether or not a fault is
            # registered there, so injecting one never shifts the stream.
            uniform = self.rng.random()
            if hop.device_id in faulted:
                verdict = self.faults.evaluate_hop(hop, flow, packet_bytes, uniform)
                if verdict.dropped:
                    return False, extra_latency
                extra_latency += verdict.extra_latency_s
        if path.scope is PathScope.INTER_DC:
            # Baseline WAN crossing loss: the same module-level constant the
            # analytic engines read (drops.direction_drop_prob*), late-bound
            # so the three rungs can never disagree on its value.
            if self.rng.random() < drops.WAN_DIRECTION_DROP:
                return False, extra_latency
            src_dc, dst_dc = path.src.dc_index, path.dst.dc_index
            if self.faults.wan_faults_on(src_dc, dst_dc):
                verdict = self.faults.evaluate_wan(
                    src_dc, dst_dc, flow, packet_bytes, self.rng.random()
                )
                if verdict.dropped:
                    return False, extra_latency
                extra_latency += verdict.extra_latency_s
        return True, extra_latency

    def _paths(
        self, src: Server, dst: Server, flow: FiveTuple, reply: FiveTuple
    ) -> tuple[Path, Path]:
        """Forward path of ``flow`` and reverse path of its ``reply`` flow."""
        return self.router.path(src, dst, flow), self.router.path(dst, src, reply)

    # -- scalar probe ---------------------------------------------------------

    def probe(
        self,
        src: Server | str,
        dst: Server | str,
        t: float = 0.0,
        payload_bytes: int = 0,
        dst_port: int = DEFAULT_PROBE_PORT,
        src_port: int | None = None,
    ) -> ProbeResult:
        """One TCP probe from ``src`` to ``dst`` at simulated time ``t``.

        A fresh ephemeral source port is drawn unless ``src_port`` pins one
        (the fixed-port ablation does).  The returned RTT is what the agent's
        stopwatch would read: retransmission waits included.
        """
        src_server = self._resolve(src)
        dst_server = self._resolve(dst)
        if self.round_observers:
            probed = ((dst_server.device_id, dst_port, payload_bytes),)
            for observer in self.round_observers:
                observer(src_server.device_id, probed, t)

        if not src_server.is_up:
            # The probe never entered the network: the source host has no
            # process to send it.  Counted as refused, not carried.
            self.probes_refused += 1
            return ProbeResult(
                src=src_server.device_id,
                dst=dst_server.device_id,
                t=t,
                success=False,
                rtt_s=0.0,
                error="agent_down",
            )
        self.probes_carried += 1

        port = src_port
        if port is None:
            port = self._port_allocator(src_server.device_id).allocate()
        flow = FiveTuple(
            src_ip=src_server.ip,
            src_port=port,
            dst_ip=dst_server.ip,
            dst_port=dst_port,
            protocol=PROTO_TCP,
        )
        reply = flow.reversed()
        try:
            forward, reverse = self._paths(src_server, dst_server, flow, reply)
        except NoRouteError:
            return ProbeResult(
                src=src_server.device_id,
                dst=dst_server.device_id,
                t=t,
                success=False,
                rtt_s=0.0,
                error="no_route",
                flow=flow,
            )
        return self._probe_along(forward, reverse, flow, reply, t, payload_bytes)

    def _probe_along(
        self, forward: Path, reverse: Path, flow: FiveTuple, reply: FiveTuple,
        t: float, payload_bytes: int = 0,
    ) -> ProbeResult:
        """The scalar engine's per-hop core: one carried probe of ``flow``
        out along ``forward`` and its ``reply`` back along ``reverse``."""
        src_server, dst_server = forward.src, forward.dst

        def syn_attempt() -> tuple[bool, float]:
            delivered, extra_fwd = self._traverse(forward, flow, 40)
            if not delivered or not dst_server.is_up:
                return False, 0.0
            delivered_back, extra_rev = self._traverse(reverse, reply, 40)
            return delivered_back, extra_fwd + extra_rev

        outcome = tcp.run_syn_handshake(syn_attempt)
        latency_model = self._latency[src_server.dc_index]
        if not outcome.success:
            return ProbeResult(
                src=src_server.device_id,
                dst=dst_server.device_id,
                t=t,
                success=False,
                rtt_s=outcome.waited_s,
                error="timeout",
                syn_drops=outcome.drops,
                flow=flow,
                scope=forward.scope,
                forward_hops=forward.hop_id_tuple,
            )

        network_rtt = latency_model.sample_one(
            self.rng,
            forward.n_hops,
            t=t,
            wan_rtt=forward.wan_rtt + reverse.wan_rtt,
        )
        rtt = outcome.waited_s + network_rtt + outcome.extra_latency_s

        payload_rtt: float | None = None
        if payload_bytes > 0:
            payload_rtt = self._payload_exchange(
                forward, reverse, flow, reply, payload_bytes, latency_model, t
            )

        return ProbeResult(
            src=src_server.device_id,
            dst=dst_server.device_id,
            t=t,
            success=True,
            rtt_s=rtt,
            syn_drops=outcome.drops,
            payload_rtt_s=payload_rtt,
            flow=flow,
            scope=forward.scope,
            forward_hops=forward.hop_id_tuple,
        )

    def _payload_exchange(
        self,
        forward: Path,
        reverse: Path,
        flow: FiveTuple,
        reply: FiveTuple,
        payload_bytes: int,
        latency_model: LatencyModel,
        t: float,
    ) -> float | None:
        """Measure the payload echo leg; ``None`` if it never completes."""

        def data_attempt() -> tuple[bool, float]:
            delivered, extra_fwd = self._traverse(forward, flow, payload_bytes)
            if not delivered:
                return False, 0.0
            delivered_back, extra_rev = self._traverse(reverse, reply, payload_bytes)
            return delivered_back, extra_fwd + extra_rev

        outcome = tcp.run_data_exchange(data_attempt)
        if not outcome.success:
            return None
        network_rtt = latency_model.sample_one(
            self.rng,
            forward.n_hops,
            t=t,
            wan_rtt=forward.wan_rtt + reverse.wan_rtt,
            payload_bytes=payload_bytes,
        )
        return outcome.waited_s + network_rtt + outcome.extra_latency_s

    # -- analytic model ---------------------------------------------------------

    def expected_attempt_drop(
        self, src: Server | str, dst: Server | str, dst_port: int = DEFAULT_PROBE_PORT
    ) -> float:
        """Analytic healthy-network P(SYN attempt fails) for this pair.

        Uses a representative flow for path selection; per-hop baseline
        probabilities do not depend on the ECMP choice (all switches in one
        tier share the budget), so the representative flow is exact.
        """
        src_server = self._resolve(src)
        dst_server = self._resolve(dst)
        flow = FiveTuple(src_server.ip, 49_152, dst_server.ip, dst_port)
        forward, reverse = self._paths(src_server, dst_server, flow, flow.reversed())
        return self._dropmodel[src_server.dc_index].attempt_drop_prob(
            forward, reverse
        )

    # -- fleet fast path --------------------------------------------------------

    def _check_generation(self) -> None:
        """Drop the pair info, class facts, class tables and round plans of a
        past state generation."""
        version = self.topology.state_version.value
        if version != self._cache_version:
            self._pair_cache.clear()
            self._class_facts_cache.clear()
            self._class_rows.clear()
            self._class_keys.clear()
            self._pair_rows = None
            self._round_plans.clear()
            self._slots = []  # a new list: a batch may still read the old one
            self._tier_offsets.clear()
            self._slot_faulted = self._slot_faulted[:0]
            self._cache_version = version

    def _pair_info(self, src: Server, dst: Server, dst_port: int) -> _PairFastInfo:
        """Build and cache the fast-path facts of one routable pair."""
        flow = FiveTuple(src.ip, 49_152, dst.ip, dst_port)
        forward, reverse = self._paths(src, dst, flow, flow.reversed())
        info = _PairFastInfo(
            dst=dst,
            p_attempt=self._dropmodel[src.dc_index].attempt_drop_prob(
                forward, reverse
            ),
            n_hops=forward.n_hops,
            wan_rtt=forward.wan_rtt + reverse.wan_rtt,
            scope=forward.scope,
            forward_hop_ids=forward.hop_id_tuple,
            forward_counters=tuple(hop.counters for hop in forward.hops),
        )
        self._pair_cache[(src.device_id, dst.device_id, dst_port)] = info
        return info

    def _round_plan(
        self, src_server: Server, entries: Sequence[ProbeEntry]
    ) -> _RoundPlan:
        """Compile a round (see :class:`_RoundPlan`), or hand back the one
        compiled from the very same ``entries`` *tuple* this generation — a
        list may have been written to since, so it always compiles afresh.

        One dict hit per entry against the pair cache: only fast pairs are
        ever cached, and liveness and fault placement are frozen within a
        generation — so a hit is a fast pair.
        """
        src_id = src_server.device_id
        plan = self._round_plans.get(src_id)
        if plan is not None and plan.entries is entries:
            return plan
        plan = _RoundPlan(src_id, tuple([entry[0] for entry in entries]))
        plan.src_ip = src_server.ip
        plan.entries = entries
        plan.slow = []
        plan.fast = []
        plan.infos = [None] * len(entries)
        dsts: list[Server] = []  # of the judged positions, and their facts
        judged: list[_ClassFacts] = []
        pair_cache = self._pair_cache
        for index, (dst_id, dst_port, payload_bytes) in enumerate(entries):
            info = None
            if payload_bytes == 0:
                info = pair_cache.get((src_id, dst_id, dst_port))
            if info is None:
                dst_server = self._resolve(dst_id)
                facts = None if dst_id == src_id else self._class_facts(src_server, dst_server)
                if facts is not None and not facts.route.routable:
                    plan.slow.append((index, _NO_ROUTE))
                    plan.unroutable[index] = dst_server
                    continue
                if payload_bytes > 0 or not dst_server.is_up:
                    plan.slow.append((index, -1))
                    continue
                if facts is not None:
                    if facts.scalar:
                        plan.slow.append((index, -1))
                        continue
                    if facts.tiers is not None:
                        plan.slow.append((index, len(judged)))
                        dsts.append(dst_server)
                        judged.append(facts)
                        continue
                info = self._pair_info(src_server, dst_server, dst_port)
            plan.fast.append(index)
            plan.infos[index] = info
        flows = plan.flows = (
            _FlowColumns(plan, dsts, judged, self._slots) if judged else None
        )
        infos = [plan.infos[index] for index in plan.fast]
        routes = [facts.route for facts in judged]
        plan.at = np.array(plan.fast + (flows.at if judged else []), dtype=np.intp)
        plan.p_attempt = np.array(
            [info.p_attempt for info in infos] + [facts.p_attempt for facts in judged]
        )
        plan.n_hops = [info.n_hops for info in infos] + [route.n_hops for route in routes]
        wan = np.array(
            [info.wan_rtt for info in infos]
            + [route.wan_fwd + route.wan_rev for route in routes]
        )
        plan.wan = wan if wan.any() else None
        packets: dict[int, list] = {}
        for info in infos:
            for counters in info.forward_counters:
                packets.setdefault(id(counters), [counters, 0])[1] += 1
        plan.hop_classes = _hop_classes(plan.n_hops)
        plan.counters = [tuple(entry) for entry in packets.values()]
        k = len(plan.n_hops)
        plan.no_drops = (np.ones(k, dtype=bool), np.zeros(k, dtype=np.int64))
        for column in plan.no_drops:
            column.flags.writeable = False
        if type(entries) is tuple:
            self._round_plans[src_id] = plan
        return plan

    def _judge_flows(self, flows: _FlowColumns, ports: Sequence[int]):
        """This round's ECMP choice at every decision point of every judged
        flow, both directions, in one pass — ``Router._bucket_for`` over
        arrays.  Returns which flows meet a faulted switch, and every
        column's slot."""
        port = np.asarray(ports, dtype=np.uint64)[flows.port_at]
        forward, dst_port = flows.forward, flows.dst_port
        choice = ecmp_hash_many(
            flows.ip_a, np.where(forward, port, dst_port),
            flows.ip_b, np.where(forward, dst_port, port),
            PROTO_TCP, flows.salt,
        ) % flows.n_live
        slots = (flows.offset + choice).astype(np.intp)
        hit = np.logical_or.reduceat(self._slot_faulted[slots], flows.starts[:-1])
        return hit, slots

    def probe_many(
        self, src: Server | str, entries: Sequence[ProbeEntry], t: float = 0.0
    ) -> ProbeBatch:
        """One probe per entry from ``src``, vectorized where fidelity allows.

        ``entries`` are ``(dst_id, dst_port, payload_bytes)`` triples (one
        agent's probe round); the :class:`ProbeBatch` that comes back holds
        the outcomes as columns in entry order, and reads as the sequence
        of :class:`ProbeResult` they stand for.  The round is partitioned
        envelope first (once per entries tuple and generation,
        :meth:`_round_plan`), flow second (each round):

        * **no route**: the pod pair's route record has no live route.
          Answered in the plan — :meth:`probe`'s ``no_route`` row, without
          routing, drawing or calling the scalar engine;
        * **scalar** (:meth:`probe`, full fidelity, per-hop decisions): any
          other entry with a payload echo, a down destination, or a live
          fault on what every flow of the pair crosses (a ToR, a WAN
          direction) — decided from the pod pair's class facts before
          anything is routed;
        * **judged**: a live fault on an ECMP tier of the pair's envelope.
          The round's fresh source port decides: every judged flow's
          per-tier choice, forward and reverse, is computed in one array
          pass, and only the flows that hash onto a faulted switch enter
          the scalar engine's per-hop core, on paths built from the hops
          that pass chose — so a degraded probe is never routed again, and
          a clear one is never routed;
        * **fast** (analytic, array-at-a-time): everything else, and the
          judged flows that met no fault — three Bernoulli attempts at the
          pair's attempt-drop probability and an RTT from the DC latency
          model, from the same generator, in one draw after the scalar
          probes.

        Every probe still draws a fresh ephemeral source port (the ECMP
        sweep discipline; the slow positions' in entry order, then the
        fast ones'), counts into the conservation ledger, and is reported
        to the round observers — one by one in entry order, as
        :meth:`probe` reports, or in the one report of the analytic draw.
        """
        src_server = self._resolve(src)
        src_id = src_server.device_id
        if not src_server.is_up:
            # No process on a powered-off host: every probe is refused, one
            # by one, by the scalar engine.
            plan = _RoundPlan(src_id, tuple([entry[0] for entry in entries]))
            rows = [
                self.probe(
                    src_server, dst_id, t=t, payload_bytes=payload_bytes,
                    dst_port=dst_port,
                )
                for dst_id, dst_port, payload_bytes in entries
            ]
            return ProbeBatch.assemble(plan, t, range(len(rows)), rows)
        self._check_generation()
        plan = self._round_plan(src_server, entries)
        allocator = self._port_allocator(src_id)
        slow_ports = allocator.allocate_many(len(plan.slow))
        flows, k = plan.flows, len(plan.fast)
        if flows is not None:
            hit, flow_slots = self._judge_flows(flows, slow_ports)
            verdicts, slots = hit.tolist(), flow_slots.tolist()
        rows, scalar_at, clear, clear_ports, no_route = [], [], [], [], []
        for (index, flow), port in zip(plan.slow, slow_ports):
            dst_id, dst_port, payload_bytes = entries[index]
            if flow == -1:
                row = self.probe(
                    src_server, dst_id, t=t, payload_bytes=payload_bytes,
                    dst_port=dst_port, src_port=port,
                )
            elif flow >= 0 and not verdicts[flow]:
                clear.append(k + flow)
                clear_ports.append(port)
                flows.facts[flow].route.dst_tor.counters.packets_forwarded += 1
                continue
            else:  # carried without Fabric.probe, so reported as it reports
                self.probes_carried += 1
                for observer in self.round_observers:
                    observer(src_id, ((dst_id, dst_port, payload_bytes),), t)
                if flow == _NO_ROUTE:
                    no_route.append(port)
                    continue
                there, back = flows.hops(flow, slots)
                dst, route = flows.dsts[flow], flows.facts[flow].route
                five = FiveTuple(src_server.ip, port, dst.ip, dst_port, PROTO_TCP)
                row = self._probe_along(
                    Path(src_server, dst, route.scope, there, route.wan_fwd),
                    Path(dst, src_server, route.scope, back, route.wan_rev),
                    five, five.reversed(), t,
                )
            rows.append(row)
            scalar_at.append(index)
        n = k + len(clear)
        if not n:
            return ProbeBatch.assemble(plan, t, scalar_at, rows, no_route=no_route)
        if flows is None:
            at, p_attempt, wan = plan.at, plan.p_attempt, plan.wan
            hop_classes = plan.hop_classes
        else:
            # Of the analytic candidates, this round draws for the fast
            # positions and the judged flows that met no fault.
            keep = [*range(k), *clear]
            at, p_attempt = plan.at[keep], plan.p_attempt[keep]
            wan = plan.wan[keep] if plan.wan is not None else None
            hop_classes = _hop_classes([plan.n_hops[place] for place in keep])

        # The analytic partition: three attempts' uniforms in one draw (the
        # stream three draws of n would read), then an RTT per hop class.
        dropped = self.rng.random((3, n)) < p_attempt
        latency_model = self._latency[src_server.dc_index]
        if len(hop_classes) == 1:
            rtt_s = latency_model.sample(self.rng, hop_classes[0][0], t=t, n=n)
        else:
            rtt_s = np.empty(n)
            for n_hops, places, count in hop_classes:
                rtt_s[places] = latency_model.sample(self.rng, n_hops, t=t, n=count)
        error = None
        if np.count_nonzero(dropped[0]):
            twice = dropped[0] & dropped[1]
            syn_drops = dropped[0].astype(np.int64) + twice + (twice & dropped[2])
            success = syn_drops < 3
            waited = np.zeros(n)
            waited[syn_drops == 1] = tcp.syn_rtt_signature(1)
            waited[syn_drops == 2] = tcp.syn_rtt_signature(2)
            rtt_s += waited
            if not success.all():
                error = [None if ok else "timeout" for ok in success.tolist()]
        else:  # shared, read-only (whole, unless judged flows went scalar)
            success, syn_drops = plan.no_drops[0][:n], plan.no_drops[1][:n]
        if wan is not None:
            rtt_s += wan
        if error is not None:
            rtt_s = np.where(success, rtt_s, tcp.syn_rtt_signature(3))

        ports = allocator.allocate_many(k)
        if self.round_observers:
            probed = [entries[index] for index in at.tolist()]
            for observer in self.round_observers:
                observer(src_id, probed, t)
        for counters, packets in plan.counters:
            counters.packets_forwarded += packets
        if clear_ports:
            # The clear flows' own forward hops: the source ToR, the switch
            # each tier's hash chose (the destination ToRs counted above).
            flows.facts[0].route.src_tor.counters.packets_forwarded += len(clear_ports)
            carried = np.bincount(flow_slots[flows.forward & ~hit[flows.row]])
            for slot in np.flatnonzero(carried).tolist():
                flows.slots[slot].counters.packets_forwarded += int(carried[slot])
            ports = [*ports, *clear_ports]
        self.probes_carried += n
        if flows is None and not rows and not no_route:
            return ProbeBatch(plan, t, success, rtt_s, syn_drops, error, None, ports)
        return ProbeBatch.assemble(
            plan, t, scalar_at, rows, (at, success, rtt_s, syn_drops, error, ports),
            flow_slots if clear_ports else None, no_route,
        )

    # -- closed-form class rounds ----------------------------------------------

    def _class_facts(self, src: Server, dst: Server) -> _ClassFacts:
        """The pod-pair class facts for two *distinct* servers, memoized.

        The facts are exact, not approximate: per-tier drop budgets make
        ``p_attempt`` independent of the ECMP choice, and hop counts, live
        tiers and the envelope are the route table's.
        """
        self._check_generation()
        key = (src.dc_index, src.pod_index, dst.dc_index, dst.pod_index)
        facts = self._class_facts_cache.get(key)
        if facts is None:
            route = self.router.pod_route(src, dst)
            p_attempt = self._dropmodel[src.dc_index].attempt_drop_prob_kinds(
                SCOPE_HOP_KINDS[route.scope], wan=route.scope is PathScope.INTER_DC
            )
            faulted = self.faults.faulted_switch_ids()
            scalar, tiers = not route.routable, None
            if not scalar and not faulted.isdisjoint(route.envelope):
                # A fault on a ToR or a WAN direction is on every flow's
                # path; one on an ECMP tier only where the hash picks it.
                pinned = {route.src_tor.device_id, route.dst_tor.device_id}
                if route.scope is PathScope.INTER_DC:
                    there, back = (src.dc_index, dst.dc_index), (dst.dc_index, src.dc_index)
                    pinned.update((wan_link_id(*there), wan_link_id(*back)))
                scalar = not faulted.isdisjoint(pinned)
                if not scalar:
                    reverse = self.router.pod_route(dst, src)
                    tiers = np.array(
                        [
                            (salt, len(live), self._tier_offset(live), forward)
                            for each, forward in ((route, 1), (reverse, 0))
                            for live, salt in each.tiers
                        ],
                        dtype=np.uint64,
                    ).T
            facts = self._class_facts_cache[key] = _ClassFacts(
                route=route,
                p_attempt=p_attempt,
                scalar=scalar,
                tiers=tiers,
                class_key=(
                    src.dc_index, dst.dc_index, route.scope, route.n_hops,
                    route.wan_fwd, route.wan_rev, p_attempt,
                ),
            )
        return facts

    def _class_row(self, facts: _ClassFacts) -> int:
        """A pod pair's row in ``_class_table`` (added on first use); -1: passed through."""
        if facts.scalar or facts.tiers is not None:
            return -1
        tiers = [x for live, _ in facts.route.tiers for x in (self._tier_offset(live), len(live))]
        code = (facts.class_key, *tiers)
        row = self._class_rows.get(code)
        if row is None:
            row = self._class_rows[code] = len(self._class_rows)
            table = self._class_table
            if row == len(table):
                table = self._class_table = np.resize(table, (2 * row + 16, table.shape[1]))
            number = self._class_keys.setdefault(facts.class_key, len(self._class_keys))
            table[row] = [number, *tiers, *[0] * (2 * _MAX_TIERS - len(tiers))]
        return row

    def _tier_offset(self, live: tuple[Switch, ...]) -> int:
        """Where a tier's live switches sit in ``_slots`` (added on first use)."""
        offset = self._tier_offsets.get(live[0].device_id)
        if offset is None:
            offset = self._tier_offsets[live[0].device_id] = len(self._slots)
            self._slots.extend(live)
            faulted = self.faults.faulted_switch_ids()
            self._slot_faulted = np.append(
                self._slot_faulted, [switch.device_id in faulted for switch in live]
            )
        return offset

    def build_class_plan(
        self,
        src: Server | str,
        entries: Sequence[ProbeEntry],
        tags: Sequence[tuple[str, str]] | None = None,
    ) -> ClassRoundPlan:
        """Compile one agent's probe round into closed-form class groups:
        :meth:`compile_class_plan` with every entry probed from ``src``."""
        numbers: dict[tuple[str, str], int] = {}
        tags = [("tor-level", "high")] * len(entries) if tags is None else tags
        tag_at = [numbers.setdefault(tag, len(numbers)) for tag in tags]
        return self.compile_class_plan(
            np.full(len(entries), self.server_numbers([getattr(src, "device_id", src)])[0]),
            self.server_numbers([entry[0] for entry in entries]),
            np.array([entry[2] for entry in entries], dtype=np.int64),
            np.array(tag_at, dtype=np.intp),
            list(numbers),
            lambda: entries,
        )

    def compile_class_plan(
        self,
        src_at: np.ndarray,
        dst_at: np.ndarray,
        payload: np.ndarray,
        tag_at: np.ndarray,
        tags: Sequence[tuple[str, str]],
        entries: Callable[[], Sequence[ProbeEntry]],
    ) -> ClassRoundPlan:
        """Compile probes into closed-form class groups, a source per entry.

        Entry ``i`` is probed from server number ``src_at[i]`` (numbers are
        :meth:`server_numbers`') to ``dst_at[i]`` with ``payload[i]`` bytes,
        tagged ``tags[tag_at[i]]`` (purpose, qos); grouping keys on the tag
        plus the pod pair's class key — never on the source — so a round of
        many sources (the broker's) has as few groups as path classes.
        ``entries`` makes the round as round observers see it, called only
        if the plan's ``rounds`` are read.  Entries
        that need per-pair fidelity land in ``passthrough`` (by index) —
        exactly the pairs :meth:`probe_many`'s partition rule would refuse
        to fast-path, plus same-host entries.

        Per entry only its pod pair and liveness are read; the rest is array
        passes over the generation's class table: groups and sources by
        first appearance, member ordinals by a stable sort, and every
        member's representative forward path (ToRs, and per ECMP tier the
        live switch its ordinal picks) counted in one bincount.
        """
        self._check_generation()
        servers = self.servers
        up = np.array([servers[dst].is_up for dst in dst_at.tolist()], dtype=bool)
        candidate = np.flatnonzero((payload <= 0) & (src_at != dst_at) & up)
        if self._pair_rows is None:
            self._pair_rows = np.full((len(self._tors),) * 2, -2, dtype=np.int32)
        pair_rows, pods = self._pair_rows, self._server_pods
        src_pod, dst_pod = pods[src_at[candidate]], pods[dst_at[candidate]]
        unseen = np.flatnonzero(pair_rows[src_pod, dst_pod] == -2)
        for at, pair in zip(
            candidate[unseen].tolist(), zip(src_pod[unseen].tolist(), dst_pod[unseen].tolist())
        ):
            if pair_rows[pair] == -2:  # facts from one of its own entries: a distinct pair
                facts = self._class_facts(servers[src_at[at]], servers[dst_at[at]])
                pair_rows[pair] = self._class_row(facts)
        rows = pair_rows[src_pod, dst_pod]
        served = rows >= 0
        member, src_pod, dst_pod = candidate[served], src_pod[served], dst_pod[served]
        table = self._class_table[rows[served]]
        keys = list(self._class_keys)
        order, starts, sizes = _runs(tag_at[member] * len(keys) + table[:, 0])
        ordinal = np.empty(len(member), dtype=np.int64)
        ordinal[order] = np.arange(len(member)) - np.repeat(starts, sizes)
        lives, n_tors = table[:, 2::2], len(self._tors)  # a hop: a ToR, or n_tors + a slot
        packets = np.bincount(np.concatenate([
            src_pod, dst_pod[dst_pod != src_pod],
            n_tors + (table[:, 1::2] + ordinal[:, None] % np.maximum(lives, 1))[lives > 0],
        ]))
        hit = np.flatnonzero(packets)
        switches = self._tors + self._slots
        groups = []
        for at, number, size in zip(
            member[order[starts]].tolist(), table[order[starts], 0].tolist(), sizes.tolist()
        ):
            dc_index, dst_dc, scope, n_hops, wan_fwd, wan_rev, p_attempt = keys[number]
            groups.append(ClassGroup(*tags[tag_at[at]], dc_index, dst_dc, scope, n_hops,
                                     wan_fwd, wan_rev, wan_fwd + wan_rev, p_attempt, size))
        passthrough = np.ones(len(src_at), dtype=bool)
        passthrough[member] = False
        grouped = member[order].tolist()
        return ClassRoundPlan(
            version=self.topology.state_version.value,
            groups=groups,
            passthrough=np.flatnonzero(passthrough).tolist(),
            n_class_probes=len(member),
            counter_increments=list(
                zip([switches[hop].counters for hop in hit.tolist()], packets[hit].tolist())
            ),
            member_indices=[grouped[a:a + n] for a, n in zip(starts.tolist(), sizes.tolist())],
            make_rounds=lambda: _rounds_by_source(servers, src_at, member, entries),
        )

    def class_plan_shape(
        self,
        src: Server | str,
        entries: Sequence[ProbeEntry],
        tags: Sequence[tuple[str, str]],
    ) -> tuple[tuple, tuple[Server, ...]]:
        """What :meth:`build_class_plan` reads of a round, minus liveness.

        Returns ``(shape, destinations)``.  The shape is the source's pod
        followed, position by position, by each entry's ``(dst dc, dst pod,
        port, payload, tag)`` (pod -1 for a same-host entry); it holds for
        as long as the entries do, across state generations.  Every verdict
        of a compile — passthrough or class, group key, member ordinal and
        with it the SNMP path — is a function of the shape plus which of
        ``destinations`` are up, so two rounds that agree on both compile
        to plans differing only in who the members are, and one plan can
        serve as the other's template (:func:`merge_class_plans`).
        """
        src_server = self._resolve(src)
        src_id = src_server.device_id
        shape: list = [src_server.dc_index, src_server.pod_index]
        destinations = []
        for (dst_id, dst_port, payload_bytes), tag in zip(entries, tags):
            dst_server = self._resolve(dst_id)
            destinations.append(dst_server)
            shape.append(
                (
                    dst_server.dc_index,
                    -1 if dst_id == src_id else dst_server.pod_index,
                    dst_port,
                    payload_bytes,
                    tag,
                )
            )
        return tuple(shape), tuple(destinations)

    def run_class_plan(
        self,
        plan: ClassRoundPlan,
        t: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> list[ClassOutcome]:
        """Execute one round of a class plan: one multinomial outcome draw
        plus one latency sample per group.

        The analytic model is :meth:`probe_many`'s: per-attempt drops are
        i.i.d. Bernoulli(p_attempt), so a group of ``m`` pairs is one
        Multinomial(m, [success, 1-drop, 2-drop, failure]) draw; successful
        RTTs sample from the DC latency model with the retransmission
        signatures added per segment.
        """
        self.check_class_plan(plan)
        draw = rng if rng is not None else self.rng
        outcomes = execute_class_groups(plan.groups, self._latency, t, draw)
        self.account_class_round(plan, t)
        return outcomes

    def check_class_plan(self, plan: ClassRoundPlan) -> None:
        """Refuse a plan compiled at another state generation."""
        if plan.version != self.topology.state_version.value:
            raise ValueError(
                f"stale class plan: built at generation {plan.version}, "
                f"fabric is at {self.topology.state_version.value}"
            )

    def account_class_round(self, plan: ClassRoundPlan, t: float) -> None:
        """A class round's shared-state side effects, after its draws: one
        report per source to the round observers, the conservation ledger
        and SNMP counters."""
        if self.round_observers:
            for src_id, entries, positions in plan.rounds:
                probed = [entries[index] for index in positions]
                for observer in self.round_observers:
                    observer(src_id, probed, t)
        self.probes_carried += plan.n_class_probes
        for counters, packets in plan.counter_increments:
            counters.packets_forwarded += packets

    # -- switch management -----------------------------------------------------

    def reload_switch(self, switch: Switch | str) -> list:
        """Reload a switch: clears reload-fixable faults (§5.1)."""
        if isinstance(switch, str):
            device = self.topology.device(switch)
            if not isinstance(device, Switch):
                raise TypeError(f"{switch} is not a switch")
            switch = device
        switch.reload()
        return self.faults.on_reload(switch)

    def isolate_switch(self, switch: Switch | str) -> None:
        """Take a switch out of rotation (silent-drop mitigation, §5.2)."""
        if isinstance(switch, str):
            device = self.topology.device(switch)
            if not isinstance(device, Switch):
                raise TypeError(f"{switch} is not a switch")
            switch = device
        switch.isolate()
