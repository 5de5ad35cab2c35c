"""The Pingmesh Controller web service (§3.3.2).

Stateless by construction: "Every Pingmesh Controller server runs the same
piece of code and generates the same set of Pinglist files for all the
servers and is able to serve requests from any Pingmesh Agent."  Agents
*pull* ("the Pingmesh Controller does not push any data") via a RESTful API:

    GET /pinglist/<server_id>  ->  the server's pinglist XML

Each controller replica regenerates all pinglist files on topology or
configuration change (bumping a generation number) and serves them from its
local file cache ("the files are then stored in SSD").  The set of replicas
sits behind an SLB VIP; removing every pinglist file is the documented kill
switch — agents that get 404s fall closed and stop probing (§3.4.2).

Degraded modes are first-class here: a replica can be *browned out*
(answering, but slower than the agent's request timeout) as well as down,
requests fail over across replicas within one VIP call, and per-replica
circuit breakers eject a replica on request evidence — which is how a
slow-but-"up" replica leaves rotation even though the up/down health
check still passes.  A 404 never fails over: it is an application-level
answer (the kill switch), not a transport failure, and retrying it on a
peer would mask the paper's fail-closed trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller.generator import GeneratorConfig, PingmeshGenerator
from repro.core.controller.pinglist import Pinglist
from repro.core.controller.slb import NoHealthyBackendError, SoftwareLoadBalancer
from repro.netsim.topology import MultiDCTopology
from repro.resilience import CircuitBreakerConfig

__all__ = [
    "ControllerReplica",
    "ControllerTimeoutError",
    "ControllerUnavailableError",
    "PinglistNotFoundError",
    "PingmeshControllerService",
]

# How much per-second request history the service keeps: the trailing hour,
# which covers every recovery wave (refresh periods and backoff caps are
# minutes) while a deployment that runs for months holds 3,600 counters.
REQUEST_HISTORY_S = 3600


class ControllerUnavailableError(Exception):
    """The controller VIP did not answer (connect failure)."""


class ControllerTimeoutError(ControllerUnavailableError):
    """A replica answered too slowly (brownout) — slow, not dead.

    Subclasses :class:`ControllerUnavailableError` because to the agent's
    fail-closed rule a timeout *is* a connect failure; the distinct type
    exists so the SLB/breaker layer can tell brownouts from blackouts.
    """


class PinglistNotFoundError(Exception):
    """The controller answered but has no pinglist for the server (404)."""


@dataclass
class ControllerReplica:
    """One controller server: an SSD-backed cache of pinglist files.

    The cache is *lazy*: ``files`` starts empty after every (re)generation
    and each pinglist is generated on its first GET through ``loader`` —
    regeneration and recovery are O(1), and the generating work a replica
    does is exactly the set of pinglists agents actually fetched from it.
    A file is kept as its :class:`Pinglist` (whose entry tuple is the
    generator memo's own) and rendered to XML on each 200: the XML text is
    ~6 KB a server and is needed only for the one response that carries it.
    ``killed`` marks the kill switch (§3.4.2): a killed replica must 404
    every GET, and laziness must never mask that — an empty cache and a
    deliberately emptied one are different states.
    """

    dip: str
    files: dict[str, Pinglist] = field(default_factory=dict)  # by server_id
    generation: int = 0
    up: bool = True
    requests_served: int = 0
    # Download telemetry (the ROADMAP's "one-shot and unmeasured" gap):
    # response-class counters plus accumulated serving time, per replica.
    responses_200: int = 0
    responses_304: int = 0
    responses_404: int = 0
    responses_timeout: int = 0
    serve_time_s: float = 0.0
    # Brownout model: how long this replica takes to answer.  The service
    # compares it against the agent-side request timeout.
    response_delay_s: float = 0.0
    killed: bool = False
    stamp_t: float = 0.0  # generatedAt for lazily generated files
    # (server_id, generation, stamp_t) -> Pinglist | None; None means 404.
    loader: object = None

    def serve(self, server_id: str) -> str:
        if not self.up:
            raise ControllerUnavailableError(f"controller {self.dip} is down")
        self.requests_served += 1
        self.serve_time_s += self.response_delay_s
        pinglist = self.files.get(server_id)
        if pinglist is None and not self.killed and self.loader is not None:
            pinglist = self.loader(server_id, self.generation, self.stamp_t)
            if pinglist is not None:
                self.files[server_id] = pinglist
        if pinglist is not None:
            self.responses_200 += 1
            return pinglist.to_xml()
        self.responses_404 += 1
        raise PinglistNotFoundError(
            f"no pinglist for {server_id} on {self.dip}"
        )


class PingmeshControllerService:
    """A replicated, stateless controller behind one VIP."""

    def __init__(
        self,
        topology: MultiDCTopology,
        config: GeneratorConfig | None = None,
        n_replicas: int = 2,
        vip: str = "pingmesh-controller.vip",
        request_timeout_s: float = 1.0,
        health_check_interval_s: float = 30.0,
        breaker_config: CircuitBreakerConfig | None = CircuitBreakerConfig(
            failure_threshold=3, open_duration_s=60.0
        ),
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"need at least one replica: {n_replicas}")
        if request_timeout_s <= 0:
            raise ValueError(f"request timeout must be positive: {request_timeout_s}")
        self.topology = topology
        self.generator = PingmeshGenerator(topology, config)
        self.replicas: dict[str, ControllerReplica] = {
            f"controller{i}": ControllerReplica(
                dip=f"controller{i}", loader=self._load_pinglist
            )
            for i in range(n_replicas)
        }
        self.slb = SoftwareLoadBalancer(
            vip,
            list(self.replicas),
            health_check=lambda dip: self.replicas[dip].up,
            health_check_interval_s=health_check_interval_s,
            breaker_config=breaker_config,
        )
        self.request_timeout_s = request_timeout_s
        self.generation = 0
        self.last_generated_t = 0.0
        # Herd telemetry: requests per whole sim-second over the trailing
        # REQUEST_HISTORY_S, used by the recovery-stampede invariant/bench
        # to measure peak QPS.
        self.requests_by_second: dict[int, int] = {}

    # -- generation ------------------------------------------------------------

    def _load_pinglist(
        self, server_id: str, generation: int, t: float
    ) -> Pinglist | None:
        """Generate one server's pinglist, or None for an unknown server.

        The replicas' lazy loader.  Determinism keeps the replicas
        stateless: every replica loading (generation, stamp, server)
        serves byte-identical XML, because the generator's entry memo and
        frozen inter-DC selection are shared and liveness-independent.
        """
        if not self._server_known(server_id):
            return None
        return self.generator.generate_for(server_id, generation=generation, t=t)

    def _server_known(self, server_id: str) -> bool:
        try:
            self.topology.server(server_id)
        except (KeyError, TypeError):
            return False
        return True

    def regenerate(self, t: float = 0.0, changed_dcs=None) -> int:
        """Start a new generation on every replica — O(changed), not O(N).

        No pinglist is generated here: each replica's cache is cleared and
        repopulated lazily on GET, and the generator's entry memo is
        invalidated only for the servers ``changed_dcs`` (plus any moved
        inter-DC participants) actually dirty.  ``changed_dcs=None`` means
        "unknown delta" and invalidates everything — still O(1)
        work now, just no memo reuse later.  Returns the new generation.
        """
        self.generation += 1
        self.last_generated_t = t
        self.generator.note_topology_delta(changed_dcs)
        for replica in self.replicas.values():
            if replica.up:
                replica.files = {}
                replica.generation = self.generation
                replica.stamp_t = t
                replica.killed = False
        return self.generation

    def remove_all_pinglists(self) -> None:
        """The kill switch: "we can stop the Pingmesh Agent from working by
        simply removing all the pinglist files from the controller".

        Sets ``killed`` as well as clearing the caches — under lazy
        rendering an empty cache would otherwise just repopulate itself.
        """
        for replica in self.replicas.values():
            replica.files = {}
            replica.killed = True

    # -- the RESTful API, as seen by agents ------------------------------------------

    def get_pinglist(
        self,
        server_id: str,
        if_generation: int | None = None,
        t: float = 0.0,
    ) -> Pinglist | None:
        """GET /pinglist/<server_id> through the VIP.

        ``if_generation`` is the conditional-GET header: when the serving
        replica's file set is still at that generation, the response is a
        304 (returned as ``None``) and no body crosses the wire — with
        hundreds of thousands of agents polling, most polls find nothing
        new, and this is what keeps the controller cheap to run.

        One VIP call tries each replica at most once, failing over on
        transport errors (down or browned out past the request timeout)
        and feeding the per-replica circuit breakers.  A 404 is final —
        it is the kill switch, not a transport failure.

        Raises :class:`ControllerUnavailableError` when no replica could
        answer (:class:`ControllerTimeoutError` when the last failure was
        slowness rather than death), and :class:`PinglistNotFoundError`
        on a 404 — the two failures the agent's fail-closed logic
        distinguishes (§3.4.2).
        """
        self._count_request(int(t))
        self.slb.run_health_checks(t)
        tried: set[str] = set()
        last_exc: ControllerUnavailableError | None = None
        for _ in range(len(self.replicas)):
            try:
                dip = self.slb.pick(t, exclude=tried)
            except NoHealthyBackendError:
                break
            tried.add(dip)
            replica = self.replicas[dip]
            try:
                if replica.up and replica.response_delay_s > self.request_timeout_s:
                    replica.responses_timeout += 1
                    raise ControllerTimeoutError(
                        f"controller {dip} answered in {replica.response_delay_s}s"
                        f" > timeout {self.request_timeout_s}s"
                    )
                if (
                    replica.up
                    and if_generation is not None
                    and replica.generation == if_generation
                    and not replica.killed
                    and self._server_known(server_id)
                ):
                    replica.requests_served += 1
                    replica.responses_304 += 1
                    replica.serve_time_s += replica.response_delay_s
                    self.slb.report_success(dip, t)
                    return None  # 304 Not Modified
                xml = replica.serve(server_id)
            except PinglistNotFoundError:
                # The replica is functioning; the pinglist is deliberately
                # absent.  Never fail over — agents must see the 404.
                self.slb.report_success(dip, t)
                raise
            except ControllerUnavailableError as exc:
                self.slb.report_failure(dip, t)
                last_exc = exc
                continue
            self.slb.report_success(dip, t)
            return Pinglist.from_xml(xml)
        if last_exc is not None:
            raise last_exc
        raise ControllerUnavailableError(
            f"no healthy backend behind {self.slb.vip}"
        )

    def _count_request(self, second: int) -> None:
        counts = self.requests_by_second
        if second in counts:
            counts[second] += 1
            return
        counts[second] = 1
        # A new second opened: expire from the old end (insertion order is
        # time order, the sim clock does not run backwards).
        horizon = second - REQUEST_HISTORY_S
        while (oldest := next(iter(counts))) < horizon:
            del counts[oldest]

    # -- failure injection for tests/benches ------------------------------------------

    def fail_replica(self, dip: str) -> None:
        self.replicas[dip].up = False

    def brownout_replica(self, dip: str, response_delay_s: float) -> None:
        """Make a replica slow (still up) — the degraded mode §3.3.2's
        up/down health check cannot see."""
        self.replicas[dip].response_delay_s = response_delay_s

    def clear_brownout(self, dip: str) -> None:
        self.replicas[dip].response_delay_s = 0.0

    def recover_replica(self, dip: str, t: float | None = None) -> None:
        """Bring a replica back at the current generation — O(1).

        No eager rebuild: the recovered replica generates each pinglist on
        first GET through the shared (memoized) generator, so recovery
        cost no longer scales with fleet size.  ``t`` stamps the lazily
        generated files; it defaults to the time of the fleet's last
        generation so a recovered replica serves byte-identical files —
        it must never re-stamp the current generation with a stale t=0.0
        (agents would see "new" files that are actually old).
        """
        replica = self.replicas[dip]
        replica.up = True
        replica.files = {}
        replica.killed = False
        replica.stamp_t = self.last_generated_t if t is None else t
        replica.generation = self.generation

    def healthy_replica_count(self) -> int:
        return sum(1 for replica in self.replicas.values() if replica.up)

    def download_stats(self) -> dict:
        """Aggregate pinglist-download telemetry across replicas.

        ``requests`` counts answered requests (200 + 304 + 404); timeouts
        are replica attempts that browned out past the agent deadline and
        failed over, so they are reported separately, not double-counted.
        """
        stats = {
            "requests": 0,
            "responses_200": 0,
            "responses_304": 0,
            "responses_404": 0,
            "responses_timeout": 0,
            "serve_time_s": 0.0,
            "per_replica": {},
        }
        for dip, replica in self.replicas.items():
            answered = (
                replica.responses_200
                + replica.responses_304
                + replica.responses_404
            )
            stats["requests"] += answered
            stats["responses_200"] += replica.responses_200
            stats["responses_304"] += replica.responses_304
            stats["responses_404"] += replica.responses_404
            stats["responses_timeout"] += replica.responses_timeout
            stats["serve_time_s"] += replica.serve_time_s
            stats["per_replica"][dip] = {
                "requests": answered,
                "responses_200": replica.responses_200,
                "responses_304": replica.responses_304,
                "responses_404": replica.responses_404,
                "responses_timeout": replica.responses_timeout,
                "serve_time_s": replica.serve_time_s,
            }
        return stats
