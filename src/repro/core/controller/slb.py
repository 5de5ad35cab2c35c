"""Software load balancer: one VIP, many DIPs (§3.3.2).

"A Pingmesh Controller has a set of servers behind a single VIP ... SLB
distributes the requests from the Pingmesh Agents to the Pingmesh Controller
servers. ... once a Pingmesh Controller server stops functioning, it is
automatically removed from rotation by the SLB."

We model the Ananta-style behaviour Pingmesh relies on: round-robin
dispatch over healthy DIPs, health checks that eject dead backends, and
re-admission when they recover.  The same class fronts the Cosmos ingest
endpoint and the VIPs that §6.2's VIP monitoring probes.

Health checks are interval-based on the sim clock (``pick(t=...)`` /
``run_health_checks(t=...)``): sweeping every DIP on every request is
O(replicas) on the controller hot path, which is exactly the cost the
paper's SLB exists to avoid.  Calling ``run_health_checks()`` with no
``t`` forces an immediate sweep — the escape hatch tests and VIP-dark
checks rely on.  Orthogonally, each DIP carries an optional
:class:`~repro.resilience.CircuitBreaker` fed by ``report_success`` /
``report_failure`` from the request path, which ejects *slow* (browned
out) backends that still pass the up/down health check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.resilience import CircuitBreaker, CircuitBreakerConfig

__all__ = ["Backend", "NoHealthyBackendError", "SoftwareLoadBalancer"]


class NoHealthyBackendError(Exception):
    """Every DIP behind the VIP is out of rotation."""


@dataclass
class Backend:
    """One DIP behind the VIP."""

    dip: str
    healthy: bool = True
    requests_served: int = 0
    breaker: CircuitBreaker | None = None


class SoftwareLoadBalancer:
    """Round-robin VIP → DIP dispatch with health-based rotation."""

    def __init__(
        self,
        vip: str,
        dips: list[str],
        health_check: Callable[[str], bool] | None = None,
        health_check_interval_s: float = 30.0,
        breaker_config: CircuitBreakerConfig | None = None,
    ) -> None:
        if not dips:
            raise ValueError("an SLB VIP needs at least one DIP")
        if len(set(dips)) != len(dips):
            raise ValueError(f"duplicate DIPs behind {vip}: {dips}")
        if health_check_interval_s < 0:
            raise ValueError("health_check_interval_s must be >= 0")
        self.vip = vip
        self.breaker_config = breaker_config
        self.backends: dict[str, Backend] = {
            dip: self._new_backend(dip) for dip in dips
        }
        self._order: list[str] = list(dips)
        self._next = 0
        self._health_check = health_check
        self.health_check_interval_s = health_check_interval_s
        self._last_health_check_t: float | None = None
        self.health_check_sweeps = 0
        self.requests_total = 0

    def _new_backend(self, dip: str) -> Backend:
        breaker = (
            CircuitBreaker(self.breaker_config) if self.breaker_config else None
        )
        return Backend(dip, breaker=breaker)

    # -- rotation management --------------------------------------------------

    def _backend(self, dip: str) -> Backend:
        try:
            return self.backends[dip]
        except KeyError:
            raise KeyError(f"no such DIP behind {self.vip}: {dip}") from None

    def run_health_checks(self, t: float | None = None) -> list[str]:
        """Probe every DIP; returns the DIPs currently out of rotation.

        With ``t`` given, the sweep only actually runs once per
        ``health_check_interval_s`` of sim time (the steady-state path);
        without ``t`` it runs unconditionally (the forced escape hatch).
        Either way the current out-of-rotation list is returned.
        """
        if t is not None and self._last_health_check_t is not None:
            if t - self._last_health_check_t < self.health_check_interval_s:
                return self.out_of_rotation()
        if self._health_check is not None:
            self.health_check_sweeps += 1
            for backend in self.backends.values():
                backend.healthy = bool(self._health_check(backend.dip))
        if t is not None:
            self._last_health_check_t = t
        return self.out_of_rotation()

    def healthy_dips(self) -> list[str]:
        return [dip for dip in self._order if self.backends[dip].healthy]

    def out_of_rotation(self) -> list[str]:
        return [dip for dip in self._order if not self.backends[dip].healthy]

    # -- request-path evidence -------------------------------------------------

    def report_success(self, dip: str, t: float = 0.0) -> None:
        """The request sent to ``dip`` completed normally."""
        backend = self._backend(dip)
        if backend.breaker is not None:
            backend.breaker.record_success(t)

    def report_failure(self, dip: str, t: float = 0.0) -> None:
        """The request sent to ``dip`` failed or timed out."""
        backend = self._backend(dip)
        if backend.breaker is not None:
            backend.breaker.record_failure(t)

    # -- dispatch ------------------------------------------------------------------

    def pick(self, t: float = 0.0, exclude: set[str] | None = None) -> str:
        """Choose the next healthy DIP, round-robin.

        DIPs whose circuit breaker refuses requests at ``t`` are skipped
        exactly like unhealthy ones; ``exclude`` lets a failover loop
        avoid re-picking replicas it already tried this request.  Raises
        :class:`NoHealthyBackendError` when the VIP is dark — the
        condition that trips the agents' fail-closed logic.
        """
        for _ in range(len(self._order)):
            dip = self._order[self._next % len(self._order)]
            self._next += 1
            backend = self.backends[dip]
            if not backend.healthy:
                continue
            if exclude and dip in exclude:
                continue
            if backend.breaker is not None and not backend.breaker.allow(t):
                continue
            backend.requests_served += 1
            self.requests_total += 1
            return dip
        raise NoHealthyBackendError(f"no healthy backend behind {self.vip}")
