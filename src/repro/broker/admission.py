"""Admission control for the measurement broker.

Admission is where "serving millions of users" meets §3.4.2's "must not
create live-site incidents": every knob here bounds the worst case the
broker can inject into the live fleet, independent of tenant behaviour.

Reject reasons (terminal, no credits debited):

* ``unknown-tenant`` — tenants must be registered before submitting.
* ``broker-overloaded`` — the in-flight request cap is hit.
* ``fleet-degraded`` — the broker→fleet circuit breaker is open (burst
  requests only: read queries never touch the fleet and stay admitted).
* ``insufficient-credits`` — the tenant's balance cannot cover the
  (post-clamp) cost.
* ``empty-target`` — target selectors expanded to zero pairs.
* ``bad-target`` — a selector or pair names nothing in the topology.
* ``bad-params`` — a read query's ``windows`` / ``since_s`` is not a
  number (or ``since_s`` is negative or not finite), or ``cls`` /
  ``exclude_cls`` is not a class name.  Out-of-range ``windows`` are
  clamped to ``[1, retention_windows]``, not rejected.
* ``stream-unavailable`` — a stream read with no stream plane attached.

Oversized bursts are *truncated, never silently rejected*: a burst asking
for more pairs or probes-per-pair than the caps allow is clamped, the
clamp is recorded on the channel (``truncated``), and only the clamped
cost is debited.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience import CircuitBreakerConfig

__all__ = ["AdmissionConfig"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Global admission-control bounds (tenant-independent)."""

    # Per-request clamps: a burst is cut to these, visibly (truncated).
    max_pairs_per_request: int = 256
    max_probes_per_pair: int = 8
    # Broker-wide load shedding.
    max_inflight_requests: int = 1024
    # Safety-limit interaction: how much extra work one round may carry.
    # Per agent: the injected entries ride the agent's round, so this caps
    # the marginal per-server traffic; per fleet round it caps the global
    # blast radius of a tenant storm.
    max_injected_per_agent_round: int = 64
    max_injected_per_fleet_round: int = 16_384
    # Lifecycle.
    request_timeout_s: float = 600.0
    # Credit pricing.
    credit_cost_per_probe: int = 1
    read_query_cost: int = 1
    # Injected probes land on a dedicated destination-port range so the
    # spacing-floor invariant keys them apart from baseline pinglist
    # probes (ports 80-82) and per-request ports keep concurrent tenants'
    # identical pairs apart.
    port_base: int = 20_000
    port_span: int = 4096
    # Broker→fleet edge: trips open when the fleet looks degraded (no
    # healthy controller replica, or too much of the fleet probing stale
    # pinglists) and fails burst admission closed.
    breaker: CircuitBreakerConfig = CircuitBreakerConfig(
        failure_threshold=2, open_duration_s=120.0
    )
    max_stale_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.max_pairs_per_request < 1:
            raise ValueError(
                f"max_pairs_per_request must be >= 1: {self.max_pairs_per_request}"
            )
        if self.max_probes_per_pair < 1:
            raise ValueError(
                f"max_probes_per_pair must be >= 1: {self.max_probes_per_pair}"
            )
        if self.max_inflight_requests < 1:
            raise ValueError(
                f"max_inflight_requests must be >= 1: {self.max_inflight_requests}"
            )
        if self.max_injected_per_agent_round < 1:
            raise ValueError(
                "max_injected_per_agent_round must be >= 1: "
                f"{self.max_injected_per_agent_round}"
            )
        if self.max_injected_per_fleet_round < 1:
            raise ValueError(
                "max_injected_per_fleet_round must be >= 1: "
                f"{self.max_injected_per_fleet_round}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive: {self.request_timeout_s}"
            )
        if self.credit_cost_per_probe < 0 or self.read_query_cost < 0:
            raise ValueError("credit costs must be >= 0")
        if self.port_span < 1:
            raise ValueError(f"port_span must be >= 1: {self.port_span}")
        if not 0.0 < self.max_stale_fraction <= 1.0:
            raise ValueError(
                f"max_stale_fraction must be in (0, 1]: {self.max_stale_fraction}"
            )

    def dst_port_for(self, request_id: int) -> int:
        return self.port_base + request_id % self.port_span
