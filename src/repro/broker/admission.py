"""Admission control for the measurement broker.

Admission is where "serving millions of users" meets §3.4.2's "must not
create live-site incidents": every bound here caps the worst case the
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
* ``bad-params`` — a burst's ``probes_per_pair`` or ``payload_bytes`` is
  not an integer, or its ``deadline_s`` is not a positive finite number;
  a read query's ``windows`` / ``since_s`` is not a number (or
  ``since_s`` is negative or not finite), or ``cls`` / ``exclude_cls`` is
  not a class name.  Out-of-range ``windows`` are clamped to
  ``[1, retention_windows]``, not rejected.
* ``stream-unavailable`` — a stream read with no stream plane attached.

Oversized bursts are *truncated, never silently rejected*: a burst asking
for more pairs or probes-per-pair than the caps allow is clamped, the
clamp is recorded on the channel (``truncated``), and only the clamped
cost is debited.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience import CircuitBreakerConfig

__all__ = ["AdmissionConfig", "dst_port_for"]

# Per-request clamps: a burst is cut to these, visibly (truncated).
MAX_PAIRS_PER_REQUEST = 256
MAX_PROBES_PER_PAIR = 8
# Safety-limit interaction: how much extra work one round may carry.
# Per agent: the injected entries ride the agent's round, so this caps
# the marginal per-server traffic; per fleet round it caps the global
# blast radius of a tenant storm.
MAX_INJECTED_PER_AGENT_ROUND = 64
MAX_INJECTED_PER_FLEET_ROUND = 16_384
# Lifecycle: a burst with no deadline of its own expires after this.
REQUEST_TIMEOUT_S = 600.0
# Credit pricing.
CREDIT_COST_PER_PROBE = 1
READ_QUERY_COST = 1
# Injected probes land on a dedicated destination-port range so the
# spacing-floor invariant keys them apart from baseline pinglist
# probes (ports 80-82) and per-request ports keep concurrent tenants'
# identical pairs apart.
PORT_BASE = 20_000
PORT_SPAN = 4096
# Broker->fleet edge: trips open when the fleet looks degraded (no
# healthy controller replica, or more than MAX_STALE_FRACTION of the
# fleet probing stale pinglists) and fails burst admission closed.
FLEET_BREAKER = CircuitBreakerConfig(failure_threshold=2, open_duration_s=120.0)
MAX_STALE_FRACTION = 0.5


@dataclass(frozen=True)
class AdmissionConfig:
    """Broker-wide load shedding: the in-flight request cap."""

    max_inflight_requests: int = 1024

    def __post_init__(self) -> None:
        if self.max_inflight_requests < 1:
            raise ValueError(
                f"max_inflight_requests must be >= 1: {self.max_inflight_requests}"
            )


def dst_port_for(request_id: int) -> int:
    """The destination port one request's injected probes use."""
    return PORT_BASE + request_id % PORT_SPAN
