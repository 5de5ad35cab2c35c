"""RTT sampling: where the microseconds (and the odd second) come from.

Section 2.2 decomposes RTT into application processing, kernel stack and
driver, NIC (DMA, interrupt moderation), transmission, propagation, and
switch queueing.  We model the measurable RTT of a successful probe as:

``rtt = host_share + sum(per-hop shares) + wan_propagation
        [+ stall] [+ payload transmission + echo processing]``

* *host share* — both endpoints' kernel/NIC work, lognormal.  Its median
  (~200 µs) dominates the P50, matching Figure 4(c)'s 216 µs intra-pod P50.
* *per-hop share* — serialization + propagation + light queueing per switch
  traversed (counted once per RTT per switch; the switch is crossed in both
  directions, the parameters fold that in).  Medians of ~12 µs explain the
  52 µs intra→inter P50 gap across 4 extra hops.
* *burst queueing* — with probability ``burst_probability(t)`` a hop adds an
  exponential burst; this builds the 1–3 ms P99 region.
* *stall* — rare OS scheduling stalls (the server "is not a real-time
  operating system", §4.1) with a heavy lognormal; these create the
  23 ms P99.9 / 1.4 s P99.99 tail of DC1.
* *payload* — payload probes add wire transmission plus a user-space echo
  cost, widening the P99 gap exactly as Figure 4(d) shows.

All sampling is vectorized over numpy so the benches can draw 10⁶+ RTTs.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.workload import WorkloadProfile

__all__ = ["LatencyModel", "LINK_SPEED_BPS"]

LINK_SPEED_BPS = 10e9  # 10GbE access links (§2.1)


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """``matrix.sum(axis=1)``, bit for bit.  Below eight columns numpy adds a
    row left to right, as column adds do (a call per column: worth it on long
    matrices); from eight it adds pairwise, which column adds do not repeat."""
    n_rows, n_cols = matrix.shape
    if n_cols >= 8 or n_rows < 256:
        return np.add.reduce(matrix, axis=1)
    total = matrix[:, 0].copy()
    for col in range(1, n_cols):
        total += matrix[:, col]
    return total


class LatencyModel:
    """Samples successful-probe RTTs for a given workload profile."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile

    # -- components --------------------------------------------------------

    def _lognormal(
        self, rng: np.random.Generator, median: float, sigma: float, n: int
    ) -> np.ndarray:
        return rng.lognormal(mean=np.log(median), sigma=sigma, size=n)

    def host_share(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.profile
        return self._lognormal(rng, p.host_median_s, p.host_sigma, n)

    def hop_share(
        self, rng: np.random.Generator, n_hops: int, t: float, n: int
    ) -> np.ndarray:
        """Total switch contribution for ``n`` RTTs over ``n_hops`` switches."""
        if n_hops == 0:
            return np.zeros(n)
        p = self.profile
        base = self._lognormal(rng, p.hop_median_s, p.hop_sigma, n * n_hops)
        base = _row_sums(base.reshape(n, n_hops))
        # Utilization-scaled standing queue: M/M/1-flavoured rho/(1-rho).
        rho = p.utilization(t)
        base += n_hops * 2e-6 * rho / max(1e-6, (1.0 - rho))
        # Burst queueing: each hop independently bursts.
        bursts = rng.random((n, n_hops)) < p.burst_probability(t)
        burst_delay = rng.exponential(p.burst_mean_s, size=(n, n_hops))
        burst_delay *= bursts
        base += _row_sums(burst_delay)
        return base

    def _add_stall(self, rng: np.random.Generator, rtt: np.ndarray) -> np.ndarray:
        """Rare, huge host-side stalls — the P99.9+ tail — added into ``rtt``
        where they hit.

        Durations are capped at ``stall_cap_s`` (< 3 s) so that a stall can
        never be mistaken for a SYN-retransmission drop signature.
        """
        p = self.profile
        hit = rng.random(rtt.size) < p.stall_prob
        if hit.any():
            durations = self._lognormal(rng, p.stall_median_s, p.stall_sigma, rtt.size)
            np.minimum(durations, p.stall_cap_s, out=durations)
            np.add(rtt, durations, out=rtt, where=hit)
        return rtt

    def payload_extra(
        self, rng: np.random.Generator, payload_bytes: int, n: int
    ) -> np.ndarray:
        """Extra RTT for a payload echo of ``payload_bytes`` each way."""
        if payload_bytes <= 0:
            return np.zeros(n)
        p = self.profile
        transmission = 2.0 * payload_bytes * 8.0 / LINK_SPEED_BPS
        echo = self._lognormal(rng, p.echo_median_s, p.echo_sigma, n)
        return transmission + echo

    # -- public API ---------------------------------------------------------

    def sample(
        self,
        rng: np.random.Generator,
        n_hops: int,
        t: float = 0.0,
        wan_rtt: float = 0.0,
        payload_bytes: int = 0,
        n: int = 1,
    ) -> np.ndarray:
        """Sample ``n`` successful-probe RTTs in seconds."""
        if n < 1:
            raise ValueError(f"n must be >= 1: {n}")
        if n_hops < 0:
            raise ValueError(f"n_hops must be >= 0: {n_hops}")
        rtt = self.host_share(rng, n)
        if n_hops:
            rtt += self.hop_share(rng, n_hops, t, n)
        self._add_stall(rng, rtt)
        if payload_bytes > 0:
            rtt += self.payload_extra(rng, payload_bytes, n)
        if wan_rtt:
            rtt += wan_rtt
        return rtt

    def sample_one(
        self,
        rng: np.random.Generator,
        n_hops: int,
        t: float = 0.0,
        wan_rtt: float = 0.0,
        payload_bytes: int = 0,
    ) -> float:
        """Scalar convenience wrapper around :meth:`sample`."""
        return float(self.sample(rng, n_hops, t, wan_rtt, payload_bytes)[0])
