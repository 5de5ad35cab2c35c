"""Baseline packet-drop model, calibrated to Table 1.

Drops "may happen at different places due to various reasons, e.g., fiber
FCS errors, switching ASIC defects, switch fabric flaw, switch software bug,
NIC configuration issue, network congestions" (§2.2).  Under *normal*
conditions the paper measures per-probe drop rates of 1e-5…1e-4 (Table 1),
with inter-pod several times intra-pod — "most of the packet drops happen in
the network instead of the hosts".

We model a per-*traversal* drop probability for every component class (host
side, ToR, Leaf, Spine, border, WAN) and calibrate those constants from the
profile's two targets:

* ``intra_pod_drop``  = P(attempt drop) for an intra-pod SYN/SYN-ACK,
* ``inter_pod_drop``  = P(attempt drop) for a cross-podset SYN/SYN-ACK,

splitting the intra budget 60/40 between host side and ToR, and the
remaining inter budget 2:1 between the Leaf and Spine tiers.  Because the
probabilities are tiny, summing per-traversal terms is an accurate
approximation of ``1 - prod(1 - p_i)``; we still compute the exact product
form.  Incident-level drops (black-holes, silent random drops, FCS storms,
congestion events) are *faults*, layered on top by
:mod:`repro.netsim.faults` — this module is the healthy-network floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.devices import DeviceKind
from repro.netsim.routing import Path, PathScope
from repro.netsim.workload import WorkloadProfile

__all__ = ["DropModel", "DropBudget", "WAN_DIRECTION_DROP"]

# Fraction of the intra-pod drop budget attributed to the host side (stack +
# NIC at both endpoints) vs the ToR switch.
_HOST_SHARE_OF_INTRA = 0.6
# Of the extra inter-pod budget, fraction attributed to the Leaf tier (two
# traversals) vs the Spine tier (one traversal).
_LEAF_SHARE_OF_FABRIC = 2.0 / 3.0
# Extra per-direction drop probability for crossing the WAN (long-haul
# fiber + border routers); the paper gives no inter-DC table, so this is a
# modest constant.  Public on purpose: the scalar engine
# (``fabric._traverse``), the analytic fast path and the class rounds must
# all read the *same* binding — a fork here would silently break the
# three-rung parity contract.
WAN_DIRECTION_DROP = 1.0e-5


@dataclass(frozen=True)
class DropBudget:
    """Per-traversal drop probabilities derived from a profile's targets."""

    host_side: float  # both endpoints' stack+NIC, per direction
    tor: float  # per ToR traversal
    leaf: float  # per Leaf traversal
    spine: float  # per Spine traversal
    border: float  # per border-router traversal

    @classmethod
    def from_profile(cls, profile: WorkloadProfile) -> "DropBudget":
        per_direction_intra = profile.intra_pod_drop / 2.0
        host_side = _HOST_SHARE_OF_INTRA * per_direction_intra
        tor = (1.0 - _HOST_SHARE_OF_INTRA) * per_direction_intra

        per_direction_inter = profile.inter_pod_drop / 2.0
        fabric_budget = per_direction_inter - host_side - 2.0 * tor
        if fabric_budget <= 0:
            raise ValueError(
                f"profile {profile.name!r}: inter-pod drop target "
                f"{profile.inter_pod_drop} leaves no budget for the fabric tier"
            )
        leaf = _LEAF_SHARE_OF_FABRIC * fabric_budget / 2.0
        spine = (1.0 - _LEAF_SHARE_OF_FABRIC) * fabric_budget
        return cls(
            host_side=host_side, tor=tor, leaf=leaf, spine=spine, border=spine
        )


class DropModel:
    """Healthy-network drop probabilities for paths under one profile."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile
        self.budget = budget = DropBudget.from_profile(profile)
        self._hop_drop = {
            DeviceKind.TOR: budget.tor,
            DeviceKind.LEAF: budget.leaf,
            DeviceKind.SPINE: budget.spine,
            DeviceKind.BORDER: budget.border,
        }

    def hop_drop_prob(self, kind: DeviceKind) -> float:
        """Baseline per-traversal drop probability for a switch tier."""
        try:
            return self._hop_drop[kind]
        except KeyError:
            raise ValueError(f"not a switch tier: {kind}") from None

    def direction_drop_prob(self, path: Path) -> float:
        """P(a packet is dropped traversing ``path`` once), healthy network."""
        survive = 1.0 - self.budget.host_side
        for hop in path.hops:
            survive *= 1.0 - self.hop_drop_prob(hop.kind)
        # Keyed on *scope*, not the configured latency, so a zero- or
        # asymmetric-latency WAN link still pays the crossing drop and the
        # kinds-based computation (a bare ``wan`` bool) agrees bit-for-bit.
        if path.scope is PathScope.INTER_DC:
            survive *= 1.0 - WAN_DIRECTION_DROP
        return 1.0 - survive

    def direction_drop_prob_kinds(
        self, kinds: tuple[DeviceKind, ...], wan: bool
    ) -> float:
        """P(one-way drop) from a hop-*kind* sequence alone.

        Per-tier budgets mean the probability depends only on the kinds a
        path traverses, never on which ECMP candidate was picked.  The
        survive product multiplies in the same order as
        :meth:`direction_drop_prob` iterates hops, so for any path whose
        kind sequence equals ``kinds`` the result is bit-identical — the
        class-round engine's parity with the per-pair fast path relies on
        this.
        """
        survive = 1.0 - self.budget.host_side
        for kind in kinds:
            survive *= 1.0 - self.hop_drop_prob(kind)
        if wan:
            survive *= 1.0 - WAN_DIRECTION_DROP
        return 1.0 - survive

    def attempt_drop_prob(self, forward: Path, reverse: Path) -> float:
        """P(a SYN attempt fails): SYN dropped forward or SYN-ACK back."""
        p_fwd = self.direction_drop_prob(forward)
        p_rev = self.direction_drop_prob(reverse)
        return 1.0 - (1.0 - p_fwd) * (1.0 - p_rev)

    def attempt_drop_prob_kinds(
        self, kinds: tuple[DeviceKind, ...], wan: bool
    ) -> float:
        """Path-free :meth:`attempt_drop_prob` for a palindromic kind
        sequence (every Clos scope's is): forward and reverse direction
        probabilities coincide exactly, so one evaluation covers both."""
        p_dir = self.direction_drop_prob_kinds(kinds, wan)
        return 1.0 - (1.0 - p_dir) * (1.0 - p_dir)
