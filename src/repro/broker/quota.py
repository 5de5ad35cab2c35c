"""Per-tenant credit ledgers for the measurement broker.

Credits are the admission currency: one credit buys one injected probe
(or one read query, see :mod:`repro.broker.admission`).
Each tenant holds a :class:`TenantAccount` whose ledger is *exactly*
conserved — the ``tenant-quota-conservation`` chaos invariant asserts

    balance == granted - debited + refunded - expired
    0 <= balance,  refunded <= debited

at every phase boundary.  Windows refill by top-up, not carry-over: at a
window boundary the unspent balance expires (counted, never silently
zeroed) and a fresh grant lands, so a quiet tenant cannot bank a month of
credits and then storm the fleet with them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TenantQuota", "TenantAccount"]


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's entitlement: ``credits_per_window`` every ``window_s``."""

    credits_per_window: int = 100
    window_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.credits_per_window < 0:
            raise ValueError(
                f"credits_per_window must be >= 0: {self.credits_per_window}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive: {self.window_s}")


class TenantAccount:
    """A tenant's running credit ledger (see the module conservation law)."""

    def __init__(self, tenant_id: str, quota: TenantQuota, t: float = 0.0) -> None:
        self.tenant_id = tenant_id
        self.quota = quota
        self.window_start = t
        self.granted = quota.credits_per_window
        self.debited = 0
        self.refunded = 0
        self.expired = 0
        self.balance = quota.credits_per_window
        # Fairness telemetry (not part of the conservation law).
        self.requests_submitted = 0
        self.requests_rejected = 0
        self.probes_launched = 0

    def refill(self, t: float) -> None:
        """Advance the window clock; expire the old balance, grant anew.

        Catch-up is loop-free: skipping N quiet windows expires one
        balance and lands one grant, identical to what N single steps
        would leave behind.
        """
        window = self.quota.window_s
        if t - self.window_start < window:
            return
        elapsed_windows = int((t - self.window_start) // window)
        self.window_start += elapsed_windows * window
        self.expired += self.balance
        self.balance = 0
        self.granted += self.quota.credits_per_window
        self.balance += self.quota.credits_per_window

    def try_debit(self, credits: int, t: float) -> bool:
        """Debit ``credits`` if the (refilled) balance covers them."""
        if credits < 0:
            raise ValueError(f"credits must be >= 0: {credits}")
        self.refill(t)
        if credits > self.balance:
            return False
        self.debited += credits
        self.balance -= credits
        return True

    def refund(self, credits: int) -> None:
        """Return credits for admitted-but-never-launched probes."""
        if credits < 0:
            raise ValueError(f"credits must be >= 0: {credits}")
        if self.refunded + credits > self.debited:
            raise ValueError(
                f"refund of {credits} would exceed debits "
                f"({self.refunded} refunded of {self.debited} debited)"
            )
        self.refunded += credits
        self.balance += credits

    def conserved(self) -> bool:
        """The conservation law this account must satisfy at all times."""
        return (
            self.balance == self.granted - self.debited + self.refunded - self.expired
            and self.balance >= 0
            and self.refunded <= self.debited
        )

    def ledger(self) -> dict:
        return {
            "tenant": self.tenant_id,
            "granted": self.granted,
            "debited": self.debited,
            "refunded": self.refunded,
            "expired": self.expired,
            "balance": self.balance,
        }
