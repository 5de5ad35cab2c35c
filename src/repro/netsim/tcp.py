"""TCP connect/probe semantics, including the drop signatures of §4.2.

"In our data centers, the initial timeout value is 3 seconds, and the sender
will retry SYN two times.  Hence if the measured TCP connection RTT is
around 3 seconds, there is one packet drop; if the RTT is around 9 seconds,
there are two packet drops."

This module encodes exactly that: an initial RTO of 3 s, doubling per retry,
two retries.  A probe whose three SYN attempts all fail is a *failed* probe
(which the drop-rate heuristic deliberately excludes — a failed probe might
be a dead server, not a drop).

Payload exchanges after connection setup retransmit with a 300 ms data RTO,
doubling, up to a bounded retry count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SYN_TIMEOUT_S",
    "SYN_RETRIES",
    "DATA_RTO_S",
    "DATA_RETRIES",
    "ConnectOutcome",
    "run_syn_handshake",
    "run_data_exchange",
    "syn_rtt_signature",
    "ONE_DROP_RTT_S",
    "TWO_DROPS_RTT_S",
    "FAILED_RTT_S",
    "ONE_DROP_RTT_US",
    "TWO_DROPS_RTT_US",
    "FAILED_RTT_US",
]

SYN_TIMEOUT_S = 3.0  # initial SYN retransmission timeout
SYN_RETRIES = 2  # SYN is retried twice after the initial attempt
DATA_RTO_S = 0.3  # established-connection retransmission timeout
DATA_RETRIES = 4


@dataclass
class ConnectOutcome:
    """Result of driving a handshake or data exchange to completion.

    ``waited_s`` accumulates retransmission timeouts only; the caller adds
    the sampled network RTT of the finally-successful attempt.
    """

    success: bool
    attempts: int
    drops: int
    waited_s: float
    extra_latency_s: float = 0.0


def run_syn_handshake(attempt) -> ConnectOutcome:
    """Drive SYN / SYN-ACK with production retransmission behaviour.

    ``attempt`` is a callable returning ``(delivered: bool, extra_latency_s:
    float)`` for one SYN+SYN-ACK round trip attempt.  Timeouts follow
    3 s, 6 s, 12 s doubling; cumulative waits before success are therefore
    ~3 s after one drop and ~9 s after two — the signatures §4.2 counts.
    """
    waited = 0.0
    timeout = SYN_TIMEOUT_S
    drops = 0
    for attempt_index in range(1 + SYN_RETRIES):
        delivered, extra_latency = attempt()
        if delivered:
            return ConnectOutcome(
                success=True,
                attempts=attempt_index + 1,
                drops=drops,
                waited_s=waited,
                extra_latency_s=extra_latency,
            )
        drops += 1
        waited += timeout
        timeout *= 2.0
    return ConnectOutcome(
        success=False, attempts=1 + SYN_RETRIES, drops=drops, waited_s=waited
    )


def run_data_exchange(attempt) -> ConnectOutcome:
    """Drive a payload echo over an established connection.

    Same shape as :func:`run_syn_handshake` with data-plane timers.
    """
    waited = 0.0
    timeout = DATA_RTO_S
    drops = 0
    for attempt_index in range(1 + DATA_RETRIES):
        delivered, extra_latency = attempt()
        if delivered:
            return ConnectOutcome(
                success=True,
                attempts=attempt_index + 1,
                drops=drops,
                waited_s=waited,
                extra_latency_s=extra_latency,
            )
        drops += 1
        waited += timeout
        timeout *= 2.0
    return ConnectOutcome(
        success=False, attempts=1 + DATA_RETRIES, drops=drops, waited_s=waited
    )


def syn_rtt_signature(drops: int) -> float:
    """The cumulative wait a probe shows after ``drops`` SYN losses.

    0 drops → 0 s, 1 drop → 3 s, 2 drops → 9 s.  Used by tests and by the
    drop-rate heuristic's classification windows.
    """
    waited = 0.0
    timeout = SYN_TIMEOUT_S
    for _ in range(drops):
        waited += timeout
        timeout *= 2.0
    return waited


# The §4.2 classification windows, the one definition every classifier
# imports: a successful probe whose RTT lies in [ONE_DROP, TWO_DROPS) lost
# one SYN, in [TWO_DROPS, FAILED) two.  A dropped probe's RTT is the
# signature plus a normal network RTT, so each window runs from its
# signature up to the next one.
ONE_DROP_RTT_S = syn_rtt_signature(1)  # 3 s
TWO_DROPS_RTT_S = syn_rtt_signature(2)  # 9 s
FAILED_RTT_S = syn_rtt_signature(3)  # 21 s: every SYN lost, the connect failed
ONE_DROP_RTT_US = ONE_DROP_RTT_S * 1e6
TWO_DROPS_RTT_US = TWO_DROPS_RTT_S * 1e6
FAILED_RTT_US = FAILED_RTT_S * 1e6
