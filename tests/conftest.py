"""Shared test configuration.

Hypothesis's per-example deadline is disabled: the property tests build
topologies and fabrics whose first-example cost is dominated by one-time
construction, which trips wall-clock deadlines on loaded CI machines
without indicating any regression.

``probe_rounds`` is the shared way to draw many probes between one pair:
through the engine the fleet runs, not a sampler of its own.

``record_probe_calls`` and ``calls_digest`` are how the oracles read what
the fabric reports: one ``(src, dst, t, payload_bytes, dst_port)`` call per
probe, hashed round by round.
"""

import hashlib

import numpy as np
from hypothesis import HealthCheck, settings

from repro.netsim.fabric import DEFAULT_PROBE_PORT

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


ROUND_SIZE = 10_000


def probe_rounds(fabric, src, dst, n):
    """``n`` probes ``src`` -> ``dst`` through the fleet's engine: repeated
    ``Fabric.probe_many`` rounds over one cached pinglist of identical
    entries.  Returns the rounds' ``success``, ``rtt_s`` and ``syn_drops``
    columns, concatenated."""
    entry = (dst.device_id, DEFAULT_PROBE_PORT, 0)
    full, rest = divmod(n, ROUND_SIZE)
    rounds = [(entry,) * ROUND_SIZE] * full
    if rest:
        rounds.append((entry,) * rest)
    batches = [fabric.probe_many(src, entries) for entries in rounds]
    return tuple(
        np.concatenate([getattr(batch, column) for batch in batches])
        for column in ("success", "rtt_s", "syn_drops")
    )


def record_probe_calls(fabric) -> list:
    """A list the fabric fills with one ``(src, dst, t, payload_bytes,
    dst_port)`` call per probe it carries or refuses, in report order."""
    calls: list[tuple] = []

    def on_round(src_id, entries, t):
        calls.extend((src_id, dst, t, payload, port) for dst, port, payload in entries)

    fabric.round_observers.append(on_round)
    return calls


def calls_digest(calls) -> str:
    """sha256 over each ``(src, t)`` round's calls, sorted: what every
    round probed, whatever order the engines reported it in."""
    rounds: dict[tuple, list] = {}
    for call in calls:
        rounds.setdefault((call[0], call[2]), []).append(call)
    digest = hashlib.sha256()
    for key in sorted(rounds):
        digest.update(repr(sorted(rounds[key])).encode())
    return digest.hexdigest()
