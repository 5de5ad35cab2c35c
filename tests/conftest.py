"""Shared test configuration.

Hypothesis's per-example deadline is disabled: the property tests build
topologies and fabrics whose first-example cost is dominated by one-time
construction, which trips wall-clock deadlines on loaded CI machines
without indicating any regression.

``probe_rounds`` is the shared way to draw many probes between one pair:
through the engine the fleet runs, not a sampler of its own.
"""

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
