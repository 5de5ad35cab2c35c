"""The latency kernel draws and adds exactly as the plain numpy expression.

``LatencyModel.sample`` sums hop columns by hand below eight hops and
leaves the pairwise reduce to numpy from eight on; it adds stalls in place
and skips the zero arrays of hop-free and payload-free draws.  None of that
may move a draw or a float: the reference below is the model written as
one expression per term, and both must leave the generator in one state.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.netsim.fabric import execute_class_groups
from repro.netsim.latency import LINK_SPEED_BPS, LatencyModel
from repro.netsim.routing import PathScope
from repro.netsim.workload import profile_for


def _reference_sample(model, rng, n_hops, t, wan_rtt, payload_bytes, n):
    p = model.profile

    def lognormal(median, sigma, size):
        return rng.lognormal(mean=np.log(median), sigma=sigma, size=size)

    rtt = lognormal(p.host_median_s, p.host_sigma, n)
    if n_hops == 0:
        hops = np.zeros(n)
    else:
        base = lognormal(p.hop_median_s, p.hop_sigma, n * n_hops)
        base = base.reshape(n, n_hops).sum(axis=1)
        rho = p.utilization(t)
        standing = n_hops * 2e-6 * rho / max(1e-6, (1.0 - rho))
        bursts = rng.random((n, n_hops)) < p.burst_probability(t)
        burst_delay = rng.exponential(p.burst_mean_s, size=(n, n_hops))
        hops = base + standing + (bursts * burst_delay).sum(axis=1)
    rtt += hops
    hit = rng.random(n) < p.stall_prob
    if hit.any():
        durations = lognormal(p.stall_median_s, p.stall_sigma, n)
        np.minimum(durations, p.stall_cap_s, out=durations)
        rtt += np.where(hit, durations, 0.0)
    else:
        rtt += np.zeros(n)
    if payload_bytes <= 0:
        rtt += np.zeros(n)
    else:
        transmission = 2.0 * payload_bytes * 8.0 / LINK_SPEED_BPS
        rtt += transmission + lognormal(p.echo_median_s, p.echo_sigma, n)
    if wan_rtt:
        rtt += wan_rtt
    return rtt


PROFILES = {
    "throughput": profile_for("throughput"),
    "service-sync": profile_for("service-sync"),
    # Stalls at one in five: every size above one takes the stall branch.
    "stall-heavy": replace(profile_for("throughput"), stall_prob=0.2),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("payload_bytes", [0, 800])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
@pytest.mark.parametrize("n_hops", range(12))
def test_sample_is_the_reference_expression(profile, payload_bytes, n, n_hops):
    model = LatencyModel(PROFILES[profile])
    # Mid-afternoon, with a WAN leg on even sizes: every term of the model is live.
    kwargs = dict(t=50_000.0 + n_hops, wan_rtt=0.0 if n % 2 else 0.031,
                  payload_bytes=payload_bytes, n=n)
    seed = 1000 * n_hops + n + payload_bytes
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = model.sample(got_rng, n_hops, **kwargs)
    want = _reference_sample(model, ref_rng, n_hops, **kwargs)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_class_outcome_counts_are_python_ints():
    """Counts land in the class rows' JSON as ints, never numpy scalars."""
    group = SimpleNamespace(purpose="intra-dc", qos="", scope=PathScope.INTRA_POD, n=5_000,
                            p_attempt=0.2, dc_index=0, n_hops=1, wan_rtt=0.0, dst_dc=-1)
    models = {0: LatencyModel(profile_for("throughput"))}
    (outcome,) = execute_class_groups([group], models, 0.0, np.random.default_rng(3))
    for field in ("n", "failed", "one_drop", "two_drops", "success"):
        value = getattr(outcome, field)
        assert type(value) is int, (field, type(value))
    assert outcome.one_drop > 0 and outcome.two_drops > 0
