"""Component-level tests of the latency model (each RTT term in isolation)."""

import numpy as np
import pytest

from repro.netsim.latency import LINK_SPEED_BPS, LatencyModel
from repro.netsim.workload import profile_for


@pytest.fixture(scope="module")
def model():
    return LatencyModel(profile_for("throughput"))


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestHostShare:
    def test_median_matches_profile(self, model):
        samples = model.host_share(_rng(), 100_000)
        assert np.median(samples) == pytest.approx(
            model.profile.host_median_s, rel=0.03
        )

    def test_lognormal_right_skew(self, model):
        samples = model.host_share(_rng(), 100_000)
        assert np.mean(samples) > np.median(samples)


class TestHopShare:
    def test_zero_hops_contributes_nothing(self, model):
        assert (model.hop_share(_rng(), 0, t=0.0, n=100) == 0).all()

    def test_scales_with_hop_count(self, model):
        one = np.median(model.hop_share(_rng(1), 1, t=0.0, n=50_000))
        five = np.median(model.hop_share(_rng(1), 5, t=0.0, n=50_000))
        assert five > 3 * one

    def test_utilization_raises_queueing(self, model):
        # Utilization peaks a quarter-day in (diurnal sine maximum).
        quiet_t = 3 * 86_400 / 4
        busy_t = 86_400 / 4
        quiet = np.mean(model.hop_share(_rng(2), 5, t=quiet_t, n=100_000))
        busy = np.mean(model.hop_share(_rng(2), 5, t=busy_t, n=100_000))
        assert busy > quiet


class TestStall:
    def test_rare_but_huge(self, model):
        samples = model._add_stall(_rng(3), np.zeros(1_000_000))
        hit_rate = (samples > 0).mean()
        assert hit_rate == pytest.approx(model.profile.stall_prob, rel=0.15)
        assert samples.max() > 0.05  # at least tens of ms

    def test_capped_below_syn_signature(self, model):
        """No stall may impersonate a 3 s retransmission (Table 1 purity)."""
        samples = model._add_stall(_rng(4), np.zeros(2_000_000))
        assert samples.max() <= model.profile.stall_cap_s
        assert model.profile.stall_cap_s < 3.0

    def test_no_hits_returns_zeros(self):
        profile = profile_for("throughput")
        model = LatencyModel(profile)
        samples = model._add_stall(_rng(5), np.zeros(10))  # 10 draws at p≈2e-3: ~never
        assert samples.shape == (10,)


class TestPayloadExtra:
    def test_zero_payload_is_free(self, model):
        assert (model.payload_extra(_rng(), 0, 100) == 0).all()

    def test_includes_wire_transmission(self, model):
        # Large payloads are bounded below by serialization time both ways.
        payload = 64_000
        floor = 2 * payload * 8 / LINK_SPEED_BPS
        samples = model.payload_extra(_rng(6), payload, 10_000)
        assert samples.min() >= floor

    def test_echo_cost_dominates_small_payloads(self, model):
        samples = model.payload_extra(_rng(7), 1000, 100_000)
        transmission = 2 * 1000 * 8 / LINK_SPEED_BPS
        assert np.median(samples) > 10 * transmission
