"""Tests for the seeded decorrelated-jitter retry policy."""

import random

import pytest

from repro.resilience import RetryPolicy, derive_seed
from repro.resilience.retry import DRAW_HISTORY


class TestDeriveSeed:
    def test_stable_across_instances(self):
        assert derive_seed("srv0", "upload") == derive_seed("srv0", "upload")

    def test_distinct_components_get_distinct_streams(self):
        assert derive_seed("srv0", "upload") != derive_seed("srv0", "refresh")
        assert derive_seed("srv0", "upload") != derive_seed("srv1", "upload")

    def test_separator_prevents_concatenation_collisions(self):
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_known_value_is_process_stable(self):
        # CRC32, not hash(): the value must never change between runs.
        import zlib

        assert derive_seed("x") == zlib.crc32(b"x")


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(0.0, 10.0)
        with pytest.raises(ValueError):
            RetryPolicy(10.0, 5.0)
        with pytest.raises(ValueError):
            RetryPolicy(1.0, 10.0, multiplier=0.5)


class TestJitteredBackoff:
    def test_delays_stay_within_envelope(self):
        policy = RetryPolicy(2.0, 60.0, seed=derive_seed("srv0", "test"))
        prev = policy.base_s
        for _ in range(50):
            delay = policy.next_delay()
            assert delay <= 60.0
            assert delay <= max(policy.base_s, prev * policy.multiplier)
            prev = max(policy.base_s, delay)

    def test_window_grows_from_base(self):
        policy = RetryPolicy(2.0, 1000.0, seed=1)
        first = policy.next_delay()
        # First draw is bounded by base * multiplier.
        assert policy.base_s <= first <= policy.base_s * policy.multiplier

    def test_per_call_cap_tightens_only(self):
        policy = RetryPolicy(10.0, 600.0, seed=3)
        for _ in range(10):
            policy.next_delay()  # grow the window
        assert policy.next_delay(cap_s=15.0) <= 15.0
        # A looser per-call cap never loosens the configured one.
        assert policy.next_delay(cap_s=10_000.0) <= 600.0

    def test_reset_returns_to_base_window(self):
        policy = RetryPolicy(2.0, 1000.0, seed=5)
        for _ in range(8):
            policy.next_delay()
        policy.reset()
        assert policy.attempts == 0
        assert policy.next_delay() <= policy.base_s * policy.multiplier

    def test_draws_are_recorded(self):
        policy = RetryPolicy(1.0, 10.0, seed=9)
        produced = [policy.next_delay() for _ in range(4)]
        produced.append(policy.jitter_period(100.0, 0.1))
        assert list(policy.draws) == produced

    def test_draw_log_keeps_only_the_latest(self):
        policy = RetryPolicy(1.0, 10.0, seed=9)
        produced = [policy.jitter_period(100.0, 0.1) for _ in range(DRAW_HISTORY + 5)]
        assert list(policy.draws) == produced[-DRAW_HISTORY:]

    def test_lazy_generator_draws_the_eager_sequence(self):
        lazy = RetryPolicy(2.0, 600.0, seed=derive_seed("srv0", "upload-retry"))
        assert "_rng" not in vars(lazy) and "draws" not in vars(lazy)
        eager = RetryPolicy(2.0, 600.0, seed=lazy.seed)
        eager._rng = random.Random(lazy.seed)
        for step in range(30):
            if step % 3 == 2:
                lazy.reset()
                eager.reset()
            if step % 2:
                assert lazy.jitter_period(200.0, 0.1) == eager.jitter_period(200.0, 0.1)
            else:
                assert lazy.next_delay(cap_s=300.0) == eager.next_delay(cap_s=300.0)
        assert lazy._rng.getstate() == eager._rng.getstate()


class TestNoJitterControl:
    def test_degrades_to_truncated_exponential(self):
        policy = RetryPolicy(2.0, 100.0, multiplier=3.0, jitter=False)
        assert [policy.next_delay() for _ in range(5)] == [
            2.0,
            6.0,
            18.0,
            54.0,
            100.0,
        ]

    def test_identical_for_every_seed(self):
        a = RetryPolicy(2.0, 100.0, jitter=False, seed=1)
        b = RetryPolicy(2.0, 100.0, jitter=False, seed=999)
        assert [a.next_delay() for _ in range(6)] == [
            b.next_delay() for _ in range(6)
        ]


class TestJitterPeriod:
    def test_spread_stays_within_fraction(self):
        policy = RetryPolicy(1.0, 10.0, seed=42)
        for _ in range(100):
            period = policy.jitter_period(200.0, 0.1)
            assert 180.0 <= period <= 220.0

    def test_zero_fraction_is_exact_and_undrawn(self):
        policy = RetryPolicy(1.0, 10.0, seed=42)
        assert policy.jitter_period(200.0, 0.0) == 200.0
        assert list(policy.draws) == []  # no RNG consumed: schedules stay aligned

    def test_fleet_decorrelates(self):
        # Sixteen "agents" starting in lockstep must not share a period.
        periods = {
            round(
                RetryPolicy(
                    30.0, 600.0, seed=derive_seed(f"srv{i}", "refresh")
                ).jitter_period(200.0, 0.1),
                6,
            )
            for i in range(16)
        }
        assert len(periods) == 16
