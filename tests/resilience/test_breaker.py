"""Tests for the per-backend circuit breaker state machine."""

import pytest

from repro.resilience import BreakerState, CircuitBreaker, CircuitBreakerConfig


def _tripped(threshold=3, open_s=30.0):
    breaker = CircuitBreaker(
        CircuitBreakerConfig(failure_threshold=threshold, open_duration_s=open_s)
    )
    for i in range(threshold):
        breaker.record_failure(float(i))
    return breaker


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CircuitBreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(open_duration_s=-1.0)


class TestTripping:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=3))
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(2.0)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=3))
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state is BreakerState.CLOSED

    def test_threshold_consecutive_failures_open(self):
        breaker = _tripped()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1
        assert not breaker.allow(10.0)


class TestHalfOpen:
    def test_open_duration_admits_one_probe(self):
        breaker = _tripped(open_s=30.0)
        assert not breaker.allow(20.0)
        assert breaker.allow(40.0)  # first request past the window: probe
        assert breaker.state is BreakerState.HALF_OPEN
        # A second concurrent request is refused while the probe is out.
        assert not breaker.allow(40.0)

    def test_probe_success_recloses(self):
        breaker = _tripped(open_s=30.0)
        assert breaker.allow(40.0)
        breaker.record_success(40.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(41.0)

    def test_probe_failure_reopens_for_another_window(self):
        breaker = _tripped(open_s=30.0)
        assert breaker.allow(40.0)
        breaker.record_failure(40.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow(60.0)  # new window runs from 40.0
        assert breaker.allow(75.0)

    def test_reopened_breaker_trips_on_single_failure(self):
        # After HALF_OPEN, one failed probe reopens — no fresh threshold.
        breaker = _tripped()
        breaker.allow(40.0)
        breaker.record_failure(40.0)
        breaker.allow(75.0)
        breaker.record_failure(75.0)
        assert breaker.opened_count == 3


class TestTransitions:
    def test_transition_log_records_the_path(self):
        breaker = _tripped(open_s=30.0)
        breaker.allow(40.0)
        breaker.record_success(40.0)
        assert [state for _, state in breaker.transitions] == [
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ]

    def test_consecutive_failures_visible(self):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        assert breaker.consecutive_failures == 1
