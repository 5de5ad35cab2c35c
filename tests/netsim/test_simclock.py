"""Tests for the simulated clock and event queue."""

import pytest

from repro.netsim.simclock import EventQueue, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(start=100.0).now == 100.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_cannot_move_backwards(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_is_fine(self):
        clock = SimClock(start=7.0)
        clock.advance_to(7.0)
        assert clock.now == 7.0


class TestEventQueue:
    def test_runs_events_in_deadline_order(self):
        clock = SimClock()
        queue = EventQueue(clock)
        order = []
        queue.schedule_at(3.0, lambda: order.append("c"))
        queue.schedule_at(1.0, lambda: order.append("a"))
        queue.schedule_at(2.0, lambda: order.append("b"))
        while queue.run_next():
            pass
        assert order == ["a", "b", "c"]

    def test_equal_deadlines_run_in_insertion_order(self):
        queue = EventQueue(SimClock())
        order = []
        for label in "abcde":
            queue.schedule_at(1.0, lambda label=label: order.append(label))
        while queue.run_next():
            pass
        assert order == list("abcde")

    def test_clock_advances_to_event_deadline(self):
        clock = SimClock()
        queue = EventQueue(clock)
        seen = []
        queue.schedule_at(4.5, lambda: seen.append(clock.now))
        queue.run_next()
        assert seen == [4.5]
        assert clock.now == 4.5

    def test_schedule_after_is_relative(self):
        clock = SimClock(start=10.0)
        queue = EventQueue(clock)
        event = queue.schedule_after(2.5, lambda: None)
        assert event.deadline == 12.5

    def test_cannot_schedule_in_past(self):
        clock = SimClock(start=10.0)
        queue = EventQueue(clock)
        with pytest.raises(ValueError):
            queue.schedule_at(9.0, lambda: None)

    def test_negative_delay_rejected(self):
        queue = EventQueue(SimClock())
        with pytest.raises(ValueError):
            queue.schedule_after(-1.0, lambda: None)

    def test_run_until_stops_at_horizon(self):
        clock = SimClock()
        queue = EventQueue(clock)
        ran = []
        queue.schedule_at(1.0, lambda: ran.append(1))
        queue.schedule_at(5.0, lambda: ran.append(5))
        executed = queue.run_until(3.0)
        assert executed == 1
        assert ran == [1]
        assert clock.now == 3.0  # clock advances to the horizon
        assert len(queue) == 1  # the 5.0 event still pending

    def test_run_until_handles_self_rescheduling(self):
        clock = SimClock()
        queue = EventQueue(clock)
        ticks = []

        def tick():
            ticks.append(clock.now)
            queue.schedule_after(1.0, tick)

        queue.schedule_at(0.0, tick)
        queue.run_until(5.0)
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_max_events_safety_valve(self):
        clock = SimClock()
        queue = EventQueue(clock)

        def forever():
            queue.schedule_after(0.0, forever)

        queue.schedule_at(0.0, forever)
        executed = queue.run_until(1.0, max_events=50)
        assert executed == 50

    def test_run_for_is_relative(self):
        clock = SimClock(start=100.0)
        queue = EventQueue(clock)
        ran = []
        queue.schedule_at(105.0, lambda: ran.append(1))
        queue.run_for(10.0)
        assert ran == [1]
        assert clock.now == 110.0

    def test_events_run_counter(self):
        queue = EventQueue(SimClock())
        queue.schedule_at(1.0, lambda: None)
        queue.schedule_at(2.0, lambda: None)
        queue.run_until(10.0)
        assert queue.events_run == 2

    def test_callbacks_may_schedule_at_current_time(self):
        clock = SimClock()
        queue = EventQueue(clock)
        order = []

        def first():
            order.append("first")
            queue.schedule_at(clock.now, lambda: order.append("second"))

        queue.schedule_at(1.0, first)
        queue.run_until(1.0)
        assert order == ["first", "second"]
