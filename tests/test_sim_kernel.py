"""Tests for repro.sim.kernel: the DES event loop."""

import math

import pytest

from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_priority_then_fifo(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "second", priority=1)
        sim.schedule(0.1, fired.append, "third", priority=1)
        sim.schedule(0.1, fired.append, "first", priority=0)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5]
        assert sim.now == 0.5

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(0.1, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == pytest.approx(0.3)


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        first.cancel()
        assert sim.peek_time() == pytest.approx(0.2)


class TestRunControls:
    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "early")
        sim.schedule(1.0, fired.append, "late")
        sim.run(until=0.5)
        assert fired == ["early"]
        assert sim.now == 0.5
        sim.run()
        assert fired == ["early", "late"]

    def test_max_events_backstop(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.0, forever)
        sim.run(max_events=25)
        assert sim.processed == 25

    def test_step_on_empty_queue(self):
        sim = Simulator()
        assert sim.step() is False

    def test_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
        assert sim.processed == 5


class TestEdgeCases:
    """Corner cases of the flat-heap kernel rewrite."""

    def test_cancel_after_halt_is_a_noop(self):
        sim = Simulator()
        dropped = sim.schedule(0.5, lambda: None)
        sim.schedule(0.7, lambda: None)
        sim.halt()
        assert sim.pending == 0
        # The handle outlives the queue; cancelling it must not corrupt
        # the (fresh) cancellation counter of the rebooted simulator.
        dropped.cancel()
        dropped.cancel()
        assert dropped.cancelled
        assert sim.pending == 0
        fired = []
        sim.schedule(0.1, fired.append, "post-reboot")
        assert sim.pending == 1
        sim.run()
        assert fired == ["post-reboot"]
        assert sim.pending == 0

    def test_halt_discards_pending_cancellations(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None).cancel()
        sim.schedule(0.2, lambda: None).cancel()
        sim.halt()
        live = sim.schedule(0.3, lambda: None)
        assert sim.pending == 1
        live.cancel()
        assert sim.pending == 0

    def test_schedule_at_exactly_now_fires_before_time_advances(self):
        sim = Simulator()
        fired = []

        def reschedule():
            sim.schedule_at(sim.now, fired.append, sim.now)

        sim.schedule(0.5, reschedule)
        sim.schedule(0.6, fired.append, "later")
        sim.run()
        assert fired == [0.5, "later"]

    def test_run_until_between_events_parks_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=0.25)
        assert sim.now == 0.25
        assert fired == []
        sim.run(until=0.75)
        assert sim.now == 0.75
        assert fired == []
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_run_until_exactly_at_event_time_fires_it(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "at")
        sim.schedule(0.8, fired.append, "after")
        sim.run(until=0.5)
        assert fired == ["at"]
        assert sim.now == 0.5

    def test_tie_break_is_fifo_across_schedule_flavours(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.2, fired.append, "a")
        sim.schedule_at(0.2, fired.append, "b")
        sim.schedule(0.2, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_tie_break_survives_interleaved_cancellation(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.2, fired.append, "a")
        victim = sim.schedule(0.2, fired.append, "b")
        sim.schedule(0.2, fired.append, "c")
        victim.cancel()
        assert sim.pending == 2
        sim.run()
        assert fired == ["a", "c"]
        assert sim.pending == 0

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        events = [sim.schedule(0.1 * (i + 1), lambda: None)
                  for i in range(4)]
        assert sim.pending == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending == 2
        events[0].cancel()  # double-cancel must not double-count
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_far_future_events_fire_in_order(self):
        sim = Simulator()
        fired = []
        for delay in (0.5, 0.009, 0.0005, 0.1, 0.0021, 0.003):
            sim.schedule(delay, fired.append, delay)
        sim.run()
        assert fired == sorted(fired)

    def test_same_instant_push_respects_priority_of_queued_entry(self):
        # An event scheduled *at now* from a callback must not jump
        # ahead of same-time entries already queued.
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_at(sim.now, fired.append, "appended",
                            priority=1)

        sim.schedule(0.5, first, priority=0)
        sim.schedule_at(0.5, fired.append, "queued", priority=1)
        sim.run()
        assert fired == ["first", "queued", "appended"]

    def test_repr_handles_unnamed_callables(self):
        import functools

        sim = Simulator()
        event = sim.schedule(0.1, functools.partial(print, "x"))
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)


class TestScheduleGuards:
    """Bad times must be rejected loudly.

    A NaN would silently corrupt the queue order (every comparison
    against it is False), an infinity would never fire, and the past
    is always a modelling bug.
    """

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule(math.nan, lambda: None)

    def test_nan_absolute_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_at(math.nan, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-negative"):
            sim.schedule(-1e-9, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="before now"):
            sim.schedule_at(0.999, lambda: None)

    def test_infinite_times_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="finite"):
            sim.schedule(math.inf, lambda: None)
        with pytest.raises(ValueError, match="infinite"):
            sim.schedule_at(math.inf, lambda: None)

    def test_rejected_schedule_leaves_queue_intact(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "ok")
        for bad in (math.nan, -0.5, math.inf):
            with pytest.raises(ValueError):
                sim.schedule(bad, fired.append, "never")
        assert sim.pending == 1
        sim.run()
        assert fired == ["ok"]
