"""Unit tests for the discrete-event scheduler."""

import gc
import weakref

import pytest

from repro.machines.message import (
    Message,
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
)
from repro.sim.engine import EventScheduler
from repro.sim.reliable import Frame


class TestScheduling:
    def test_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append("b"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(9.0, lambda: fired.append("c"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        """Critical for FIFO channels: equal-time events keep send order."""
        sched = EventScheduler()
        fired = []
        for i in range(50):
            sched.schedule(1.0, lambda i=i: fired.append(i))
        sched.run()
        assert fired == list(range(50))

    def test_now_advances(self):
        sched = EventScheduler()
        times = []
        sched.schedule(2.0, lambda: times.append(sched.now))
        sched.schedule(7.0, lambda: times.append(sched.now))
        sched.run()
        assert times == [2.0, 7.0]

    def test_schedule_during_execution(self):
        sched = EventScheduler()
        fired = []

        def first():
            fired.append("first")
            sched.schedule(1.0, lambda: fired.append("second"))

        sched.schedule(1.0, first)
        sched.run()
        assert fired == ["first", "second"]
        assert sched.now == 2.0

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sched = EventScheduler()
        sched.schedule(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(1.0, lambda: None)


class TestTimerCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, lambda: fired.append("x"))
        assert handle.active
        assert handle.cancel() is True
        assert not handle.active
        sched.run()
        assert fired == []
        assert sched.executed == 0

    def test_cancel_after_fire_is_noop(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        sched.run()
        assert not handle.active
        assert handle.cancel() is False

    def test_double_cancel_returns_false(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_len_excludes_cancelled(self):
        sched = EventScheduler()
        handles = [sched.schedule(float(i + 1), lambda: None)
                   for i in range(5)]
        assert len(sched) == 5
        handles[0].cancel()
        handles[3].cancel()
        assert len(sched) == 3
        sched.run()
        assert len(sched) == 0
        assert sched.executed == 3

    def test_cancelled_events_do_not_count_toward_max_events(self):
        sched = EventScheduler()
        fired = []
        for i in range(10):
            handle = sched.schedule(float(i + 1),
                                    lambda i=i: fired.append(i))
            if i % 2 == 0:
                handle.cancel()
        executed = sched.run(max_events=3)
        assert executed == 3
        assert fired == [1, 3, 5]

    def test_cancel_between_events(self):
        """An event can cancel a later, already-scheduled event."""
        sched = EventScheduler()
        fired = []
        later = sched.schedule(5.0, lambda: fired.append("later"))
        sched.schedule(1.0, lambda: later.cancel())
        sched.run()
        assert fired == []

    def test_schedule_at_returns_cancellable_handle(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule_at(4.0, lambda: fired.append("x"))
        handle.cancel()
        sched.run()
        assert fired == [] and sched.now == 0.0


class TestCallbackArgument:
    @pytest.mark.parametrize("push", ["schedule", "schedule_at"])
    @pytest.mark.parametrize("arg", [None, 0, (), ("msg", 3), "x"])
    def test_push_passes_exactly_its_argument(self, push, arg):
        sched = EventScheduler()
        got = []
        getattr(sched, push)(2.0, lambda *args: got.append(args), arg)
        sched.run()
        assert len(got) == 1 and len(got[0]) == 1 and got[0][0] is arg

    def test_without_an_argument_the_callback_gets_no_argument(self):
        sched = EventScheduler()
        got = []
        sched.schedule(1.0, lambda *args: got.append(args))
        sched.schedule_at(1.0, lambda *args: got.append(args))
        sched.run()
        assert got == [(), ()]

    def test_cancel_drops_the_argument(self):
        class Payload:
            pass

        sched = EventScheduler()
        payload = Payload()
        ref = weakref.ref(payload)
        handle = sched.schedule(1.0, lambda p: None, payload)
        sched.schedule(2.0, lambda p: None, "kept")
        del payload
        assert len(sched) == 2
        assert handle.cancel() is True
        gc.collect()
        assert ref() is None  # the parked heap entry no longer holds it
        assert len(sched) == 1
        assert sched.run() == 1 and len(sched) == 0

    def test_same_time_events_fire_in_schedule_order(self):
        sched = EventScheduler()
        fired = []
        for i in range(12):
            if i % 3 == 0:
                sched.schedule(1.0, lambda i=i: fired.append(i))
            elif i % 3 == 1:
                sched.schedule(1.0, fired.append, i)
            else:
                sched.schedule_at(1.0, fired.append, i)
        sched.run()
        assert fired == list(range(12))


class TestImmutableEventArguments:
    """Messages and frames ride on heap entries; they must not change."""

    def test_message_rejects_attribute_assignment(self):
        token = MessageToken(MsgType.R_PER, 1, 1, QueueTag.DISTRIBUTED,
                             ParamPresence.NONE)
        msg = Message(token, 1, 2, payload=7, op_id=3)
        for field, value in (("dst", 5), ("payload", 8), ("op_id", None)):
            with pytest.raises(AttributeError):
                setattr(msg, field, value)
        with pytest.raises(AttributeError):
            msg.extra = 1
        assert msg == Message(token, 1, 2, 7, 3)

    def test_frame_rejects_attribute_assignment(self):
        frame = Frame("ack", 2, 1, 4, None, 3, 0)
        for field, value in (("seq", 5), ("epoch", 1), ("kind", "data")):
            with pytest.raises(AttributeError):
                setattr(frame, field, value)
        with pytest.raises(AttributeError):
            frame.extra = 1
        assert frame == Frame("ack", 2, 1, 4, op_id=3)


class TestRunControl:
    def test_max_events(self):
        sched = EventScheduler()

        def rearm():
            sched.schedule(1.0, rearm)

        sched.schedule(1.0, rearm)
        executed = sched.run(max_events=10)
        assert executed == 10
        assert len(sched) == 1

    def test_until_predicate(self):
        sched = EventScheduler()
        count = []
        for i in range(20):
            sched.schedule(float(i + 1), lambda: count.append(1))
        sched.run(until=lambda: len(count) >= 5)
        assert len(count) == 5

    def test_step_on_empty(self):
        assert EventScheduler().step() is False

    def test_step_on_only_cancelled(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None).cancel()
        assert sched.step() is False
        assert sched.now == 0.0

    def test_max_events_zero_runs_nothing(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        assert sched.run(max_events=0) == 0
        assert fired == []

    def test_until_checked_between_events(self):
        """The predicate stops the run as soon as it turns true, even with
        later events already queued at the same time."""
        sched = EventScheduler()
        fired = []
        for i in range(10):
            sched.schedule(1.0, lambda i=i: fired.append(i))
        sched.run(until=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]
        assert len(sched) == 7

    def test_until_true_before_any_event(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        assert sched.run(until=lambda: True) == 0
        assert fired == []

    def test_schedule_at_in_the_past_raises_midrun(self):
        """schedule_at during execution must reject times behind now."""
        sched = EventScheduler()
        errors = []

        def tries_past():
            try:
                sched.schedule_at(1.0, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        sched.schedule(3.0, tries_past)
        sched.run()
        assert len(errors) == 1 and "before current time" in errors[0]

    def test_schedule_at_now_is_allowed(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: sched.schedule_at(
            2.0, lambda: fired.append(sched.now)))
        sched.run()
        assert fired == [2.0]
