"""Deterministic discrete-event engine for the distributed-system simulator.

A classic event-list scheduler: events are ``(time, sequence, handle)``
triples kept in a binary heap.  The monotonically increasing sequence number
breaks time ties in schedule order, which — together with constant channel
latency — preserves the first-in/first-out property the paper assumes for
every communication channel and queue (Section 2).

Scheduling returns a :class:`TimerHandle`; the reliable-delivery layer
(:mod:`repro.sim.reliable`) cancels retransmission timers through it when an
acknowledgement arrives.  Cancellation is lazy: the heap entry stays in
place and is discarded, uncounted, when it reaches the front — cancelling is
O(1) and the hot scheduling path stays allocation-light (the simulator
schedules millions of events in the Table 7 reproduction).  An event is
its heap triple and one slotted handle carrying a callback and optional
argument: callers pass a bound method and a message, key or operation
rather than build a closure per event.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventScheduler", "TimerHandle"]

#: marks an event scheduled without an argument (``None`` is an argument)
_NO_ARG = object()


class TimerHandle:
    """Handle to one scheduled event; supports O(1) cancellation.

    A handle is *active* until its event fires or it is cancelled,
    whichever comes first.  Cancelling an inactive handle is a no-op.
    """

    __slots__ = ("_callback", "_arg", "_scheduler")

    def __init__(self, scheduler: "EventScheduler", callback: Callable,
                 arg: Any) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._arg = arg

    def cancel(self) -> bool:
        """Cancel the event if it has not fired yet.

        Returns ``True`` if this call cancelled a still-pending event,
        ``False`` if the event already fired or was already cancelled.
        """
        if self._callback is None:
            return False
        self._callback = self._arg = None
        self._scheduler._cancelled += 1
        return True

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return self._callback is not None


class EventScheduler:
    """A minimal deterministic event scheduler.

    Events scheduled for the same simulation time fire in the order they
    were scheduled.  Time never runs backwards; scheduling into the past
    raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, TimerHandle]] = []
        self._seq = 0
        self._cancelled = 0  # cancelled entries still parked in the heap
        #: current simulation time
        self.now: float = 0.0
        #: number of events executed so far
        self.executed: int = 0
        #: optional :class:`repro.obs.Profiler`; when set, every event
        #: dispatch is timed under the ``engine.dispatch`` scope
        self.profiler = None

    def schedule(self, delay: float, callback: Callable,
                 arg: Any = _NO_ARG) -> TimerHandle:
        """Schedule ``callback`` (or ``callback(arg)``) ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        handle = TimerHandle(self, callback, arg)
        heapq.heappush(self._heap, (self.now + delay, self._seq, handle))
        return handle

    def schedule_at(self, time: float, callback: Callable,
                    arg: Any = _NO_ARG) -> TimerHandle:
        """Schedule ``callback`` (or ``callback(arg)``) at an absolute time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._seq += 1
        handle = TimerHandle(self, callback, arg)
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending events."""
        return len(self._heap) - self._cancelled

    def step(self) -> bool:
        """Execute the next live event; ``False`` when none remain.

        Cancelled entries reaching the front of the heap are discarded
        without advancing time or counting as executed.
        """
        while self._heap:
            time, _seq, handle = heapq.heappop(self._heap)
            callback = handle._callback
            if callback is None:  # cancelled: discard silently
                self._cancelled -= 1
                continue
            handle._callback = None  # fired: the handle goes inactive
            self.now = time
            self.executed += 1
            profiler = self.profiler
            if profiler is not None:
                t0 = perf_counter()
            arg = handle._arg
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            if profiler is not None:
                profiler.add("engine.dispatch", perf_counter() - t0)
            return True
        return False

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until the event list drains, ``max_events`` fire, or ``until()``.

        Args:
            max_events: hard cap on executed events (safety net against
                protocol livelock bugs).
            until: optional stop predicate evaluated between events.

        Returns:
            The number of events executed by this call.
        """
        start = self.executed
        while len(self._heap) > self._cancelled:  # live events remain
            if max_events is not None and self.executed - start >= max_events:
                break
            if until is not None and until():
                break
            self.step()
        return self.executed - start
