"""Minimal discrete-event simulation kernel.

A single global event queue, a binary heap ordered by ``(time,
priority, seq)``.  Events carry a plain callback; cancellation is lazy
(a flag checked at pop time).

The heap stores flat mutable entries — ``[time, priority, seq, fn,
args, cancelled, cancel_counter]`` — and :class:`Event`, the handle
:meth:`Simulator.schedule` returns, *is* the entry (a ``list``
subclass).  Ordering therefore uses C-level list comparison instead of
a Python ``__lt__`` per compare, and scheduling allocates exactly one
object per event.  ``seq`` is unique, so a comparison never reaches the
callback slot.

:meth:`Simulator.run` executes in the compiled op cycle
(:mod:`repro.sim._native`) whenever it loaded; the Python loop is its
reference and fallback, and ``tests/test_kernel_property.py`` pins the
two to the same pop order, clock and event count.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import isinf
from typing import Any, Callable, List, Optional

from repro.sim import _native

# Heap-entry slot indices.
_TIME, _PRIORITY, _SEQ, _FN, _ARGS, _CANCELLED, _COUNTER = range(7)

def callable_label(fn: object) -> str:
    """Best-effort printable name for an event callback.

    Plain functions and bound methods have a ``__name__``; wrappers like
    ``functools.partial`` do not, and fall back to their ``repr``.
    """
    return getattr(fn, "__name__", repr(fn))


class Event(list):
    """A scheduled callback.  Create via :meth:`Simulator.schedule`.

    The instance doubles as its own queue entry; the public attributes
    are read-only views onto the entry slots.  The last slot aliases the
    simulator's live cancellation counter while the event is queued (it
    is detached once the event fires or its cancellation is collected),
    which keeps :attr:`Simulator.pending` cheap.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Absolute firing time."""
        return self[_TIME]

    @property
    def priority(self) -> int:
        """Tie-break priority (lower fires first)."""
        return self[_PRIORITY]

    @property
    def seq(self) -> int:
        """Scheduling sequence number (FIFO tie-break)."""
        return self[_SEQ]

    @property
    def fn(self) -> Callable[..., None]:
        """The scheduled callback."""
        return self[_FN]

    @property
    def args(self) -> "tuple[Any, ...]":
        """Arguments the callback fires with."""
        return self[_ARGS]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self[_CANCELLED]

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Safe to call more than once, after the event has fired, and
        after a :meth:`Simulator.halt` dropped the queue.
        """
        if not self[_CANCELLED]:
            self[_CANCELLED] = True
            counter = self[_COUNTER]
            if counter is not None:
                counter[0] += 1

    def __repr__(self) -> str:
        state = "cancelled" if self[_CANCELLED] else "pending"
        return (f"Event(t={self[_TIME]:.6f}, "
                f"{callable_label(self[_FN])}, {state})")


def _check_schedule_at(time: float, now: float) -> None:
    """Validate an absolute event time.

    Scheduling in the past raises ``ValueError`` — that is always a
    modelling bug, never a feature.  NaN and infinite times are
    rejected too: a NaN would silently corrupt the queue order (every
    comparison against it is False), and an infinity would never fire.
    """
    if not time >= now:
        if time != time:
            raise ValueError("cannot schedule at NaN time")
        raise ValueError(
            f"cannot schedule at {time} before now ({now})"
        )
    if isinf(time):
        raise ValueError("cannot schedule at infinite time")


def _check_schedule(delay: float) -> None:
    """Validate a relative delay."""
    if not delay >= 0.0:
        if delay != delay:
            raise ValueError("delay must not be NaN")
        raise ValueError(f"delay must be non-negative, got {delay}")
    if isinf(delay):
        raise ValueError(f"delay must be finite, got {delay}")


class Simulator:
    """The event loop: a clock plus a binary heap of events."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        #: one-slot mutable cell counting cancelled-but-still-queued
        #: events; shared with every queued Event so ``cancel`` can
        #: update it without holding a simulator reference.
        self._cancelled = [0]
        self.processed = 0

    def _push(self, entry: list) -> None:
        """Insert one queue entry.

        Kernel-internal, but the controller's hot dispatch path calls
        it directly with a plain-list entry (an :class:`Event` without
        the handle subclass).
        """
        heappush(self._queue, entry)

    def schedule_at(self, time: float, fn: Callable[..., None],
                    *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        Scheduling in the past, at NaN, or at infinity raises
        ``ValueError``.  Scheduling exactly at ``now`` is allowed (the
        event fires before time advances).
        """
        _check_schedule_at(time, self.now)
        event = Event((time, priority, next(self._seq), fn, args, False,
                       self._cancelled))
        heappush(self._queue, event)
        return event

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` after a relative ``delay``.

        Negative, NaN, and infinite delays raise ``ValueError``.
        """
        _check_schedule(delay)
        event = Event((self.now + delay, priority, next(self._seq), fn,
                       args, False, self._cancelled))
        heappush(self._queue, event)
        return event

    @property
    def pending(self) -> int:
        """Number of *live* (not cancelled) events still queued."""
        return len(self._queue) - self._cancelled[0]

    def halt(self) -> None:
        """Drop every queued event (e.g. a sudden power-off).

        The clock stays where it is; nothing scheduled before the halt
        will fire.  New events may be scheduled afterwards (a reboot).
        Handles to dropped events stay valid: cancelling one is a no-op
        (their counter cell is abandoned, not the live one).  The queue
        is cleared in place, so a running loop sees it empty.
        """
        self._queue.clear()
        self._cancelled = [0]

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty."""
        queue = self._queue
        while queue and queue[0][_CANCELLED]:
            entry = heappop(queue)
            entry[_COUNTER][0] -= 1
            entry[_COUNTER] = None
        return queue[0][_TIME] if queue else None

    def step(self) -> bool:
        """Run the next live event; returns False when none remain."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            if entry[_CANCELLED]:
                entry[_COUNTER][0] -= 1
                entry[_COUNTER] = None
                continue
            entry[_COUNTER] = None
            self.now = entry[_TIME]
            self.processed += 1
            entry[_FN](*entry[_ARGS])
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have been processed (a runaway-loop backstop).

        Runs in the compiled op cycle (:mod:`repro.sim._native`) when it
        loaded; the loop below is its reference and fallback.
        """
        core = _native.opcycle
        if core is not None:
            core.run(self, until, max_events)
            return
        queue = self._queue
        remaining = -1 if max_events is None else max_events
        while queue:
            entry = queue[0]
            if entry[_CANCELLED]:
                heappop(queue)
                entry[_COUNTER][0] -= 1
                entry[_COUNTER] = None
                continue
            if remaining == 0:
                return
            time = entry[_TIME]
            if until is not None and time > until:
                self.now = until
                return
            heappop(queue)
            entry[_COUNTER] = None
            self.now = time
            self.processed += 1
            entry[_FN](*entry[_ARGS])
            remaining -= 1
