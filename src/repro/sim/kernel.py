"""Minimal discrete-event simulation kernel.

A single global event queue ordered by ``(time, priority, seq)``.
Events carry a plain callback; cancellation is lazy (a flag checked at
pop time).

The queue stores flat mutable entries — ``[time, priority, seq, fn,
args, cancelled, cancel_counter]`` — and :class:`Event`, the handle
:meth:`Simulator.schedule` returns, *is* the entry (a ``list``
subclass).  Ordering therefore uses C-level list comparison instead of
a Python ``__lt__`` per compare, and scheduling allocates exactly one
object per event.  ``seq`` is unique, so a comparison never reaches the
callback slot.

Two queue implementations share that entry format:

:class:`Simulator`
    A calendar (bucket) queue.  NAND event times cluster on a handful
    of discrete latencies (t_read/t_lsb/t_msb/t_erase plus transfer
    multiples), so events land in time-indexed buckets one dominant
    latency quantum wide.  Pushing into the current or a near-future
    bucket is O(1) amortised (dict lookup + list append); a bucket is
    sorted once when the clock reaches it.  Far-future or irregular
    timers (power-loss cuts, QoS token refills, think times) overflow
    into a small binary heap and migrate into buckets as the horizon
    advances.  Pop order is exactly ``(time, priority, seq)`` — byte
    identical to the heap.

:class:`HeapSimulator`
    The original binary-heap implementation, kept as the equivalence
    oracle (``ExperimentConfig(kernel="heap")`` and the property suite
    in ``tests/test_kernel_calendar_property.py`` drive both and assert
    identical pop order).

:meth:`Simulator.run` executes in the compiled op cycle
(:mod:`repro.sim._native`) whenever it loaded; the Python loop is its
reference and fallback, and the property suite pins the two to the
same pop order, clock and event count.
"""

from __future__ import annotations

import itertools
from bisect import insort
from heapq import heappop, heappush
from math import isinf
from typing import Any, Callable, Dict, List, Optional

from repro.sim import _native

# Heap-entry slot indices.
_TIME, _PRIORITY, _SEQ, _FN, _ARGS, _CANCELLED, _COUNTER = range(7)

#: Default calendar bucket width [s].  One LSB program (t_lsb_prog)
#: under the paper's timing — the dominant latency quantum of
#: write-heavy NAND traffic.  Much narrower buckets (one read slot,
#: 50 us) leave average occupancy below one event and the run loop
#: spends its time advancing empty days instead of popping; the
#: measured sweep is in docs/PERFORMANCE.md.
DEFAULT_BUCKET_WIDTH = 500e-6

#: Buckets between the active one and the overflow horizon.  Entries
#: landing past ``active + CALENDAR_SPAN`` buckets go to the overflow
#: heap instead of allocating arbitrarily many dict slots.  256 spans
#: 128 ms at the default width — far past t_erase (5 ms), so
#: steady-state NAND traffic never touches the overflow heap.
CALENDAR_SPAN = 256


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
    """Validate an absolute event time (shared by both kernels).

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
    """Validate a relative delay (shared by both kernels)."""
    if not delay >= 0.0:
        if delay != delay:
            raise ValueError("delay must not be NaN")
        raise ValueError(f"delay must be non-negative, got {delay}")
    if isinf(delay):
        raise ValueError(f"delay must be finite, got {delay}")


class Simulator:
    """The event loop: a clock plus a calendar queue of events.

    The calendar structure (see the module docstring):

    - ``_active`` — the bucket currently being drained, sorted
      ascending; ``_active_pos`` indexes the next entry to fire.
      Same-bucket pushes insort *at or after* ``_active_pos``, so an
      event scheduled for the current instant still fires in exact
      ``(time, priority, seq)`` order.
    - ``_buckets`` — unsorted lists keyed by ``int(time / width)`` for
      keys within ``_span`` buckets of the active one; ``_key_heap``
      is a heap of the non-empty keys.
    - ``_far`` — binary heap of entries at or past the horizon; they
      migrate into buckets as the horizon advances.

    Bucket keys are a monotone function of time, so draining buckets
    in key order, each sorted once on activation, reproduces the heap
    pop order exactly.  When event times do *not* cluster, the
    structure degrades gracefully to roughly heap behaviour (one
    entry per bucket, or everything in the overflow heap).
    """

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH,
                 span: int = CALENDAR_SPAN) -> None:
        if not bucket_width > 0.0:
            raise ValueError(
                f"bucket_width must be positive, got {bucket_width}")
        if span < 2:
            raise ValueError(f"span must be at least 2, got {span}")
        self.now = 0.0
        self._seq = itertools.count()
        #: one-slot mutable cell counting cancelled-but-still-queued
        #: events; shared with every queued Event so ``cancel`` can
        #: update it without holding a simulator reference.
        self._cancelled = [0]
        self.processed = 0
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._span = span
        self._active: List[Event] = []
        self._active_pos = 0
        self._active_key = 0
        self._horizon_key = span
        self._buckets: Dict[int, List[Event]] = {}
        self._key_heap: List[int] = []
        self._far: List[Event] = []

    # -- scheduling ---------------------------------------------------

    def _push(self, entry: list) -> None:
        """Insert one queue entry.

        Kernel-internal, but the controller's hot dispatch path calls
        it directly with a plain-list entry (an :class:`Event` without
        the handle subclass).
        """
        key = int(entry[0] * self._inv_width)
        if key > self._active_key:
            # Common case: a future bucket (completion latencies are at
            # least one bucket width for writes).
            if key < self._horizon_key:
                bucket = self._buckets.get(key)
                if bucket is None:
                    self._buckets[key] = [entry]
                    heappush(self._key_heap, key)
                else:
                    bucket.append(entry)
            else:
                heappush(self._far, entry)
        else:
            # Lands in the bucket being drained (or, between runs, at
            # the current instant): keep the tail sorted.  ``lo`` is
            # the drain position — entries before it already fired.
            insort(self._active, entry, self._active_pos)

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
        self._push(event)
        return event

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` after a relative ``delay``.

        Negative, NaN, and infinite delays raise ``ValueError``.
        """
        _check_schedule(delay)
        event = Event((self.now + delay, priority, next(self._seq), fn,
                       args, False, self._cancelled))
        self._push(event)
        return event

    # -- queue state --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of *live* (not cancelled) events still queued."""
        live = len(self._active) - self._active_pos + len(self._far)
        for bucket in self._buckets.values():
            live += len(bucket)
        return live - self._cancelled[0]

    def halt(self) -> None:
        """Drop every queued event (e.g. a sudden power-off).

        The clock stays where it is; nothing scheduled before the halt
        will fire.  New events may be scheduled afterwards (a reboot).
        Handles to dropped events stay valid: cancelling one is a no-op
        (their counter cell is abandoned, not the live one).
        """
        # Rebind (don't clear in place): the run loop detects the new
        # active list and resets its local cursor.
        self._active = []
        self._active_pos = 0
        self._buckets.clear()
        self._key_heap.clear()
        self._far = []
        self._active_key = int(self.now * self._inv_width)
        self._horizon_key = self._active_key + self._span
        self._cancelled = [0]

    # -- draining -----------------------------------------------------

    def _advance_day(self) -> bool:
        """Activate the next non-empty bucket; False when none remain.

        Before activating, migrate overflow entries whose bucket falls
        within the new horizon — in particular any earlier than the
        candidate bucket itself, so a bucket is never activated while
        an earlier entry hides in the overflow heap.
        """
        key_heap = self._key_heap
        far = self._far
        if far:
            inv_width = self._inv_width
            span = self._span
            buckets = self._buckets
            next_key = (key_heap[0] if key_heap
                        else int(far[0][0] * inv_width))
            horizon = next_key + span
            while far:
                far_key = int(far[0][0] * inv_width)
                if far_key >= horizon:
                    break
                entry = heappop(far)
                bucket = buckets.get(far_key)
                if bucket is None:
                    buckets[far_key] = [entry]
                    heappush(key_heap, far_key)
                    if far_key < next_key:
                        next_key = far_key
                        horizon = next_key + span
                else:
                    bucket.append(entry)
        if not key_heap:
            return False
        key = heappop(key_heap)
        active = self._buckets.pop(key)
        active.sort()
        self._active = active
        self._active_pos = 0
        self._active_key = key
        self._horizon_key = key + self._span
        return True

    def _ensure_head(self) -> bool:
        """Position ``_active_pos`` on the next live entry.

        Skips (and collects) cancelled entries, advancing buckets as
        needed.  Returns False when no live event remains.
        """
        active = self._active
        pos = self._active_pos
        while True:
            if pos < len(active):
                entry = active[pos]
                if entry[_CANCELLED]:
                    entry[_COUNTER][0] -= 1
                    entry[_COUNTER] = None
                    pos += 1
                    continue
                self._active_pos = pos
                return True
            self._active_pos = pos
            if not self._advance_day():
                return False
            active = self._active
            pos = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty."""
        if not self._ensure_head():
            return None
        return self._active[self._active_pos][_TIME]

    def step(self) -> bool:
        """Run the next live event; returns False when none remain."""
        if not self._ensure_head():
            return False
        pos = self._active_pos
        entry = self._active[pos]
        self._active_pos = pos + 1
        entry[_COUNTER] = None
        self.now = entry[_TIME]
        self.processed += 1
        entry[_FN](*entry[_ARGS])
        return True

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
        remaining = -1 if max_events is None else max_events
        while self._ensure_head():
            if remaining == 0:
                return
            pos = self._active_pos
            entry = self._active[pos]
            time = entry[_TIME]
            if until is not None and time > until:
                self.now = until
                return
            self._active_pos = pos + 1
            entry[_COUNTER] = None
            self.now = time
            self.processed += 1
            entry[_FN](*entry[_ARGS])
            remaining -= 1


class HeapSimulator:
    """The event loop over a single binary heap.

    The original kernel implementation, preserved verbatim as the
    equivalence oracle for :class:`Simulator` (same entry format, same
    ``(time, priority, seq)`` pop order, same API).  Select it with
    ``ExperimentConfig(kernel="heap")``.
    """

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
        """Insert one queue entry (see :meth:`Simulator._push`)."""
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
        """Drop every queued event (see :meth:`Simulator.halt`)."""
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
        ``max_events`` have been processed (a runaway-loop backstop)."""
        queue = self._queue
        pop = heappop
        if until is None and max_events is None:
            # Run-to-exhaustion fast path: no bound checks per event.
            # Semantically the general loop below with both guards
            # stripped; keep the pop/cancel handling in sync.
            while queue:
                entry = pop(queue)
                if entry[_CANCELLED]:
                    entry[_COUNTER][0] -= 1
                    entry[_COUNTER] = None
                    continue
                entry[_COUNTER] = None
                self.now = entry[_TIME]
                self.processed += 1
                entry[_FN](*entry[_ARGS])
            return
        remaining = -1 if max_events is None else max_events
        while queue:
            entry = queue[0]
            if entry[_CANCELLED]:
                pop(queue)
                entry[_COUNTER][0] -= 1
                entry[_COUNTER] = None
                continue
            if remaining == 0:
                return
            time = entry[_TIME]
            if until is not None and time > until:
                self.now = until
                return
            pop(queue)
            entry[_COUNTER] = None
            self.now = time
            self.processed += 1
            entry[_FN](*entry[_ARGS])
            remaining -= 1
