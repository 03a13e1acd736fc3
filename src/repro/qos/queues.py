"""NVMe-style per-tenant submission queues.

Each tenant owns one :class:`SubmissionQueue` in front of the storage
controller.  A host enqueues ready-to-issue requests into its tenant's
queue; the arbiter (:mod:`repro.qos.arbiter`) decides which queue's
head command the device fetches next.  Keeping the backlog *in front
of* the controller — instead of letting it pile into the controller's
FIFO admission queue — is what makes arbitration policy matter: once a
request is submitted to the controller its service order is fixed.

Queues keep a running time-weighted queue depth (updated on every push
and pop, in constant memory) so per-tenant backlog behaviour can be
reported next to latency percentiles (:mod:`repro.qos.slo`).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Optional

from repro.sim.queues import Request


@dataclasses.dataclass(slots=True)
class QueuedCommand:
    """One submission-queue entry.

    Attributes:
        request: the host request, already tagged with the tenant id.
        seq: global arrival sequence number across *all* queues; the
            FIFO arbiter replays this order, which is exactly what a
            single shared queue would have done.
        enqueued_at: submission-queue entry time (the request's
            ``time`` field carries the same value, so completion
            latency includes the queueing delay).
    """

    request: Request
    seq: int
    enqueued_at: float


class SubmissionQueue:
    """FIFO of commands one tenant has submitted but not yet issued.

    Args:
        tenant: owning tenant id (stamped on the depth timeline).
        max_depth: optional queue-depth bound; pushing beyond it
            raises ``OverflowError``.  Closed-loop tenants are bounded
            by their stream count and never hit this; open-loop trace
            tenants may use it to model a fixed-size NVMe queue.
    """

    def __init__(self, tenant: str,
                 max_depth: Optional[int] = None) -> None:
        if max_depth is not None and max_depth <= 0:
            raise ValueError(
                f"max_depth must be positive, got {max_depth}")
        self.tenant = tenant
        self.max_depth = max_depth
        self.enqueued = 0
        self.issued = 0
        self.max_depth_seen = 0
        self._fifo: Deque[QueuedCommand] = deque()
        # Running depth statistics over the (time, depth) samples taken
        # on every push and pop: sample count, first and last sample,
        # the depth sum (zero-span fallback) and the time-weighted sum.
        self._samples = 0
        self._first_time = 0.0
        self._last_time = 0.0
        self._last_depth = 0
        self._depth_sum = 0
        self._weighted = 0.0

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def is_empty(self) -> bool:
        """Whether there is nothing to arbitrate for this tenant."""
        return not self._fifo

    @property
    def head(self) -> QueuedCommand:
        """The oldest queued command (raises ``IndexError`` if empty)."""
        return self._fifo[0]

    def push(self, request: Request, seq: int, now: float) -> QueuedCommand:
        """Enqueue one command at time ``now``."""
        if self.max_depth is not None \
                and len(self._fifo) >= self.max_depth:
            raise OverflowError(
                f"submission queue {self.tenant!r} is full "
                f"(max_depth={self.max_depth})")
        command = QueuedCommand(request=request, seq=seq,
                                enqueued_at=now)
        self._fifo.append(command)
        self.enqueued += 1
        depth = len(self._fifo)
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        self._sample(now, depth)
        return command

    def pop(self, now: float) -> QueuedCommand:
        """Dequeue the head command (the arbiter selected this queue)."""
        if not self._fifo:
            raise IndexError(
                f"submission queue {self.tenant!r} is empty")
        command = self._fifo.popleft()
        self.issued += 1
        self._sample(now, len(self._fifo))
        return command

    def _sample(self, now: float, depth: int) -> None:
        """Fold one (time, depth) sample into the running sums."""
        if self._samples:
            self._weighted += self._last_depth * (now - self._last_time)
        else:
            self._first_time = now
        self._samples += 1
        self._depth_sum += depth
        self._last_time = now
        self._last_depth = depth

    def mean_depth(self) -> float:
        """Time-weighted mean queue depth over the sampled interval.

        0.0 when fewer than two samples exist (no interval to weight).
        """
        if self._samples < 2:
            return 0.0
        span = self._last_time - self._first_time
        if span <= 0.0:
            # All activity at one instant: fall back to a plain mean.
            return self._depth_sum / self._samples
        return self._weighted / span
