"""Operation-log tracing for simulation runs.

Attach an :class:`OpLog` to a controller to record every NAND
operation it executes — issue time, chip, kind, provenance tag and
address.  Used by tests to assert scheduling behaviour directly
(read priority, per-chip serialisation, GC step ordering) and by
users to debug FTL policies.

Usage::

    log = OpLog.attach(controller)
    ... run ...
    programs = log.filter(kind=OpKind.PROGRAM, tag="host")
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional

from repro.observability.events import OP_KIND_NAMES
from repro.observability.tracer import Tracer
from repro.sim.controller import StorageController
from repro.sim.ops import OpKind

#: op-ring kind code -> OpKind (the ring stores the code)
_KINDS = tuple(OpKind(name) for name in OP_KIND_NAMES)


@dataclasses.dataclass(frozen=True)
class OpRecord:
    """One executed NAND operation."""

    time: float
    chip_id: int
    kind: OpKind
    tag: str
    channel: int
    chip: int
    block: int
    page: int
    lpn: Optional[int]


class OpLog:
    """A view over the op ring a controller's ``_execute`` feeds.

    Attach with :meth:`attach`.  The ring belongs to the controller's
    :class:`~repro.observability.tracer.Tracer`: an OpLog attached to a
    traced controller shares the installed tracer's ring (and records
    while that tracer stays installed); otherwise it arms a ring-only
    tracer, which a later ``Tracer.install`` takes over without the
    log missing an op.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        #: the ring viewed; an unattached log views an empty one
        self._ring = Tracer(capacity)  # validates capacity
        self._controller: Optional[StorageController] = None
        self._chips_per_channel = 1

    @classmethod
    def attach(cls, controller: StorageController,
               capacity: Optional[int] = None) -> "OpLog":
        """Create a log over ``controller``'s op ring.

        Raises :class:`RuntimeError` when the controller already
        records into a ring of a different capacity.
        """
        log = cls(capacity)
        ring = controller._trace
        if ring is None:
            # ring-only: no hooks, metrics or GC tuning (cold events a
            # fault path emits are kept on the tracer, unused)
            ring = log._ring
            ring._sim = controller.sim
            controller._trace = ring
        elif ring.capacity != capacity:
            raise RuntimeError(
                f"the controller already records into a ring of "
                f"capacity {ring.capacity}, not {capacity}")
        log._ring = ring
        log._controller = controller
        log._chips_per_channel = controller.geometry.chips_per_channel
        return log

    def _owner(self) -> Tracer:
        """The tracer trimming the ring now: a tracer installed over
        this log's ring-only one shares its list and takes over."""
        ring = self._ring
        controller = self._controller
        if controller is not None and controller._trace is not None \
                and controller._trace._op_raw is ring._op_raw:
            return controller._trace
        return ring

    @property
    def records(self) -> List[OpRecord]:
        """The retained operations, oldest first."""
        owner = self._owner()
        owner._trim()
        raw = owner._op_raw
        cpc = self._chips_per_channel
        return [
            OpRecord(time=raw[i], chip_id=raw[i + 2],
                     kind=_KINDS[raw[i + 3]], tag=raw[i + 4],
                     channel=raw[i + 2] // cpc, chip=raw[i + 2] % cpc,
                     block=raw[i + 5], page=raw[i + 6],
                     lpn=None if raw[i + 7] < 0 else raw[i + 7])
            for i in range(0, len(raw), 8)
        ]

    @property
    def dropped(self) -> int:
        """Operations trimmed from the ring at capacity."""
        owner = self._owner()
        owner._trim()
        return owner.dropped_ops

    def __len__(self) -> int:
        return self._owner().op_count

    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self.records)

    def filter(self, kind: Optional[OpKind] = None,
               tag: Optional[str] = None,
               chip_id: Optional[int] = None,
               predicate: Optional[Callable[[OpRecord], bool]] = None
               ) -> List[OpRecord]:
        """Select records by kind/tag/chip and an optional predicate."""
        out = []
        for record in self.records:
            if kind is not None and record.kind is not kind:
                continue
            if tag is not None and record.tag != tag:
                continue
            if chip_id is not None and record.chip_id != chip_id:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def counts_by_tag(self) -> "dict[str, int]":
        """Histogram of operations by provenance tag."""
        histogram: dict = {}
        for record in self.records:
            histogram[record.tag] = histogram.get(record.tag, 0) + 1
        return histogram
