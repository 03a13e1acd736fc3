"""The versioned trace-event schema.

Every record a :class:`~repro.observability.tracer.Tracer` produces is
a :class:`TraceEvent` — an event kind from :data:`EVENT_SCHEMA`, a
simulation timestamp, and the kind's fields.  The schema is versioned
(:data:`SCHEMA_VERSION`): a JSONL trace file opens with a
``trace.meta`` line carrying the version plus the traced system's
context (geometry, FTL, buffer capacity), so readers can reject files
they do not understand and normalise fields like buffer occupancy
against capacity.

``docs/OBSERVABILITY.md`` renders :data:`EVENT_SCHEMA` as the
reference table; keep the two in sync.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

#: Trace format version.  Bump when a kind's fields change meaning or
#: shape; readers must refuse newer versions.
SCHEMA_VERSION = 1

# -- event kinds -------------------------------------------------------

OP_ISSUE = "op.issue"
OP_COMPLETE = "op.complete"
TPO_FAST_OPEN = "2po.fast_open"
TPO_LSB_COMPLETE = "2po.lsb_complete"
TPO_BLOCK_FULL = "2po.block_full"
ALLOC_DECISION = "alloc.decision"
GC_VICTIM = "gc.victim"
PARITY_WRITE = "parity.write"
FAULT_INJECT = "fault.inject"
FAULT_RECOVER = "fault.recover"
RELIABILITY_READ_ERROR = "reliability.read_error"
RELIABILITY_RETRY_SHIFT = "reliability.retry_shift"
QOS_ADMIT = "qos.admit"
QOS_ARBITRATE = "qos.arbitrate"
PROFILE_PHASE = "profile.phase"
SCENARIO_PHASE = "scenario.phase"

#: kind -> ((field, description), ...).  Every event also carries
#: ``ev`` (the kind), ``t`` (simulation time, seconds) and ``phase``
#: (the profiler phase active when it was emitted).
EVENT_SCHEMA: Dict[str, Tuple[Tuple[str, str], ...]] = {
    OP_ISSUE: (
        ("chip", "global chip id the op was dispatched to"),
        ("kind", "flash op kind: program | read | erase"),
        ("tag", "op origin: host | gc | backup | recovery | salvage"),
        ("block", "chip-local block id"),
        ("page", "page index within the block (0 for erases)"),
        ("lpn", "logical page, or -1 when the op carries none"),
        ("t_done", "scheduled completion time (fault ladders may "
                   "defer the actual completion)"),
    ),
    OP_COMPLETE: (
        ("chip", "global chip id"),
        ("kind", "flash op kind: program | read | erase"),
        ("tag", "op origin: host | gc | backup | recovery | salvage"),
        ("block", "chip-local block id"),
        ("page", "page index within the block"),
        ("lpn", "logical page, or -1"),
        ("t_issue", "time the op was dispatched"),
    ),
    TPO_FAST_OPEN: (
        ("chip", "global chip id"),
        ("block", "free block opened as the chip's 2PO fast block"),
    ),
    TPO_LSB_COMPLETE: (
        ("chip", "global chip id"),
        ("block", "block whose last LSB page was just allocated; it "
                  "joins the slow-block queue and its parity page is "
                  "persisted"),
    ),
    TPO_BLOCK_FULL: (
        ("chip", "global chip id"),
        ("block", "fully-written block entering the GC-eligible full "
                  "set (all FTLs, not just flexFTL)"),
    ),
    ALLOC_DECISION: (
        ("chip", "global chip id the host page was placed on"),
        ("block", "chip-local block id"),
        ("page", "page index within the block"),
        ("ptype", "0 = LSB, 1 = MSB"),
        ("u_pages", "write-buffer occupancy in pages, sampled after "
                    "the placed page left the buffer (the decision "
                    "saw u_pages + 1; capacity is in trace.meta)"),
        ("q", "LSB quota after the placement (-1 for FTLs without a "
              "quota), already debited/credited by this decision"),
    ),
    GC_VICTIM: (
        ("chip", "global chip id"),
        ("block", "victim block selected for collection"),
        ("valid", "live pages to relocate off the victim"),
        ("background", "1 for idle-time collection, 0 for foreground"),
    ),
    PARITY_WRITE: (
        ("chip", "global chip id"),
        ("owner", "global block id the parity page protects"),
        ("block", "backup block receiving the parity page"),
        ("page", "page index of the parity slot"),
        ("cycled", "1 when allocating the slot cycled a backup block "
                   "(erase + live-parity relocations preceded it)"),
    ),
    FAULT_INJECT: (
        ("chip", "global chip id the fault fired on"),
        ("fault", "program_fail | erase_fail | read_fault | grown_bad"),
        ("tag", "tag of the op the fault was injected into"),
        ("block", "chip-local block id of the faulted op"),
        ("page", "page index of the faulted op"),
    ),
    FAULT_RECOVER: (
        ("chip", "global chip id"),
        ("fault", "the fault kind being recovered"),
        ("outcome", "retried | reconstructed | lost | redriven | "
                    "retired"),
        ("pages", "pages the outcome applies to"),
    ),
    RELIABILITY_READ_ERROR: (
        ("chip", "global chip id the failed host read landed on"),
        ("block", "chip-local block id"),
        ("page", "page index within the block"),
        ("ber", "expected raw BER of the read (rung 0, unshifted "
                "references), from the physics engine's closed form"),
        ("prob", "page ECC-failure probability the error was drawn "
                 "from"),
    ),
    RELIABILITY_RETRY_SHIFT: (
        ("chip", "global chip id"),
        ("block", "chip-local block id"),
        ("page", "page index within the block"),
        ("shift", "read-reference voltage shift of this retry rung "
                  "(volts; negative tracks retention loss, positive "
                  "tracks aggressor coupling)"),
        ("recovered", "1 when this rung's re-read passed hard ECC "
                      "(ladder ends), 0 when it failed onward"),
    ),
    QOS_ADMIT: (
        ("tenant", "tenant name"),
        ("kind", "read | write"),
        ("lpn", "first logical page of the request"),
        ("npages", "request length in pages"),
        ("depth", "tenant submission-queue depth after the admit"),
    ),
    QOS_ARBITRATE: (
        ("tenant", "tenant the arbiter selected"),
        ("depth", "tenant queue depth before the dispatched command "
                  "was popped"),
        ("issued", "commands dispatched to the controller so far"),
    ),
    PROFILE_PHASE: (
        ("name", "phase name (e.g. warmup, measured)"),
        ("wall_seconds", "wall-clock duration of the phase"),
        ("events", "kernel events retired during the phase"),
        ("sim_seconds", "simulated time the phase advanced"),
    ),
    SCENARIO_PHASE: (
        ("name", "scenario phase the workload just entered (a "
                 "generator schedule label, e.g. steady, delivery)"),
        ("prev", "phase being left, '' at the first transition"),
        ("stream", "scenario stream whose op first crossed the "
                   "phase boundary"),
    ),
}

#: op-kind codes used by the tracer's flat record buffer.
OP_KIND_NAMES = ("program", "read", "erase")


class TraceEvent:
    """One structured trace record.

    Attributes:
        kind: an :data:`EVENT_SCHEMA` key.
        time: simulation time the event occurred at, in seconds.
        fields: the kind's fields (including ``phase``).
    """

    __slots__ = ("kind", "time", "fields")

    def __init__(self, kind: str, time: float,
                 fields: Dict[str, object]) -> None:
        self.kind = kind
        self.time = time
        self.fields = fields

    def to_dict(self) -> Dict[str, object]:
        """JSON projection: ``{"ev": kind, "t": time, **fields}``."""
        data: Dict[str, object] = {"ev": self.kind, "t": self.time}
        data.update(self.fields)
        return data

    def to_json_line(self) -> str:
        """One JSONL line (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def __repr__(self) -> str:
        return (f"TraceEvent({self.kind!r}, t={self.time:.6g}, "
                f"{self.fields!r})")
