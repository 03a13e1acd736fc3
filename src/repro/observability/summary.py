"""Digest a JSONL trace into per-phase counts and phase timings.

``repro trace summary <file.jsonl>`` renders a :class:`TraceSummary`.
The op counts here reconcile *exactly* with the run's ``SimStats`` /
FTL counters — ``tests/test_trace_summary.py`` asserts it — which is
the property that makes the trace trustworthy: an aggregate that
disagrees with the event log means one of the two is lying.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple

from repro.observability import events as ev

#: ``trace.meta`` drop counters of a bounded tracer, with their labels.
_DROP_LABELS = (("dropped_ops", "op records"),
                ("dropped_allocs", "allocation records"),
                ("dropped_request_events", "per-request events"))


class TraceFormatError(ValueError):
    """The file is not a readable trace of a supported schema."""


@dataclasses.dataclass
class TraceSummary:
    """Aggregated view of one trace."""

    meta: Dict[str, object]
    #: (phase, tag, kind) -> issued op count
    op_counts: Dict[Tuple[str, str, str], int]
    #: (phase, ptype) -> host allocation decisions (ptype: lsb | msb)
    alloc_counts: Dict[Tuple[str, str], int]
    #: event kind -> count, ops/allocs/profile excluded
    cold_counts: Dict[str, int]
    #: profile.phase events in file order
    phases: List[Dict[str, object]]
    total_events: int

    # -- reconciliation helpers ---------------------------------------

    def ops(self, phase: Optional[str] = None,
            tag: Optional[str] = None,
            kind: Optional[str] = None) -> int:
        """Issued ops matching the given phase/tag/kind filters."""
        return sum(
            count for (p, t, k), count in self.op_counts.items()
            if (phase is None or p == phase)
            and (tag is None or t == tag)
            and (kind is None or k == kind)
        )

    def allocs(self, phase: Optional[str] = None,
               ptype: Optional[str] = None) -> int:
        """Host allocation decisions matching the filters."""
        return sum(
            count for (p, pt), count in self.alloc_counts.items()
            if (phase is None or p == phase)
            and (ptype is None or pt == ptype)
        )

    def phase_events(self) -> int:
        """Kernel events across all profiled phases."""
        return sum(int(phase["events"]) for phase in self.phases)

    # -- serialization / rendering ------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON projection for ``--json``."""
        return {
            "meta": dict(self.meta),
            "op_counts": {
                f"{phase}/{tag}/{kind}": count
                for (phase, tag, kind), count
                in sorted(self.op_counts.items())
            },
            "alloc_counts": {
                f"{phase}/{ptype}": count
                for (phase, ptype), count
                in sorted(self.alloc_counts.items())
            },
            "cold_counts": dict(sorted(self.cold_counts.items())),
            "phases": list(self.phases),
            "total_events": self.total_events,
        }

    def render(self) -> str:
        """The text report."""
        lines: List[str] = []
        meta = self.meta
        lines.append(
            f"trace schema v{meta.get('schema', '?')}: "
            f"{meta.get('ftl', '?')} on "
            f"{meta.get('channels', '?')}x"
            f"{meta.get('chips_per_channel', '?')} chips, "
            f"{self.total_events} events"
            + "".join(f", {meta[key]} {label} dropped (ring)"
                      for key, label in _DROP_LABELS if meta.get(key)))
        if self.phases:
            lines.append("")
            lines.append(f"{'phase':12s} {'wall [s]':>9s} "
                         f"{'events':>10s} {'events/s':>10s} "
                         f"{'sim [s]':>9s}")
            for phase in self.phases:
                wall = float(phase["wall_seconds"])
                events = int(phase["events"])
                rate = events / wall if wall > 0 else float("nan")
                lines.append(
                    f"{str(phase['name']):12s} {wall:>9.3f} "
                    f"{events:>10d} {rate:>10.0f} "
                    f"{float(phase['sim_seconds']):>9.4f}")
        if self.op_counts:
            lines.append("")
            lines.append(f"{'phase':12s} {'tag':10s} {'kind':8s} "
                         f"{'ops':>9s}")
            for (phase, tag, kind), count \
                    in sorted(self.op_counts.items()):
                lines.append(f"{phase:12s} {tag:10s} {kind:8s} "
                             f"{count:>9d}")
        if self.alloc_counts:
            lines.append("")
            for (phase, ptype), count \
                    in sorted(self.alloc_counts.items()):
                lines.append(f"alloc {phase}/{ptype}: {count}")
        if self.cold_counts:
            lines.append("")
            for kind, count in sorted(self.cold_counts.items()):
                lines.append(f"{kind}: {count}")
        return "\n".join(lines)


def summarize_events(meta: Dict[str, object],
                     records: List[Dict[str, object]]) -> TraceSummary:
    """Aggregate decoded event records into a :class:`TraceSummary`."""
    op_counts: Dict[Tuple[str, str, str], int] = {}
    alloc_counts: Dict[Tuple[str, str], int] = {}
    cold_counts: Dict[str, int] = {}
    phases: List[Dict[str, object]] = []
    for record in records:
        kind = record["ev"]
        phase = str(record.get("phase", "run"))
        if kind == ev.OP_ISSUE:
            key = (phase, str(record["tag"]), str(record["kind"]))
            op_counts[key] = op_counts.get(key, 0) + 1
        elif kind == ev.OP_COMPLETE:
            pass  # completions mirror issues; counted once
        elif kind == ev.ALLOC_DECISION:
            ptype = "msb" if record["ptype"] else "lsb"
            akey = (phase, ptype)
            alloc_counts[akey] = alloc_counts.get(akey, 0) + 1
        elif kind == ev.PROFILE_PHASE:
            phases.append({
                "name": record["name"],
                "wall_seconds": record["wall_seconds"],
                "events": record["events"],
                "sim_seconds": record["sim_seconds"],
            })
        else:
            cold_counts[str(kind)] = cold_counts.get(str(kind), 0) + 1
    return TraceSummary(
        meta=meta,
        op_counts=op_counts,
        alloc_counts=alloc_counts,
        cold_counts=cold_counts,
        phases=phases,
        total_events=len(records),
    )


def summarize_tracer(tracer) -> TraceSummary:
    """Summarize an in-memory tracer (same digest as the JSONL path)."""
    return summarize_events(
        tracer.meta_line(),
        [event.to_dict() for event in tracer.events()])


def summarize_jsonl(path: str) -> TraceSummary:
    """Read and digest one JSONL trace file."""
    meta: Optional[Dict[str, object]] = None
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path}:{line_no}: not JSON ({error})") from error
            if not isinstance(record, dict) or "ev" not in record:
                raise TraceFormatError(
                    f"{path}:{line_no}: not a trace record")
            if record["ev"] == "trace.meta":
                if meta is not None:
                    raise TraceFormatError(
                        f"{path}:{line_no}: duplicate trace.meta")
                schema = record.get("schema")
                if schema != ev.SCHEMA_VERSION:
                    raise TraceFormatError(
                        f"{path}: schema {schema!r} unsupported "
                        f"(reader understands {ev.SCHEMA_VERSION})")
                meta = record
                continue
            records.append(record)
    if meta is None:
        raise TraceFormatError(f"{path}: missing trace.meta header")
    return summarize_events(meta, records)
