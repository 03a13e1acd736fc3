"""Structured observability: tracing, metrics and profiling hooks.

The paper's claims rest on *internal* FTL dynamics — 2PO phase
transitions, LSB/MSB allocation decisions, parity-slot churn — that
end-of-run aggregates cannot attribute to mechanisms.  This package
adds three cross-cutting facilities:

* a **trace bus** (:class:`~repro.observability.tracer.Tracer`):
  typed, versioned :class:`~repro.observability.events.TraceEvent`
  records emitted from the controller, the FTLs, the fault machinery
  and the QoS front-end, with an in-memory ring buffer and a JSONL
  sink.  Tracing is strictly opt-in: when no tracer is installed the
  controller's single op-issue path, ``_execute``, pays one ``is None``
  check per op (when one is, it appends a flat record to the tracer's
  op ring there), and cold paths pay the same single check.
* a **metrics registry**
  (:class:`~repro.observability.metrics.MetricsRegistry`): counters,
  gauges and histograms labeled by chip/tenant/ftl, recorded on the
  non-hot paths and snapshotted into ``SimStats.to_dict()`` when
  attached.
* **profiling hooks**
  (:class:`~repro.observability.profiler.PhaseProfiler`): per-phase
  wall-clock and kernel event-count timers around the simulation loop,
  surfaced via ``repro trace summary`` and guarded by
  ``repro perfbench --trace-overhead``.

See ``docs/OBSERVABILITY.md`` for the event schema and usage.
"""

from repro.observability.events import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    TraceEvent,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profiler import PhaseProfiler, PhaseTiming
from repro.observability.summary import TraceSummary, summarize_jsonl
from repro.observability.tracer import Tracer

__all__ = [
    "EVENT_SCHEMA",
    "SCHEMA_VERSION",
    "TraceEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "PhaseTiming",
    "TraceSummary",
    "summarize_jsonl",
    "Tracer",
]
