"""The trace bus: capture, ring buffer, and JSONL sink.

Design constraints, in order:

1. **Zero overhead when off.**  No component calls into this module
   unless a tracer is installed: the one op-issue path,
   ``StorageController._execute``, and every cold emission site guard
   with a single ``self._trace is not None`` check against a class
   attribute that defaults to ``None``.

2. **Low overhead when on.**  Per-op capture in ``_execute`` appends
   *scalars* to this tracer's flat op ring via one ``list.extend``
   call (the :class:`~repro.sim.tracing.OpLog` is a view over the
   same ring).  Retaining tuples or op objects would keep GC-tracked
   objects alive in the buffer: the cyclic collector rescans that
   ever-growing live set and the simulation rate drops 15-40%
   (measured — retaining the completion heap entries themselves, a
   zero-allocation capture on paper, lost 42%).  Floats, ints and interned strings are never GC-tracked, and
   the transient argument tuple nets zero allocation-counter
   pressure.  Field decoding (kind names, phases) is deferred to
   :meth:`events` materialization, off the hot path.  Per-request
   QoS records (``qos.admit``/``qos.arbitrate``) take the same route:
   positional calls append scalars to their own ring, and
   materialization merges them back among the cold events at the
   positions they were emitted in.  The measured enabled-tracing
   overhead lives in ``BENCH_PR5.json`` (fig8_write) and
   ``BENCH_PR18.json`` (qos_mix).

3. **Determinism.**  Capture never reads the wall clock and never
   perturbs simulation state; a traced run produces byte-identical
   results to an untraced one (asserted in
   ``tests/test_observability.py``).

Phase attribution: hot records are not stamped with the current phase
(that costs a subscript and a slot per record); instead
:meth:`begin_phase` logs a ``(sim-time, name)`` transition and
materialization derives each record's phase from its *issue* time —
the latest transition at or before it.  An op that issues in one phase
and completes in the next is attributed entirely to the issuing phase,
matching stamped semantics.  The one caveat: events issued at the
exact simulation time of a later ``begin_phase`` call are attributed
to the new phase.  The experiment runner is safe — a run-to-exhaustion
warmup cannot issue an op at its own final timestamp (the completion
would still be queued) — but callers flipping phases mid-run should
advance simulated time first.  Cold events are rare enough to stamp
eagerly, so they are exact regardless.

Typical use::

    tracer = Tracer()
    result = run_workload(ftl_name="flexFTL", scenario=scenario,
                          tracer=tracer)
    tracer.write_jsonl("run.jsonl")   # then: repro trace summary
"""

from __future__ import annotations

import json
from bisect import bisect_right
from math import inf
from typing import Dict, List, Optional, Tuple

from repro.observability import events as ev
from repro.observability.events import OP_KIND_NAMES, TraceEvent
from repro.observability.metrics import Counter, Histogram, MetricsRegistry
from repro.observability.profiler import PhaseProfiler

#: Fields per flat op record: (t_issue, t_done, chip, kind_code, tag,
#: block, page, lpn) — phase is derived at materialization.
_OP_WIDTH = 8
#: Fields per flat allocation record: (t, chip, block, page, ptype,
#: u_pages, q).
_ALLOC_WIDTH = 7
#: How many records past capacity the ring may grow before an
#: amortized trim (one ``len`` comparison per op instead of an exact
#: per-op trim).
_TRIM_SLACK = 1024

#: Fields per flat per-request record: (code, t, cold_pos, phase,
#: tenant, *data) — ``code`` indexes :data:`_REQUEST_KINDS`, and
#: ``cold_pos`` is how many cold events preceded the record, which
#: places it among them at materialization.  Shorter kinds pad ``data``
#: with ``None``.
_REQUEST_WIDTH = 9
#: Per-request decode table: code -> (event kind, data field names).
_REQUEST_KINDS = (
    (ev.QOS_ADMIT, ("kind", "lpn", "npages", "depth")),
    (ev.QOS_ARBITRATE, ("depth", "issued")),
)

#: Warm-record decode table: code -> (event kind, data field names).
#: Warm records are flat ``(code, t, *data)`` captures for emission
#: sites that are too frequent for :meth:`Tracer.event`'s kwargs/dict
#: construction (a parity backup runs for ~a third of host pages in
#: flexFTL) but too rare for a dedicated hot-path closure.
_WARM_WIDTH = 7
_WARM_KINDS = (
    (ev.PARITY_WRITE, ("chip", "owner", "block", "page", "cycled")),
)


class Tracer:
    """Captures trace events from an instrumented storage system.

    Args:
        capacity: maximum retained records of each per-op or
            per-request kind: op records (one per flash op),
            allocation-decision records, and per-request QoS
            events (``qos.admit``/``qos.arbitrate``).  ``None`` (the
            default) retains everything; with a capacity each acts as a
            ring — the oldest records are trimmed in chunks and counted
            in :attr:`dropped_ops`, :attr:`dropped_allocs` and
            :attr:`dropped_request_events`.  The remaining cold events
            (GC, faults, parity, ...) are never trimmed; they are
            orders of magnitude rarer than host requests.
        enabled: the single on/off guard.  A disabled tracer's
            :meth:`install` is a no-op, leaving the system completely
            uninstrumented.
    """

    def __init__(self, capacity: Optional[int] = None,
                 enabled: bool = True) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.dropped_ops = 0
        self.dropped_allocs = 0
        self.dropped_request_events = 0
        self.metrics = MetricsRegistry()
        self.meta: Dict[str, object] = {}
        #: flat scalar buffers (see the module docstring for why); the
        #: op ring is fed by ``StorageController._execute``
        self._op_raw: List[object] = []
        #: ring length past which ``_execute`` calls :meth:`_trim` (one
        #: comparison per op; an unbounded ring compares against inf)
        self._op_limit = inf if capacity is None \
            else (capacity + _TRIM_SLACK) * _OP_WIDTH
        self._alloc_raw: List[object] = []
        #: allocation-ring length past which the hook calls
        #: :meth:`_trim_allocs` (same amortized scheme as the op ring)
        self._alloc_limit = inf if capacity is None \
            else (capacity + _TRIM_SLACK) * _ALLOC_WIDTH
        self._warm_raw: List[object] = []
        #: per-request (QoS) ring, fed by :meth:`qos_admit` and
        #: :meth:`qos_arbitrate`; same amortized trim as the op ring
        self._request_raw: List[object] = []
        self._request_limit = inf if capacity is None \
            else (capacity + _TRIM_SLACK) * _REQUEST_WIDTH
        #: per-tenant QoS instruments, resolved on first use (an
        #: instrument exists only once it has counted something)
        self._qos_admitted: List[Optional[Counter]] = []
        self._qos_dispatched: List[Optional[Tuple[Counter, Histogram]]] = []
        self._cold: List[TraceEvent] = []
        #: one-slot cell cold emission reads the current phase from
        self._phase_cell: List[str] = ["run"]
        #: phase transitions, parallel (times, names), for hot records
        self._phase_times: List[float] = []
        self._phase_names: List[str] = []
        self.profiler: Optional[PhaseProfiler] = None
        self._sim = None
        self._controller = None
        self._installed = False
        #: the OpLog ring-only tracer this one took the controller's
        #: ring over from (restored by detach), or None
        self._prior_ring: Optional["Tracer"] = None
        self._saved_hook: Optional[object] = None
        self._had_saved_hook = False

    # ------------------------------------------------------------------
    # install / detach

    def install(self, controller, qos_host=None) -> "Tracer":
        """Arm tracing on a controller (and optionally a QoS host).

        Plants ``_trace``/``_metrics`` references on the controller,
        the FTL and (when given) the QoS host — the controller's
        ``_execute`` then feeds this tracer's op ring and their cold
        paths emit — and chains into the FTL's ``_after_host_program``
        hook.  A disabled tracer installs nothing.

        A controller records into one op ring.  If an
        :class:`~repro.sim.tracing.OpLog` already armed one, this
        tracer takes it over (same list, so the log keeps seeing every
        op) and hands it back on :meth:`detach`; a second tracer, or a
        ring of another capacity, raises :class:`RuntimeError`.
        """
        if not self.enabled:
            return self
        if self._installed:
            raise RuntimeError("tracer is already installed")
        prior = controller._trace
        if prior is not None:
            if prior._installed:
                raise RuntimeError(
                    "the controller already has a tracer installed; "
                    "detach it first")
            if prior.capacity != self.capacity:
                raise RuntimeError(
                    f"the controller's OpLog ring has capacity "
                    f"{prior.capacity}, this tracer {self.capacity}; "
                    f"one controller records into one ring")
            self._op_raw = prior._op_raw
            self.dropped_ops = prior.dropped_ops
        self._prior_ring = prior
        self._installed = True
        self._controller = controller
        self._sim = controller.sim
        ftl = controller.ftl
        self.profiler = PhaseProfiler(controller.sim)

        geometry = controller.geometry
        self.meta = {
            "ftl": ftl.name,
            "channels": geometry.channels,
            "chips_per_channel": geometry.chips_per_channel,
            "blocks_per_chip": geometry.blocks_per_chip,
            "pages_per_block": geometry.pages_per_block,
            "page_size": geometry.page_size,
            "buffer_capacity": controller.write_buffer.capacity,
            "wordlines_per_block": ftl.wordlines,
        }

        # Chain the allocation hook.  _after_host_program may be a
        # class-level method (rtfFTL/parityFTL), an instance attribute
        # (flexFTL with a predictor), or None (the default); saving
        # the *instance* state lets detach restore all three.
        self._had_saved_hook = "_after_host_program" in ftl.__dict__
        self._saved_hook = ftl.__dict__.get("_after_host_program")
        ftl._after_host_program = self._make_alloc_hook(ftl)

        controller._trace = self
        controller._metrics = self.metrics
        ftl._trace = self
        ftl._metrics = self.metrics
        if qos_host is not None:
            self.attach_qos(qos_host)
        return self

    def attach_qos(self, qos_host) -> None:
        """Arm QoS admit/arbitrate tracing on a multi-tenant host.

        The host then calls :meth:`qos_admit` and :meth:`qos_arbitrate`
        with its tenant index, which selects that tenant's
        ``qos.admitted``, ``qos.dispatched`` and ``qos.dispatch_depth``
        instruments without a labeled registry lookup.
        """
        if not self.enabled:
            return
        tenants = len(qos_host.queues)
        self._qos_admitted = [None] * tenants
        self._qos_dispatched = [None] * tenants
        qos_host._trace = self

    def detach(self) -> None:
        """Disarm tracing, restoring the exact pre-install state."""
        if not self._installed:
            return
        controller = self._controller
        ftl = controller.ftl
        if self._had_saved_hook:
            ftl._after_host_program = self._saved_hook
        else:
            del ftl.__dict__["_after_host_program"]
        ftl._trace = None
        ftl._metrics = None
        controller._metrics = None
        prior = self._prior_ring
        controller._trace = prior
        if prior is not None:
            # hand the ring back to the OpLog; keep a private copy of
            # what was captured while installed
            prior.dropped_ops = self.dropped_ops
            self._op_raw = list(self._op_raw)
            self._prior_ring = None
        self._installed = False
        self._controller = None

    # ------------------------------------------------------------------
    # phases

    @property
    def phase(self) -> str:
        """The phase stamped on events emitted now."""
        return self._phase_cell[0]

    def begin_phase(self, name: str) -> None:
        """Start a profiling phase; subsequent events carry ``name``."""
        self._phase_cell[0] = name
        self._phase_times.append(
            self._sim.now if self._sim is not None else 0.0)
        self._phase_names.append(name)
        if self.profiler is not None:
            self.profiler.begin(name)

    def _phase_at(self, time: float) -> str:
        """The phase in effect at ``time`` (see the module docstring
        for the same-timestamp attribution rule)."""
        index = bisect_right(self._phase_times, time)
        return self._phase_names[index - 1] if index else "run"

    def finish(self) -> None:
        """Close the open phase and emit ``profile.phase`` events."""
        if self.profiler is None:
            return
        for timing in self.profiler.finish():
            self._cold.append(TraceEvent(ev.PROFILE_PHASE, timing.sim_end, {
                "name": timing.name,
                "wall_seconds": timing.wall_seconds,
                "events": timing.events,
                "sim_seconds": timing.sim_seconds,
                "phase": timing.name,
            }))
        self.profiler.timings.clear()

    # ------------------------------------------------------------------
    # cold-path emission (components call this behind `_trace is not
    # None` checks; never on a per-op hot path)

    def event(self, kind: str, /, **fields: object) -> None:
        """Emit one cold event at the current simulation time.

        ``kind`` is positional-only: some schemas (``qos.admit``)
        carry a field that is itself named ``kind``.
        """
        fields["phase"] = self._phase_cell[0]
        self._cold.append(TraceEvent(kind, self._sim.now, fields))

    def qos_admit(self, tenant_index: int, now: float, tenant: str,
                  kind: str, lpn: int, npages: int, depth: int) -> None:
        """Capture one ``qos.admit`` (a request entered its tenant's
        submission queue) and count it in ``qos.admitted``."""
        raw = self._request_raw
        raw.extend((0, now, len(self._cold), self._phase_cell[0], tenant,
                    kind, lpn, npages, depth))
        if len(raw) >= self._request_limit:
            self._trim_requests()
        counter = self._qos_admitted[tenant_index]
        if counter is None:
            counter = self._qos_admitted[tenant_index] = \
                self.metrics.counter("qos.admitted", tenant=tenant)
        counter.value += 1

    def qos_arbitrate(self, tenant_index: int, now: float, tenant: str,
                      depth: int, issued: int) -> None:
        """Capture one ``qos.arbitrate`` (the arbiter picked a tenant's
        head command) and count it in ``qos.dispatched`` and
        ``qos.dispatch_depth``."""
        raw = self._request_raw
        raw.extend((1, now, len(self._cold), self._phase_cell[0], tenant,
                    depth, issued, None, None))
        if len(raw) >= self._request_limit:
            self._trim_requests()
        meters = self._qos_dispatched[tenant_index]
        if meters is None:
            metrics = self.metrics
            meters = self._qos_dispatched[tenant_index] = (
                metrics.counter("qos.dispatched", tenant=tenant),
                metrics.histogram("qos.dispatch_depth", tenant=tenant))
        meters[0].value += 1
        meters[1].observe(depth)

    def warm_parity(self, chip: int, owner: int, block: int,
                    page: int, cycled: int) -> None:
        """Flat-capture one ``parity.write`` (see ``_WARM_KINDS``)."""
        self._warm_raw.extend((0, self._sim.now, chip, owner, block,
                               page, cycled))

    # ------------------------------------------------------------------
    # hot-path capture machinery

    def _make_alloc_hook(self, ftl):
        """The chained ``_after_host_program`` hook capturing one
        allocation-decision record per placed host page.

        ``u_pages`` is sampled *after* the placed page left the write
        buffer (the decision saw ``u_pages + 1``) and ``q`` after the
        quota debit/credit — both are the post-placement state, which
        is what the next decision will see.
        """
        buffer = ftl.write_buffer
        quota = getattr(ftl, "quota", None)
        prev = ftl._after_host_program  # bound method, attr, or None
        raw = self._alloc_raw
        raw_extend = raw.extend
        limit = self._alloc_limit
        trim = self._trim_allocs

        if quota is None:
            def _alloc_hook(chip_id, addr, ptype, now):
                raw_extend((now, chip_id, addr[2], addr[3],
                            1 if ptype else 0, buffer._live, -1))
                if len(raw) >= limit:
                    trim()
        else:
            def _alloc_hook(chip_id, addr, ptype, now):
                raw_extend((now, chip_id, addr[2], addr[3],
                            1 if ptype else 0, buffer._live,
                            quota.value))
                if len(raw) >= limit:
                    trim()
        if prev is None:
            return _alloc_hook
        capture = _alloc_hook

        def _chained_hook(chip_id, addr, ptype, now):
            capture(chip_id, addr, ptype, now)
            prev(chip_id, addr, ptype, now)

        return _chained_hook

    # ------------------------------------------------------------------
    # buffer introspection

    def _trim(self) -> None:
        """Enforce the ring capacity exactly.

        ``StorageController._execute`` calls this lazily (once the ring
        passes ``_op_limit``, every ``_TRIM_SLACK`` records), so
        the buffer may briefly exceed ``capacity`` mid-run; every
        observation point (:attr:`op_count`, :meth:`events`) settles
        the debt first.
        """
        capacity = self.capacity
        raw = self._op_raw
        if capacity is not None and len(raw) > capacity * _OP_WIDTH:
            drop = len(raw) - capacity * _OP_WIDTH
            self.dropped_ops += drop // _OP_WIDTH
            del raw[:drop]

    def _trim_allocs(self) -> None:
        """Enforce the capacity on the allocation ring (see
        :meth:`_trim`; the hook calls this past ``_alloc_limit``)."""
        capacity = self.capacity
        raw = self._alloc_raw
        if capacity is not None and len(raw) > capacity * _ALLOC_WIDTH:
            drop = len(raw) - capacity * _ALLOC_WIDTH
            self.dropped_allocs += drop // _ALLOC_WIDTH
            del raw[:drop]

    def _trim_requests(self) -> None:
        """Enforce the capacity on the per-request ring (see
        :meth:`_trim`; the QoS capture calls this past
        ``_request_limit``)."""
        capacity = self.capacity
        raw = self._request_raw
        if capacity is not None and len(raw) > capacity * _REQUEST_WIDTH:
            drop = len(raw) - capacity * _REQUEST_WIDTH
            self.dropped_request_events += drop // _REQUEST_WIDTH
            del raw[:drop]

    def _settle(self) -> None:
        """Trim every bounded buffer to its capacity exactly."""
        self._trim()
        self._trim_allocs()
        self._trim_requests()

    @property
    def op_count(self) -> int:
        """Op records currently retained (excludes dropped ones)."""
        self._trim()
        return len(self._op_raw) // _OP_WIDTH

    @property
    def alloc_count(self) -> int:
        """Allocation-decision records retained (excludes dropped ones)."""
        self._trim_allocs()
        return len(self._alloc_raw) // _ALLOC_WIDTH

    def clear(self) -> None:
        """Drop all captured records (installation stays armed)."""
        self._op_raw.clear()
        self._alloc_raw.clear()
        self._warm_raw.clear()
        self._request_raw.clear()
        self._cold.clear()
        self.dropped_ops = 0
        self.dropped_allocs = 0
        self.dropped_request_events = 0

    # ------------------------------------------------------------------
    # materialization

    def events(self) -> List[TraceEvent]:
        """All captured records as :class:`TraceEvent`, time-ordered.

        Each op record expands into an ``op.issue`` and an
        ``op.complete`` event (both attributed to the phase in effect
        at *issue* time); the sort is stable, so simultaneous events
        keep a deterministic order (ops, then allocation decisions,
        then cold events).
        """
        self._settle()
        out: List[TraceEvent] = []
        phase_at = self._phase_at
        raw = self._op_raw
        for i in range(0, len(raw), _OP_WIDTH):
            (t_issue, t_done, chip, code, tag, block, page,
             lpn) = raw[i:i + _OP_WIDTH]
            kind = OP_KIND_NAMES[code]
            phase = phase_at(t_issue)
            out.append(TraceEvent(ev.OP_ISSUE, t_issue, {
                "chip": chip, "kind": kind, "tag": tag, "block": block,
                "page": page, "lpn": lpn, "t_done": t_done,
                "phase": phase,
            }))
            out.append(TraceEvent(ev.OP_COMPLETE, t_done, {
                "chip": chip, "kind": kind, "tag": tag, "block": block,
                "page": page, "lpn": lpn, "t_issue": t_issue,
                "phase": phase,
            }))
        araw = self._alloc_raw
        for i in range(0, len(araw), _ALLOC_WIDTH):
            (t, chip, block, page, ptype, live,
             q) = araw[i:i + _ALLOC_WIDTH]
            out.append(TraceEvent(ev.ALLOC_DECISION, t, {
                "chip": chip, "block": block, "page": page,
                "ptype": ptype, "u_pages": live, "q": q,
                "phase": phase_at(t),
            }))
        wraw = self._warm_raw
        for i in range(0, len(wraw), _WARM_WIDTH):
            record = wraw[i:i + _WARM_WIDTH]
            kind, names = _WARM_KINDS[record[0]]
            t = record[1]
            fields = dict(zip(names, record[2:]))
            fields["phase"] = phase_at(t)
            out.append(TraceEvent(kind, t, fields))
        out.extend(self._cold_events())
        out.sort(key=lambda event: event.time)
        return out

    def _cold_events(self) -> List[TraceEvent]:
        """The cold events with the per-request records decoded and
        merged back in at their emission positions."""
        cold = self._cold
        merged: List[TraceEvent] = []
        done = 0
        rraw = self._request_raw
        for i in range(0, len(rraw), _REQUEST_WIDTH):
            code, t, position, phase, tenant, *data = \
                rraw[i:i + _REQUEST_WIDTH]
            if position > done:
                merged.extend(cold[done:position])
                done = position
            kind, names = _REQUEST_KINDS[code]
            fields: Dict[str, object] = {"tenant": tenant}
            fields.update(zip(names, data))
            fields["phase"] = phase
            merged.append(TraceEvent(kind, t, fields))
        merged.extend(cold[done:])
        return merged

    # ------------------------------------------------------------------
    # sinks

    def meta_line(self) -> Dict[str, object]:
        """The ``trace.meta`` header record.

        A bounded tracer also reports what its allocation ring and
        per-request event bound dropped; an unbounded one never drops,
        and its header keeps the historical fields only.
        """
        self._settle()
        data: Dict[str, object] = {
            "ev": "trace.meta",
            "schema": ev.SCHEMA_VERSION,
            "dropped_ops": self.dropped_ops,
        }
        if self.capacity is not None:
            data["dropped_allocs"] = self.dropped_allocs
            data["dropped_request_events"] = self.dropped_request_events
        data.update(self.meta)
        return data

    def write_jsonl(self, path: str) -> int:
        """Write the trace as JSONL (meta header + one event per
        line); returns the number of event lines written."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.meta_line(),
                                    separators=(",", ":")) + "\n")
            for event in events:
                handle.write(event.to_json_line() + "\n")
        return len(events)

    def __repr__(self) -> str:
        state = "installed" if self._installed else "idle"
        return (f"Tracer({state}, ops={self.op_count}, "
                f"allocs={self.alloc_count}, cold={len(self._cold)}, "
                f"dropped={self.dropped_ops})")
