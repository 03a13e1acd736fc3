"""Storage controller: ties host, FTL and NAND array to the clock.

The controller owns per-chip busy state, per-channel transfer buses,
the host write buffer and read queues.  Whenever a chip is idle it asks
for work in priority order — queued host reads, then FTL work (buffer
drains, foreground GC, parity writes), then, if the whole device is
idle of host I/O, background garbage collection.

Write requests complete on write-buffer admission (buffered-write
semantics); read requests complete when their last page is read.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.nand.array import NandArray
from repro.nand.errors import ReadOnlyDeviceError
from repro.sim import _native
from repro.sim.kernel import Simulator
from repro.sim.ops import FlashOp, OpKind
from repro.sim.queues import (
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_RECOVERED,
    BufferedWrite,
    Request,
    RequestKind,
    WriteBuffer,
)
from repro.sim.stats import FaultStats, SimStats

# OpKind members hoisted to module level for the dispatch hot path
_PROGRAM = OpKind.PROGRAM
_READ = OpKind.READ


class StorageController:
    """Dispatches FTL-produced flash operations onto timed chips."""

    #: Observability hooks (:mod:`repro.observability`): a tracer and a
    #: metrics registry, installed together by ``Tracer.install``.
    #: Class-level None defaults keep untraced runs paying one
    #: ``is None`` check per op in :meth:`_execute` (where a tracer's
    #: op ring is fed) and one on each cold fault path.  An ``OpLog``
    #: alone plants a ring-only tracer here.
    _trace = None
    _metrics = None

    def __init__(
        self,
        sim: Simulator,
        array: NandArray,
        ftl,  # BaseFtl; untyped to avoid a circular import
        write_buffer: WriteBuffer,
        stats: Optional[SimStats] = None,
    ) -> None:
        self.sim = sim
        self.array = array
        self.geometry = array.geometry
        self.timing = array.timing
        self.ftl = ftl
        self.write_buffer = write_buffer
        self.stats = stats or SimStats(page_size=self.geometry.page_size)

        # geometry scalars cached as plain ints: the pump loop reads
        # them once per dispatch attempt
        self._total_chips = self.geometry.total_chips
        self._chips_per_channel = self.geometry.chips_per_channel
        self._pages_per_chip = self.geometry.pages_per_chip

        chips = self._total_chips
        self._busy: List[bool] = [False] * chips
        #: idle chip ids in ascending order; the pump iterates this
        #: instead of scanning (and mostly skipping) every chip
        self._idle: List[int] = list(range(chips))
        self._channel_free: List[float] = [0.0] * self.geometry.channels
        self._t_transfer = self.timing.t_transfer
        # array bound methods cached: the array reference never changes
        # after construction (polymorphic dispatch is preserved — these
        # are the subclass's bound methods)
        self._array_program = array.program
        self._array_read = array.read
        self._array_erase = array.erase
        # BaseFtl.lookup is a pure delegation to mapping.lookup and no
        # FTL overrides it; bind the mapping method directly
        self._ftl_lookup = ftl.mapping.lookup
        #: ftl.next_op bound once (the ftl reference never changes and
        #: next_op is never monkey-patched)
        self._ftl_next_op = ftl.next_op
        self._read_queues: List[Deque[Tuple[int, Request]]] = \
            [deque() for _ in range(chips)]
        #: total entries across all read queues (keeps host_idle O(1))
        self._queued_reads = 0
        self._admissions: Deque[Request] = deque()
        #: optional observer called as ``hook(request, now)`` on every
        #: host-request completion (write-buffer admission for writes,
        #: last page read for reads), before the request's own
        #: ``on_complete``.  The QoS front-end (:mod:`repro.qos`) uses
        #: it for per-tenant SLO accounting and to re-arm arbitration
        #: when backpressure clears; None (the default) is free.
        self.completion_hook: Optional[Callable[[Request, float], None]] = \
            None
        self._pumping = False
        #: completion-event insertion, bound once (see Simulator._push)
        self._sim_push = sim._push
        #: op currently executing per chip (power-loss tooling inspects it)
        self.in_flight: Dict[int, FlashOp] = {}
        #: fault injector consulted after every completed flash op, or
        #: None (the default: fault-free runs pay one None check per op)
        self._injector = None
        #: physics-grounded error engine (repro.reliability.physics) or
        #: None (the default: physics-free runs pay one None check per op)
        self._physics = None
        self._physics_hist = None
        #: True once the spare-block reserve is exhausted: writes are
        #: rejected with ReadOnlyDeviceError, reads keep being served
        self.read_only = False

    # ------------------------------------------------------------------
    # host interface

    def submit(self, request: Request) -> None:
        """Accept one host request at the current simulation time."""
        # stats.note_arrival, inlined (once per host request)
        stats = self.stats
        first = stats.first_arrival
        if first is None or request.time < first:
            stats.first_arrival = request.time
        request.submitted_at = self.sim.now
        if request.kind is RequestKind.READ:
            self._submit_read(request)
        elif self.read_only:
            self._reject_write(request)
            return
        else:
            self._admissions.append(request)
        self._pump()

    @property
    def pending_admissions(self) -> int:
        """Write requests waiting for buffer space."""
        return len(self._admissions)

    def host_idle(self) -> bool:
        """No outstanding host I/O anywhere in the device."""
        return not (self._admissions or self._queued_reads
                    or len(self.write_buffer))

    # ------------------------------------------------------------------
    # internals

    def _submit_read(self, request: Request) -> None:
        touched: List[int] = []
        for offset in range(request.npages):
            lpn = request.lpn + offset
            if self.write_buffer.contains(lpn):
                self.stats.buffer_read_hits += 1
                request.pages_remaining -= 1
                continue
            ppn = self._ftl_lookup(lpn)
            if ppn is None:
                # Never-written page: served as zeroes, no NAND access.
                request.pages_remaining -= 1
                continue
            chip_id = ppn // self._pages_per_chip
            self._read_queues[chip_id].append((lpn, request))
            self._queued_reads += 1
            touched.append(chip_id)
        if request.pages_remaining == 0:
            self._complete_request(request)

    def _complete_request(self, request: Request) -> None:
        self.stats.note_request_complete(request, self.sim.now)
        if self.completion_hook is not None:
            self.completion_hook(request, self.sim.now)
        if request.on_complete is not None:
            request.on_complete(request, self.sim.now)

    def _pump(self) -> None:
        """Drive admissions and chip dispatch to a fixed point.

        For each idle chip the priority order is: a queued host read,
        then FTL work, then — only while no host I/O is outstanding —
        background garbage collection.

        Runs in the compiled op cycle (:mod:`repro.sim._native`) when it
        loaded, together with :meth:`_execute` and, for completions the
        compiled event loop pops, :meth:`_on_op_done`; the Python
        methods are its reference and fallback.
        """
        core = _native.opcycle
        if core is not None:
            core.pump(self)
            return
        if self._pumping:
            return
        self._pumping = True
        try:
            # The prologue is deliberately tiny: a typical pump visits
            # one or two idle chips, so per-pump setup dominates; the
            # rarely-used bindings are reached through self instead.
            idle = self._idle
            read_queues = self._read_queues
            ftl_next_op = self._ftl_next_op
            admissions = self._admissions
            buffer = self.write_buffer
            capacity = buffer.capacity
            # the clock cannot advance mid-pump: hoist it
            now = self.sim.now
            progress = True
            while progress:
                progress = bool(admissions) \
                    and buffer._live < capacity \
                    and self._drain_admissions()
                # snapshot: _execute prunes self._idle while we iterate
                for chip_id in tuple(idle):
                    read_request: Optional[Request] = None
                    if read_queues[chip_id]:
                        op, read_request = self._next_read_op(chip_id)
                    else:
                        op = None
                    if op is None:
                        op = ftl_next_op(chip_id, now)
                    # host_idle(), inlined
                    if op is None \
                            and not (admissions or self._queued_reads
                                     or buffer._live) \
                            and self.ftl.wants_background_gc(chip_id):
                        op = self.ftl.background_op(chip_id, now)
                    if op is None:
                        continue
                    self._execute(chip_id, op, read_request)
                    progress = True
        finally:
            self._pumping = False

    def _drain_admissions(self) -> bool:
        """Admit queued write pages into the buffer while it has room.

        Completes each request whose last page got in; returns whether
        any page was admitted.  The compiled op cycle folds the push
        and the per-page stats into one pass when the buffer does not
        coalesce.
        """
        progress = False
        buffer = self.write_buffer
        capacity = buffer.capacity
        push = buffer.push
        admissions = self._admissions
        now = self.sim.now
        note_page = self.stats.note_host_page_write
        while admissions and buffer._live < capacity:
            request = admissions[0]
            remaining = request.pages_remaining
            lpn = request.lpn
            npages = request.npages
            while remaining > 0 and buffer._live < capacity:
                push(lpn + npages - remaining, now, request)
                remaining -= 1
                note_page(now)
                progress = True
            request.pages_remaining = remaining
            if remaining > 0:
                break
            admissions.popleft()
            self._complete_request(request)
        return progress

    def _next_read_op(self, chip_id: int
                      ) -> Tuple[Optional[FlashOp], Optional[Request]]:
        queue = self._read_queues[chip_id]
        while queue:
            lpn, request = queue.popleft()
            self._queued_reads -= 1
            ppn = self._ftl_lookup(lpn)
            if ppn is None or self.write_buffer.contains(lpn) \
                    or ppn // self._pages_per_chip != chip_id:
                # Superseded or relocated since queueing: data is
                # available elsewhere without touching this chip.
                self._complete_read_page(request)
                continue
            addr = self.geometry.address_of(ppn)
            if not self.array.is_programmed(addr):
                # The mapping already points at a relocation target
                # whose program is still in flight; the data sits in
                # controller RAM, so the read is served from there.
                self._complete_read_page(request)
                continue
            return FlashOp(_READ, addr, "host", lpn), request
        return None, None

    def _execute(self, chip_id: int, op: FlashOp,
                 read_request: Optional[Request]) -> None:
        sim = self.sim
        now = sim.now
        kind = op.kind
        if kind is _PROGRAM:
            channel = chip_id // self._chips_per_channel
            channel_free = self._channel_free
            start = channel_free[channel]
            if start < now:
                start = now
            t_transfer = self._t_transfer
            channel_free[channel] = start + t_transfer
            latency = self._array_program(op.addr, op.data)
            total = (start - now) + t_transfer + latency
        elif kind is _READ:
            channel = chip_id // self._chips_per_channel
            channel_free = self._channel_free
            start = channel_free[channel]
            if start < now:
                start = now
            t_transfer = self._t_transfer
            channel_free[channel] = start + t_transfer
            _, latency = self._array_read(op.addr)
            total = (start - now) + t_transfer + latency
        else:
            total = self._array_erase(op.addr.channel, op.addr.chip,
                                      op.addr.block)
        done = now + total
        trace = self._trace
        if trace is not None:
            # One flat record of eight scalars on the tracer's op ring
            # (see repro.observability.tracer for the layout and why it
            # holds no objects); past the ring limit, the amortised trim.
            addr = op.addr
            lpn = op.lpn
            raw = trace._op_raw
            raw.extend((now, done, chip_id,
                        0 if kind is _PROGRAM else 1 if kind is _READ
                        else 2,
                        op.tag, addr[2], addr[3],
                        -1 if lpn is None else lpn))
            if len(raw) >= trace._op_limit:
                trace._trim()
        self._busy[chip_id] = True
        idle = self._idle
        del idle[bisect_left(idle, chip_id)]
        self.in_flight[chip_id] = op
        # Simulator.schedule, minus the handle and the delay check
        # (``total`` is always non-negative): a plain list is pushed
        # instead of an Event — nothing ever holds a handle to a
        # completion event, the kernel treats entries as flat lists,
        # and they compare identically.  ``_sim_push`` is the kernel's
        # queue insertion, bound once at construction.
        self._sim_push(
            [done, 0, next(sim._seq), self._on_op_done,
             (chip_id, op, read_request), False, sim._cancelled])

    def _on_op_done(self, chip_id: int, op: FlashOp,
                    read_request: Optional[Request]) -> None:
        if self._injector is not None:
            fault = self._injector.on_op_complete(chip_id, op)
            if fault is not None and self._handle_fault(
                    chip_id, op, read_request, fault):
                # Read recovery defers this op's completion; the chip
                # stays busy until the retry ladder finishes.
                return
        if self._physics is not None:
            kind = op.kind
            addr = op.addr
            if kind is OpKind.READ:
                outcome = self._physics.on_read(
                    chip_id, addr.block, addr.page, self.sim.now,
                    sample=op.tag == "host")
                if outcome is not None and self._note_physics_read(
                        chip_id, op, read_request, outcome):
                    # Voltage-shift ladder in progress: the chip stays
                    # busy until _finish_read_recovery.
                    return
            elif kind is OpKind.PROGRAM:
                self._physics.note_program(chip_id, addr.block, addr.page,
                                           self.sim.now)
            else:
                self._physics.note_erase(chip_id, addr.block)
        self._busy[chip_id] = False
        insort(self._idle, chip_id)
        self.in_flight.pop(chip_id, None)
        if op.on_complete is not None:
            op.on_complete(self.sim.now)
        if read_request is not None:
            self._complete_read_page(read_request)
        self._pump()

    def _complete_read_page(self, request: Request) -> None:
        request.pages_remaining -= 1
        if request.pages_remaining == 0:
            self._complete_request(request)

    # ------------------------------------------------------------------
    # fault injection and recovery (see repro.faults)

    def ensure_fault_stats(self) -> FaultStats:
        """Attach (or return) the run's fault counters."""
        if self.stats.faults is None:
            self.stats.faults = FaultStats()
        return self.stats.faults

    def attach_fault_injector(self, injector) -> None:
        """Arm runtime fault injection for the rest of the run.

        ``injector`` is consulted after every completed flash op (see
        :class:`repro.faults.injector.FaultInjector`); the FTL shares
        the controller's fault counters from here on.
        """
        self._injector = injector
        self.ftl.fault_stats = self.ensure_fault_stats()

    def attach_physics(self, engine) -> None:
        """Arm the physics-grounded error engine for the rest of the run.

        ``engine`` (:class:`repro.reliability.physics.PhysicsEngine`)
        is consulted after every completed flash op: programs and
        erases update its history bookkeeping, host reads sample a
        bit-error outcome against the page's actual aggressor count,
        P/E wear, retention age and read-disturb exposure.  Attaching
        binds the engine to the array and replays each block's recorded
        program history (requires ``track_history=True`` blocks), so
        attach after warmup to measure at a warmed state.

        When a fault injector is also armed it takes precedence: a read
        the injector defers into its own ladder is not double-sampled.
        """
        engine.bind(self.array, self.sim.now)
        self._physics = engine
        self.ftl.fault_stats = self.ensure_fault_stats()

    def _note_physics_read(self, chip_id: int, op: FlashOp,
                           read_request: Optional[Request],
                           outcome) -> bool:
        """Record a sampled read; walk the shift ladder on error.

        Returns True when the op's completion is deferred (the ladder's
        extra latency is being charged)."""
        metrics = self._metrics
        if metrics is not None:
            hist = self._physics_hist
            if hist is None:
                hist = self._physics_hist = metrics.histogram(
                    "reliability.read_ber",
                    bounds=(1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
                            1e-4, 1e-3, 1e-2, 1e-1))
            hist.observe(outcome.ber)
        if not outcome.error:
            return False
        return self._begin_physics_recovery(chip_id, op, read_request,
                                            outcome)

    def _begin_physics_recovery(self, chip_id: int, op: FlashOp,
                                read_request: Optional[Request],
                                outcome) -> bool:
        """Charge the voltage-shift retry ladder for a physics error.

        Mirrors :meth:`_begin_read_recovery` but the rung count comes
        from the sampled :class:`ReadOutcome` — each rung is one
        re-read at a shifted reference voltage, then the escalated
        soft-decision ECC mode, then parity reconstruction.  Latency is
        charged per rung actually attempted."""
        faults = self.stats.faults
        t_read = self.timing.t_read
        config = self._physics.config
        addr = op.addr
        if faults is not None:
            faults.read_faults += 1
            faults.physics_read_errors += 1
            faults.voltage_shift_retries += outcome.shifts_tried
            faults.ladder_reads += outcome.shifts_tried
        if self._trace is not None:
            self._trace.event("reliability.read_error", chip=chip_id,
                              block=addr.block, page=addr.page,
                              ber=outcome.ber, prob=outcome.probability)
            for rung in range(outcome.shifts_tried):
                shift = config.retry_shifts[rung]
                self._trace.event(
                    "reliability.retry_shift", chip=chip_id,
                    block=addr.block, page=addr.page, shift=shift,
                    recovered=int(outcome.recovered_shift is not None
                                  and rung == outcome.shifts_tried - 1))
        if self._metrics is not None:
            self._metrics.counter("reliability.read_errors",
                                  chip=chip_id).inc()
        extra = outcome.shifts_tried * t_read
        resolved = "retried"
        if outcome.recovered_shift is None:
            # Ladder exhausted: escalated (soft-decision) ECC mode.
            if faults is not None:
                faults.ecc_escalations += 1
                faults.ladder_reads += config.ecc_escalation_reads
            extra += config.ecc_escalation_reads * t_read
            if outcome.uncorrectable:
                if self.ftl.parity_covers(chip_id, addr):
                    if faults is not None:
                        faults.parity_reconstructions += 1
                        faults.ladder_reads += self.ftl.wordlines
                    extra += self.ftl.wordlines * t_read
                    resolved = "reconstructed"
                else:
                    resolved = "lost"
        if faults is not None:
            faults.read_retries += 1
        sim = self.sim
        self._sim_push(
            [sim.now + extra, 0, next(sim._seq),
             self._finish_read_recovery,
             (chip_id, op, read_request, resolved),
             False, sim._cancelled])
        return True

    def _handle_fault(self, chip_id: int, op: FlashOp,
                      read_request: Optional[Request], fault) -> bool:
        """Dispatch one injected fault.  Returns True when the op's
        completion is deferred (read retry ladder in progress)."""
        kind = fault.kind
        if self._trace is not None:
            addr = op.addr
            self._trace.event("fault.inject", chip=chip_id, fault=kind,
                              tag=op.tag, block=addr.block,
                              page=addr.page)
        if self._metrics is not None:
            self._metrics.counter("faults.injected", kind=kind,
                                  chip=chip_id).inc()
        if kind == "read_fault":
            return self._begin_read_recovery(chip_id, op, read_request,
                                             fault)
        ftl = self.ftl
        if kind == "program_fail":
            ftl.handle_program_failure(chip_id, op)
        elif kind == "erase_fail":
            ftl.handle_erase_failure(chip_id, op)
        else:  # grown_bad
            ftl.handle_grown_bad(chip_id, op)
        if ftl.degraded and not self.read_only:
            self._enter_read_only()
        return False

    def _begin_read_recovery(self, chip_id: int, op: FlashOp,
                             read_request: Optional[Request],
                             fault) -> bool:
        """Walk the read-retry ladder for a raw-BER excursion.

        Re-read first; if the baseline ECC still fails, escalate to the
        slow decode mode; if even that fails, reconstruct from parity
        when a live parity page covers the block — otherwise the page's
        data is lost.  The chip stays busy for the ladder's extra
        latency; completion resumes in :meth:`_finish_read_recovery`.

        Relocation reads (GC/salvage) only ever see the transient rung
        here: their source blocks are cold and the interesting
        data-loss semantics belong to host reads.
        """
        faults = self.stats.faults
        t_read = self.timing.t_read
        severity = fault.severity
        if op.tag != "host":
            severity = "transient"
        if faults is not None:
            faults.read_faults += 1
            faults.read_retries += 1
            faults.ladder_reads += 1
        # Per-rung itemised latency: a transient excursion costs exactly
        # the one re-read; deeper rungs add only their own reads.
        extra = t_read  # the re-read
        resolved = "retried"
        if severity != "transient":
            plan = self._injector.plan
            if faults is not None:
                faults.ecc_escalations += 1
                faults.ladder_reads += plan.ecc_escalation_reads
            extra += plan.ecc_escalation_reads * t_read
            if severity == "uncorrectable":
                if self.ftl.parity_covers(chip_id, op.addr):
                    if faults is not None:
                        faults.parity_reconstructions += 1
                        faults.ladder_reads += self.ftl.wordlines
                    # XOR across the block's other LSB pages
                    extra += self.ftl.wordlines * t_read
                    resolved = "reconstructed"
                else:
                    resolved = "lost"
        sim = self.sim
        self._sim_push(
            [sim.now + extra, 0, next(sim._seq),
             self._finish_read_recovery,
             (chip_id, op, read_request, resolved),
             False, sim._cancelled])
        return True

    def _finish_read_recovery(self, chip_id: int, op: FlashOp,
                              read_request: Optional[Request],
                              resolved: str) -> None:
        faults = self.stats.faults
        if resolved == "lost" and op.lpn is not None \
                and self.write_buffer.contains(op.lpn):
            # A newer copy of the page arrived in the buffer while the
            # ladder ran: nothing is actually lost.
            resolved = "retried"
        if resolved == "lost":
            if faults is not None:
                faults.lost_pages += 1
            self.ftl.note_read_loss(op)
            if read_request is not None:
                read_request.status = REQUEST_FAILED
        elif resolved == "reconstructed":
            if faults is not None:
                faults.reconstructed_pages += 1
            self.ftl.note_read_reconstructed(chip_id, op)
            if read_request is not None \
                    and read_request.status == REQUEST_OK:
                read_request.status = REQUEST_RECOVERED
        elif read_request is not None \
                and read_request.status == REQUEST_OK:
            read_request.status = REQUEST_RECOVERED
        if self._trace is not None:
            self._trace.event("fault.recover", chip=chip_id,
                              fault="read_fault", outcome=resolved,
                              pages=1)
        if self._metrics is not None:
            self._metrics.counter("faults.read_resolved",
                                  outcome=resolved, chip=chip_id).inc()
        self._busy[chip_id] = False
        insort(self._idle, chip_id)
        self.in_flight.pop(chip_id, None)
        if op.on_complete is not None:
            op.on_complete(self.sim.now)
        if read_request is not None:
            self._complete_read_page(read_request)
        self._pump()

    def _enter_read_only(self) -> None:
        """Degrade to read-only mode: the spare reserve is exhausted."""
        self.read_only = True
        faults = self.stats.faults
        if faults is not None:
            faults.degraded_mode = True
        if self._metrics is not None:
            self._metrics.gauge("device.read_only").set(1.0)
        while self._admissions:
            self._reject_write(self._admissions.popleft())

    def _reject_write(self, request: Request) -> None:
        """Fail a write with a typed error (read-only degraded mode)."""
        now = self.sim.now
        request.status = REQUEST_FAILED
        request.error = ReadOnlyDeviceError(
            "device is read-only: spare-block reserve exhausted")
        request.pages_remaining = 0
        request.completed_at = now
        faults = self.stats.faults
        if faults is not None:
            faults.writes_rejected += 1
        if self._metrics is not None:
            self._metrics.counter(
                "faults.writes_rejected",
                tenant=request.tenant or "-").inc()
        if self.completion_hook is not None:
            self.completion_hook(request, now)
        if request.on_complete is not None:
            request.on_complete(request, now)

    def reset_after_power_loss(self) -> int:
        """Clear volatile controller state after a power cut.

        Returns the number of buffered host pages whose RAM copy died
        with the power (they had already been acknowledged to the host
        under buffered-write semantics).
        """
        buffer = self.write_buffer
        dropped = buffer._live
        buffer._fifo.clear()
        buffer._resident.clear()
        buffer._stale.clear()
        buffer._live = 0
        self._admissions.clear()
        for queue in self._read_queues:
            queue.clear()
        self._queued_reads = 0
        self.in_flight.clear()
        chips = self._total_chips
        self._busy = [False] * chips
        self._idle = list(range(chips))
        self._channel_free = [0.0] * self.geometry.channels
        return dropped


if _native.opcycle is not None:
    _native.opcycle.setup(StorageController._on_op_done, Simulator._push,
                          _PROGRAM, _READ, BufferedWrite)
