"""The multi-tenant QoS front-end host.

:class:`MultiTenantHost` is the piece that turns N independent
workloads into *contending* traffic: each tenant runs its own
closed-loop worker streams, but instead of submitting straight to the
controller, every ready request is enqueued into the tenant's
submission queue (:mod:`repro.qos.queues`).  A dispatch loop then
moves commands from queues to the device under three constraints:

1. the :class:`~repro.qos.throttle.AdmissionGate` bounds in-flight
   commands (backpressure: backlog waits *in the queues*, not in the
   controller FIFO);
2. per-tenant :class:`~repro.qos.throttle.TokenBucket` contracts make
   over-rate tenants ineligible until they refill;
3. the :class:`~repro.qos.arbiter.Arbiter` picks which eligible
   tenant's head command is issued next.

Completion events re-arm the loop; a tenant throttled on tokens gets a
timer wake-up at its refill time.  Everything is deterministic: no
randomness, ties broken by tenant registration order.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.qos.arbiter import Arbiter, make_arbiter
from repro.qos.queues import SubmissionQueue
from repro.qos.slo import SloAccountant, SloTarget
from repro.qos.throttle import AdmissionGate, TokenBucket
from repro.sim.controller import StorageController
from repro.sim.host import ClosedLoopHost, StreamCompletion, StreamOp
from repro.sim.kernel import Simulator
from repro.sim.queues import Request

if TYPE_CHECKING:
    from repro.scenarios.base import Scenario


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload and service contract.

    Attributes:
        name: tenant id (stamped on every request it issues).
        streams: closed-loop worker streams, same shape the
            single-tenant :class:`~repro.sim.host.ClosedLoopHost`
            takes: op tuples (see :meth:`make`) or lazy iterators
            (see :func:`tenant_specs_from_scenario`).
        weight: arbitration weight (used by ``wrr``/``drr``).
        rate_pages_per_sec: optional token-bucket rate contract.
        burst_pages: token-bucket capacity; defaults to one second's
            worth of tokens when only the rate is given.
        read_slo: optional per-request read-latency target (seconds)
            for violation counting.
        write_slo: optional per-request write-latency target.
        max_queue_depth: optional submission-queue depth bound.
    """

    name: str
    streams: Tuple[Iterable[StreamOp], ...]
    weight: float = 1.0
    rate_pages_per_sec: Optional[float] = None
    burst_pages: Optional[float] = None
    read_slo: Optional[float] = None
    write_slo: Optional[float] = None
    max_queue_depth: Optional[int] = None

    @classmethod
    def make(cls, name: str, streams: Sequence[Sequence[StreamOp]],
             **kwargs: object) -> "TenantSpec":
        """Build a spec, normalising streams to hashable tuples."""
        return cls(name=name,
                   streams=tuple(tuple(s) for s in streams),
                   **kwargs)  # type: ignore[arg-type]

    @property
    def total_ops(self) -> int:
        """Operations across all of this tenant's (op-tuple) streams."""
        return sum(len(stream) for stream in self.streams)

    def slo_target(self) -> SloTarget:
        """The accountant's target record for this tenant."""
        return SloTarget(read_latency=self.read_slo,
                         write_latency=self.write_slo)


def tenant_specs_from_scenario(scenario) -> List[TenantSpec]:
    """Tenant specs over a scenario's lazy closed-loop streams.

    Each :class:`~repro.scenarios.base.TenantBinding` takes the next
    ``binding.streams`` iterators of :meth:`op_streams`, in binding
    order, and carries its contract (weight, rate, SLOs) across.
    Nothing is materialized: the specs hold live iterators.  Raises
    ``ValueError`` when the scenario declares no bindings or the
    bindings do not cover its streams exactly.
    """
    bindings = scenario.tenant_bindings()
    if not bindings:
        raise ValueError(
            f"scenario {scenario.name!r} declares no tenants; a "
            f"multi-tenant run needs tenant bindings")
    streams = scenario.op_streams()
    declared = sum(binding.streams for binding in bindings)
    if declared != len(streams):
        raise ValueError(
            f"scenario {scenario.name!r}: tenant bindings declare "
            f"{declared} streams, scenario has {len(streams)}")
    specs: List[TenantSpec] = []
    first = 0
    for binding in bindings:
        specs.append(TenantSpec(
            name=binding.name,
            streams=tuple(streams[first:first + binding.streams]),
            weight=binding.weight,
            rate_pages_per_sec=binding.rate_pages_per_sec,
            read_slo=binding.read_slo,
            write_slo=binding.write_slo))
        first += binding.streams
    return specs


class MultiTenantHost(ClosedLoopHost):
    """Multiplexes per-tenant closed-loop workloads through QoS queues.

    The tenants' streams run on :class:`~repro.sim.host.ClosedLoopHost`'s
    loop, concatenated in tenant order; only issue (into the tenant's
    submission queue instead of the controller) and completion (which
    also frees a gate slot and re-arms dispatch) differ.  ``issued``
    counts commands dispatched to the controller.

    A :class:`~repro.observability.tracer.Tracer` attached via
    ``attach_qos`` plants ``_trace`` (class default ``None``) to record
    admissions and arbitration decisions (and count them per tenant).

    Args:
        sim: simulation kernel.
        controller: device front door.
        tenants: one :class:`TenantSpec` per tenant; names must be
            unique.
        arbiter: an :class:`~repro.qos.arbiter.Arbiter` instance or a
            registry name (``fifo``/``rr``/``wrr``/``drr``).  Named
            arbiters receive the tenants' weights automatically.
        max_outstanding: admission-gate bound on in-flight commands
            (see :class:`~repro.qos.throttle.AdmissionGate`).
        max_pending_admissions: optional extra bound on the
            controller's write-admission backlog.
        accountant: SLO accountant to record into; one is created
            (with the specs' targets) when omitted.
        scenario: the scenario the tenants' streams came from (see
            :func:`tenant_specs_from_scenario`); makes the host
            snapshot-capable exactly as for ``ClosedLoopHost``.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: StorageController,
        tenants: Sequence[TenantSpec],
        arbiter: "Arbiter | str" = "fifo",
        max_outstanding: Optional[int] = 8,
        max_pending_admissions: Optional[int] = None,
        accountant: Optional[SloAccountant] = None,
        scenario: Optional["Scenario"] = None,
    ) -> None:
        if not tenants:
            raise ValueError("MultiTenantHost needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names!r}")
        super().__init__(
            sim, controller,
            [stream for spec in tenants for stream in spec.streams],
            scenario=scenario)
        #: tenant index of each stream
        self._tenant_of: List[int] = [
            t_index for t_index, spec in enumerate(tenants)
            for _ in spec.streams]
        #: the contracts; the streams live in the inherited loop
        self.tenants = [dataclasses.replace(spec, streams=())
                        for spec in tenants]
        if isinstance(arbiter, str):
            arbiter = make_arbiter(
                arbiter, names, [spec.weight for spec in tenants])
        self.arbiter = arbiter
        self.gate = AdmissionGate(
            controller, max_outstanding=max_outstanding,
            max_pending_admissions=max_pending_admissions)
        self.accountant = accountant or SloAccountant(
            {spec.name: spec.slo_target() for spec in tenants})
        self.queues: List[SubmissionQueue] = [
            SubmissionQueue(spec.name, max_depth=spec.max_queue_depth)
            for spec in tenants
        ]
        self.buckets: List[Optional[TokenBucket]] = []
        for spec in tenants:
            if spec.rate_pages_per_sec is None:
                self.buckets.append(None)
            else:
                burst = spec.burst_pages
                if burst is None:
                    burst = spec.rate_pages_per_sec
                self.buckets.append(
                    TokenBucket(spec.rate_pages_per_sec, burst))
        #: whether each submission queue holds a command, kept current
        #: by every push and pop; without rate contracts this is the
        #: arbiter's eligibility list itself
        self._ready: List[bool] = [False] * len(self.queues)
        self._metered = any(bucket is not None for bucket in self.buckets)
        self._seq = 0
        self._pumping = False
        #: firing time of the earliest scheduled throttle wake-up, or
        #: None; keeps token waits from piling up duplicate events.
        self._wake_at: Optional[float] = None
        self._started = False

    #: observability hook, planted by ``Tracer.attach_qos``
    _trace = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Attach accounting and kick off every non-empty stream."""
        if self._started:
            raise RuntimeError("MultiTenantHost.start called twice")
        self._started = True
        self.accountant.attach(self.controller)
        super().start()

    def resume(self) -> int:
        """Refused: a power cut would strand commands in the queues
        and the gate's in-flight count, which a stream re-issue does
        not repair."""
        raise RuntimeError(
            "MultiTenantHost cannot resume after a power cut")

    @property
    def queued(self) -> int:
        """Commands sitting in submission queues right now."""
        return sum(len(queue) for queue in self.queues)

    # ------------------------------------------------------------------
    # enqueue side (the inherited per-stream closed loops)

    def _issue(self, index: int) -> None:
        op = self._current[index]
        assert op is not None
        t_index = self._tenant_of[index]
        queue = self.queues[t_index]
        now = self.sim.now
        request = Request(now, op.kind, op.lpn, op.npages,
                          tenant=queue.tenant)
        request.on_complete = StreamCompletion(self, index,
                                               op.think_after)
        queue.push(request, self._seq, now)
        self._seq += 1
        self._ready[t_index] = True
        trace = self._trace
        if trace is not None:
            trace.qos_admit(t_index, now, queue.tenant, op.kind.value,
                            op.lpn, op.npages, len(queue))
        self._pump()

    def _advance(self, index: int, think: float) -> None:
        self.gate.note_complete()
        super()._advance(index, think)
        self._pump()

    # ------------------------------------------------------------------
    # dispatch side (gate -> throttle -> arbiter -> controller)

    def _pump(self) -> None:
        """Issue commands until the gate closes or nothing is eligible.

        Re-entrancy guard: ``controller.submit`` can complete a write
        synchronously (buffer admission), whose ``on_complete`` calls
        back into ``_pump``.
        """
        gate = self.gate
        if self._pumping or not gate.can_admit():
            return
        self._pumping = True
        try:
            queues = self.queues
            ready = self._ready
            select = self.arbiter.select
            trace = self._trace
            while True:
                now = self.sim.now
                if self._metered:
                    eligible = self._eligible(now)
                    if eligible is None:
                        return
                elif True in ready:
                    eligible = ready
                else:
                    return
                index = select(queues, eligible)
                queue = queues[index]
                if trace is not None:
                    trace.qos_arbitrate(index, now, queue.tenant,
                                        len(queue), self.issued)
                command = queue.pop(now)
                if queue.is_empty:
                    ready[index] = False
                    self.arbiter.note_empty(index)
                bucket = self.buckets[index]
                if bucket is not None:
                    bucket.consume(command.request.npages, now)
                gate.note_dispatch()
                self.issued += 1
                self.controller.submit(command.request)
                if not gate.can_admit():
                    return
        finally:
            self._pumping = False

    def _eligible(self, now: float) -> Optional[List[bool]]:
        """Eligibility under rate contracts: non-empty and holding the
        head command's tokens.  None when no queue is eligible, after
        scheduling a wake-up at the earliest refill."""
        eligible: List[bool] = []
        min_wait: Optional[float] = None
        for index, queue in enumerate(self.queues):
            if not self._ready[index]:
                eligible.append(False)
                continue
            bucket = self.buckets[index]
            if bucket is not None:
                wait = bucket.wait_time(queue.head.request.npages, now)
                if wait > 0.0:
                    eligible.append(False)
                    if min_wait is None or wait < min_wait:
                        min_wait = wait
                    continue
            eligible.append(True)
        if True in eligible:
            return eligible
        if min_wait is not None:
            self._schedule_wake(now + min_wait)
        return None

    def _schedule_wake(self, at: float) -> None:
        now = self.sim.now
        if at <= now:
            # A wait too small to advance the clock would wake at the
            # same instant forever; force strictly-later progress.
            at = math.nextafter(now, math.inf)
        if self._wake_at is not None and self._wake_at <= at \
                and self._wake_at > now:
            return  # an earlier (still pending) wake-up covers this
        self._wake_at = at
        self.sim.schedule_at(at, self._wake)

    def _wake(self) -> None:
        self._wake_at = None
        self._pump()
