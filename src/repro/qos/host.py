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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.qos.arbiter import Arbiter, make_arbiter
from repro.qos.queues import SubmissionQueue
from repro.qos.slo import SloAccountant, SloTarget
from repro.qos.throttle import AdmissionGate, TokenBucket
from repro.sim.controller import StorageController
from repro.sim.host import StreamOp
from repro.sim.kernel import Simulator
from repro.sim.queues import Request


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload and service contract.

    Attributes:
        name: tenant id (stamped on every request it issues).
        streams: closed-loop worker streams, same shape the
            single-tenant :class:`~repro.sim.host.ClosedLoopHost`
            takes — any existing synthetic/zipf/benchmark generator
            output plugs in directly.
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
    streams: Tuple[Tuple[StreamOp, ...], ...]
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
        """Operations across all of this tenant's streams."""
        return sum(len(stream) for stream in self.streams)

    def slo_target(self) -> SloTarget:
        """The accountant's target record for this tenant."""
        return SloTarget(read_latency=self.read_slo,
                         write_latency=self.write_slo)


def tenant_specs_from_scenario(scenario) -> List[TenantSpec]:
    """Materialize a tenant-tagged scenario into tenant specs.

    Every op must carry a tenant tag (e.g. a
    :class:`~repro.scenarios.generator.WorkloadScenario` with tenant
    bindings); binding contracts — weight, rate, SLOs — carry over.
    A :class:`TenantSpec` holds streams as tuples, so this view
    necessarily materializes the scenario.
    """
    grouped = scenario.tenant_streams()
    bindings = {binding.name: binding
                for binding in scenario.tenant_bindings()}
    if not grouped:
        raise ValueError(
            f"scenario {scenario.name!r} declares no tenants; a "
            f"multi-tenant run needs tenant bindings or tagged ops")
    specs: List[TenantSpec] = []
    for name, streams in grouped.items():
        binding = bindings.get(name)
        if binding is None:
            specs.append(TenantSpec.make(name, streams))
        else:
            specs.append(TenantSpec.make(
                name, streams, weight=binding.weight,
                rate_pages_per_sec=binding.rate_pages_per_sec,
                read_slo=binding.read_slo,
                write_slo=binding.write_slo))
    return specs


class TenantCompletion:
    """Completion callback advancing one tenant stream.

    A plain class (not a lambda) so a host mid-run — callbacks on
    in-flight requests included — pickles into a fleet snapshot.
    """

    __slots__ = ("host", "tenant", "stream", "think")

    def __init__(self, host: "MultiTenantHost", tenant: int,
                 stream: int, think: float) -> None:
        self.host = host
        self.tenant = tenant
        self.stream = stream
        self.think = think

    def __call__(self, _req, _now) -> None:
        self.host._on_done(self.tenant, self.stream, self.think)

    def __getstate__(self):
        return (self.host, self.tenant, self.stream, self.think)

    def __setstate__(self, state) -> None:
        self.host, self.tenant, self.stream, self.think = state


class MultiTenantHost:
    """Multiplexes per-tenant closed-loop workloads through QoS queues.

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
    ) -> None:
        if not tenants:
            raise ValueError("MultiTenantHost needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names!r}")
        self.sim = sim
        self.controller = controller
        self.tenants = list(tenants)
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
        #: per-tenant per-stream cursors into the stream op lists.
        self._cursor: List[List[int]] = [
            [0] * len(spec.streams) for spec in tenants]
        #: whether each submission queue holds a command, kept current
        #: by every push and pop; without rate contracts this is the
        #: arbiter's eligibility list itself
        self._ready: List[bool] = [False] * len(self.queues)
        self._metered = any(bucket is not None for bucket in self.buckets)
        self._issued = 0
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
        for t_index, spec in enumerate(self.tenants):
            for s_index, stream in enumerate(spec.streams):
                if stream:
                    self.sim.schedule(0.0, self._enqueue, t_index,
                                      s_index)

    @property
    def remaining(self) -> int:
        """Operations not yet enqueued across all tenants."""
        return sum(
            len(stream) - self._cursor[t_index][s_index]
            for t_index, spec in enumerate(self.tenants)
            for s_index, stream in enumerate(spec.streams)
        )

    @property
    def queued(self) -> int:
        """Commands sitting in submission queues right now."""
        return sum(len(queue) for queue in self.queues)

    @property
    def issued(self) -> int:
        """Commands dispatched to the controller so far."""
        return self._issued

    # ------------------------------------------------------------------
    # enqueue side (per-stream closed loops)

    def _enqueue(self, t_index: int, s_index: int) -> None:
        spec = self.tenants[t_index]
        op = spec.streams[s_index][self._cursor[t_index][s_index]]
        now = self.sim.now
        request = Request(now, op.kind, op.lpn, op.npages,
                          tenant=spec.name)
        request.on_complete = TenantCompletion(self, t_index, s_index,
                                               op.think_after)
        queue = self.queues[t_index]
        queue.push(request, self._seq, now)
        self._seq += 1
        self._ready[t_index] = True
        trace = self._trace
        if trace is not None:
            trace.qos_admit(t_index, now, spec.name, op.kind.value,
                            op.lpn, op.npages, len(queue))
        self._pump()

    def _on_done(self, t_index: int, s_index: int,
                 think: float) -> None:
        self.gate.note_complete()
        cursor = self._cursor[t_index]
        cursor[s_index] += 1
        if cursor[s_index] < len(self.tenants[t_index].streams[s_index]):
            self.sim.schedule(think, self._enqueue, t_index, s_index)
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
                                        len(queue), self._issued)
                command = queue.pop(now)
                if queue.is_empty:
                    ready[index] = False
                    self.arbiter.note_empty(index)
                bucket = self.buckets[index]
                if bucket is not None:
                    bucket.consume(command.request.npages, now)
                gate.note_dispatch()
                self._issued += 1
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
