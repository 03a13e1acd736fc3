"""Hosts: feed workloads into the controller.

One host per delivery mode:

* :class:`TraceReplayHost` — open-loop: requests arrive at fixed trace
  timestamps (block-trace replay).
* :class:`ClosedLoopHost` — closed-loop: a set of worker streams each
  issues its next request only after the previous one completes, plus
  a per-op think time.  This is how the paper's Sysbench/Filebench
  workloads behave, and it is what lets IOPS reflect device latency:
  an intensive workload (think ~ 0) saturates the device, a moderate
  one leaves the idle gaps background GC needs.

Both hosts pull their input one op at a time: they call ``iter()`` on
what they are given, so a list works as well as a lazy scenario
iterator, and hold a single op of lookahead.  A scenario (or an
on-disk trace) of any length therefore runs in bounded memory.

When the controller has a tracer installed, the closed-loop host emits
a ``scenario.phase`` trace event the first time an op of a new
generator phase is issued — the bridge between the workload's declared
structure (fill/steady/burst/idle) and the device-side event stream.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

from repro.observability.events import SCENARIO_PHASE
from repro.sim.controller import StorageController
from repro.sim.kernel import Simulator
from repro.sim.queues import Request, RequestKind

if TYPE_CHECKING:
    from repro.scenarios.base import Scenario


@dataclasses.dataclass(slots=True)
class StreamOp:
    """One host operation: a closed-loop stream op or a trace record.

    Attributes:
        kind: read or write.
        lpn: first logical page.
        npages: length in pages.
        think_after: host think time between this op's completion and
            the stream's next issue (0 inside a burst; large between
            bursts or for low-intensity workloads).
        time: open-loop arrival timestamp, or None for closed-loop ops.
        stream: issuing worker-stream index.
        tenant: issuing tenant name, or None for untagged traffic.
        phase: generator phase the op belongs to ("" when unphased).

    Not frozen: a frozen dataclass's ``__init__`` costs about three
    times as much, and generators build one per op.  Treat an op as a
    value once it has been handed out.
    """

    kind: RequestKind
    lpn: int
    npages: int = 1
    think_after: float = 0.0
    time: Optional[float] = None
    stream: int = 0
    tenant: Optional[str] = None
    phase: str = ""

    def to_request(self) -> Request:
        """The open-loop projection (requires an arrival ``time``)."""
        if self.time is None:
            raise ValueError(
                "op has no arrival time; only open-mode scenarios "
                "replay as requests")
        return Request(time=self.time, kind=self.kind, lpn=self.lpn,
                       npages=self.npages, tenant=self.tenant)


class TraceReplayHost:
    """Replays a time-ordered request trace (open-loop arrivals).

    Arrivals fire at their trace timestamps regardless of device state;
    backpressure shows up as write-buffer admission queueing inside the
    controller, exactly how a host-side block layer experiences a slow
    device.  Only one look-ahead request is held, so a billion-op
    on-disk trace replays in constant memory.  Raises on an
    out-of-order arrival, naming the offending position.

    ``scenario`` (optional) is the scenario the requests came from; it
    makes the host snapshot-capable the same way as
    :class:`ClosedLoopHost`.
    """

    def __init__(self, sim: Simulator, controller: StorageController,
                 requests: Iterable[Request],
                 scenario: Optional["Scenario"] = None) -> None:
        self.sim = sim
        self.controller = controller
        self._iter: Iterator[Request] = iter(requests)
        self._next: Optional[Request] = next(self._iter, None)
        self._pulled = 1
        self.issued = 0
        self.scenario_spec: Optional[Dict[str, Any]] = \
            scenario.spec() if scenario is not None else None

    def start(self) -> None:
        """Schedule the first arrival (no-op for an empty trace)."""
        if self._next is not None:
            self.sim.schedule_at(max(self.sim.now, self._next.time),
                                 self._arrive)

    def _arrive(self) -> None:
        request = self._next
        assert request is not None
        self._next = next(self._iter, None)
        self._pulled += 1
        if self._next is not None:
            if self._next.time < request.time:
                raise ValueError(
                    f"trace must be sorted by arrival time; request "
                    f"{self.issued + 1} arrives at {self._next.time!r} "
                    f"after {request.time!r}")
            self.sim.schedule_at(max(self.sim.now, self._next.time),
                                 self._arrive)
        self.controller.submit(request)
        self.issued += 1

    # -- snapshot support ----------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        if self.scenario_spec is None:
            raise TypeError(
                "TraceReplayHost holds a live request iterator and no "
                "scenario spec to rebuild it from; construct it with "
                "scenario= to make it snapshot-capable")
        state = self.__dict__.copy()
        del state["_iter"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        from repro.scenarios.base import scenario_from_spec

        self.__dict__.update(state)
        scenario = scenario_from_spec(self.scenario_spec)
        iterator = iter(scenario.requests())
        last: Optional[Request] = None
        for _ in range(self._pulled):
            last = next(iterator, None)
        if self._pulled and _request_key(last) != _request_key(self._next):
            raise ValueError(
                f"scenario {scenario.name!r} did not regenerate "
                f"deterministically: request {self._pulled} was "
                f"{self._next!r} at snapshot time but {last!r} on "
                f"restore")
        self._iter = iterator


def _request_key(request: Optional[Request]):
    """Identity fields of a trace request (callback excluded)."""
    if request is None:
        return None
    return (request.time, request.kind, request.lpn, request.npages,
            request.tenant)


class StreamCompletion:
    """Completion callback that advances one closed-loop stream.

    A plain class (not a lambda) so a host mid-run — including the
    callbacks attached to in-flight requests — pickles into a fleet
    snapshot.  The pickle memo keeps ``host`` pointing at the one
    host instance shared by every callback.
    """

    __slots__ = ("host", "index", "think")

    def __init__(self, host, index: int, think: float) -> None:
        self.host = host
        self.index = index
        self.think = think

    def __call__(self, _req, _now) -> None:
        self.host._advance(self.index, self.think)

    def __getstate__(self):
        return (self.host, self.index, self.think)

    def __setstate__(self, state) -> None:
        self.host, self.index, self.think = state


class ClosedLoopHost:
    """Synchronous worker streams (Sysbench/Filebench-style load).

    Holds exactly one pending op per stream (the lookahead needed to
    know whether a stream is exhausted); everything else stays inside
    the stream iterators.

    An op's ``tenant`` tag becomes its request's tenant; tags feed
    per-tenant accounting (:mod:`repro.qos.slo`) and change nothing
    about how requests are scheduled.

    ``scenario`` (optional) is the scenario the streams came from.
    When given, the host is *snapshot-capable*: generator iterators
    cannot pickle, so ``__getstate__`` drops them and records the
    scenario spec plus per-stream pull counts, and ``__setstate__``
    rebuilds the iterators from the spec and fast-forwards each one —
    deterministic because scenario generation is seeded.  The restored
    lookahead op is checked against the pickled one, so a
    non-deterministic scenario fails loudly instead of silently
    diverging.
    """

    def __init__(self, sim: Simulator, controller: StorageController,
                 streams: Iterable[Iterable[StreamOp]],
                 scenario: Optional["Scenario"] = None) -> None:
        self.sim = sim
        self.controller = controller
        self._iters: List[Iterator[StreamOp]] = \
            [iter(stream) for stream in streams]
        self._current: List[Optional[StreamOp]] = \
            [None] * len(self._iters)
        self._pulled = [0] * len(self._iters)
        self._phase = ""
        self.issued = 0
        self.scenario_spec: Optional[Dict[str, Any]] = \
            scenario.spec() if scenario is not None else None

    def start(self) -> None:
        """Pull each stream's first op and kick off the non-empty ones."""
        for index, iterator in enumerate(self._iters):
            op = next(iterator, None)
            self._pulled[index] += 1
            self._current[index] = op
            if op is not None:
                self.sim.schedule(0.0, self._issue, index)

    def _issue(self, index: int) -> None:
        op = self._current[index]
        assert op is not None
        trace = getattr(self.controller, "_trace", None)
        if trace is not None and op.phase and op.phase != self._phase:
            trace.event(SCENARIO_PHASE, name=op.phase,
                        prev=self._phase, stream=index)
            self._phase = op.phase
        request = Request(self.sim.now, op.kind, op.lpn, op.npages,
                          tenant=op.tenant)
        request.on_complete = StreamCompletion(self, index, op.think_after)
        self.controller.submit(request)
        self.issued += 1

    def _advance(self, index: int, think: float) -> None:
        nxt = next(self._iters[index], None)
        self._pulled[index] += 1
        self._current[index] = nxt
        if nxt is not None:
            self.sim.schedule(think, self._issue, index)

    def resume(self) -> int:
        """Re-issue every unfinished stream after a power cut.

        A power-off halts the event queue, so streams whose in-flight
        request never completed are stalled on an ``on_complete`` that
        will never fire.  This re-schedules each stream that still
        holds a pending op — the host retries the interrupted op, as a
        real application would after a crash.  Returns the number of
        streams restarted.
        """
        restarted = 0
        for index, op in enumerate(self._current):
            if op is not None:
                self.sim.schedule(0.0, self._issue, index)
                restarted += 1
        return restarted

    # -- snapshot support ----------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        if self.scenario_spec is None:
            raise TypeError(
                f"{type(self).__name__} holds live stream iterators and "
                f"no scenario spec to rebuild them from; construct it "
                f"with scenario= to make it snapshot-capable")
        state = self.__dict__.copy()
        del state["_iters"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        from repro.scenarios.base import scenario_from_spec

        self.__dict__.update(state)
        scenario = scenario_from_spec(self.scenario_spec)
        streams = scenario.op_streams()
        if len(streams) != len(self._current):
            raise ValueError(
                f"scenario {scenario.name!r} rebuilt with "
                f"{len(streams)} streams; snapshot recorded "
                f"{len(self._current)}")
        self._iters = []
        for index, iterator in enumerate(streams):
            last: Optional[StreamOp] = None
            for _ in range(self._pulled[index]):
                last = next(iterator, None)
            if self._pulled[index] and last != self._current[index]:
                raise ValueError(
                    f"scenario {scenario.name!r} stream {index} did "
                    f"not regenerate deterministically: op "
                    f"{self._pulled[index]} was {self._current[index]!r}"
                    f" at snapshot time but {last!r} on restore")
            self._iters.append(iterator)
