"""Streaming hosts: drive a controller from lazy scenario iterators.

These mirror the materialized hosts of :mod:`repro.sim.host` — same
event pattern, same request construction, same completion-driven
advancement — but pull operations from iterators one at a time, so a
scenario (or an on-disk trace) of any length runs in bounded memory.

:class:`StreamingClosedLoopHost` is event-for-event identical to
:class:`~repro.sim.host.ClosedLoopHost` on the same op sequence: the
golden fig8 byte-identity test runs the
:class:`~repro.scenarios.base.StreamScenario` adapter through this
host, so any divergence fails tier 1.

When the controller has a tracer installed, the closed-loop host emits
a ``scenario.phase`` trace event the first time an op of a new
generator phase is issued — the bridge between the workload's declared
structure (fill/steady/burst/idle) and the device-side event stream.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.observability.events import SCENARIO_PHASE
from repro.scenarios.base import Scenario, ScenarioOp, scenario_from_spec
from repro.sim.controller import StorageController
from repro.sim.host import StreamCompletion
from repro.sim.kernel import Simulator
from repro.sim.queues import Request


class StreamingClosedLoopHost:
    """Closed-loop delivery from per-stream op iterators.

    Holds exactly one pending op per stream (the lookahead needed to
    know whether a stream is exhausted); everything else stays inside
    the iterators.

    ``tenant`` is the default tag for ops that carry none of their
    own; a :class:`~repro.scenarios.base.ScenarioOp`'s ``tenant``
    field wins when set.

    ``scenario`` (optional) is the scenario the iterators came from.
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
                 streams: Sequence[Iterator[ScenarioOp]],
                 tenant: Optional[str] = None,
                 scenario: Optional[Scenario] = None) -> None:
        self.sim = sim
        self.controller = controller
        self.tenant = tenant
        self._iters: List[Iterator[ScenarioOp]] = list(streams)
        self._current: List[Optional[ScenarioOp]] = \
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
                          tenant=op.tenant if op.tenant is not None
                          else self.tenant)
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

        Mirrors :meth:`repro.sim.host.ClosedLoopHost.resume`: streams
        whose in-flight op never completed retry it from their held
        pending op.  Returns the number of streams restarted.
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
                "StreamingClosedLoopHost holds live generator "
                "iterators and no scenario spec to rebuild them from; "
                "construct it with scenario= to make it "
                "snapshot-capable")
        state = self.__dict__.copy()
        del state["_iters"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
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
            last: Optional[ScenarioOp] = None
            for _ in range(self._pulled[index]):
                last = next(iterator, None)
            if self._pulled[index] and last != self._current[index]:
                raise ValueError(
                    f"scenario {scenario.name!r} stream {index} did "
                    f"not regenerate deterministically: op "
                    f"{self._pulled[index]} was {self._current[index]!r}"
                    f" at snapshot time but {last!r} on restore")
            self._iters.append(iterator)


class StreamingTraceReplayHost:
    """Open-loop delivery from a lazy, time-ordered request iterator.

    The streaming counterpart of
    :class:`~repro.sim.host.TraceReplayHost`: arrivals fire at their
    trace timestamps regardless of device state, but only a single
    look-ahead request is ever held, so a billion-op on-disk trace
    replays in constant memory.  Raises on an out-of-order arrival,
    naming the offending position.
    """

    def __init__(self, sim: Simulator, controller: StorageController,
                 requests: Iterator[Request],
                 scenario: Optional[Scenario] = None) -> None:
        self.sim = sim
        self.controller = controller
        self._iter = iter(requests)
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
                "StreamingTraceReplayHost holds a live request "
                "iterator and no scenario spec to rebuild it from; "
                "construct it with scenario= to make it "
                "snapshot-capable")
        state = self.__dict__.copy()
        del state["_iter"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
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
