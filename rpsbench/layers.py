"""Layer attribution for the traced benchmark run.

The benchmark times each layer from outside: it wraps the public entry
points at every layer boundary with a span that records wall time, and
folds the spans into per-layer *self* time (a span's duration minus the
time its child spans cover).  Spans stay in memory — an aggregate per
entry point plus a bounded ring of raw spans — and are written out as
JSON when the run ends.

The wrappers go onto classes and module attributes, so they must be
installed *before* a system is built: the controller binds its NAND,
FTL and mapping methods at construction.  They are only ever installed
in a process that reports per-layer numbers, never in one that reports
end-to-end metrics.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers, named after the repository's modules.
LAYERS: Tuple[str, ...] = ("experiments", "sim", "ftl", "nand",
                           "reliability", "scenarios", "qos", "fleet")

#: Class methods wrapped with a span: (layer, module, class, method).
#: A method is wrapped only where the class defines it itself, so an
#: override and the base method it calls are separate spans.
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", "run"),
    ("sim", "repro.sim.kernel", "Simulator", "schedule"),
    ("sim", "repro.sim.kernel", "Simulator", "schedule_at"),
    ("ftl", "repro.ftl.base", "BaseFtl", "next_op"),
    ("ftl", "repro.ftl.base", "BaseFtl", "background_op"),
    ("ftl", "repro.ftl.base", "BaseFtl", "wants_background_gc"),
    ("ftl", "repro.ftl.base", "BaseFtl", "lookup"),
    ("ftl", "repro.core.flexftl", "FlexFtl", "next_op"),
    ("ftl", "repro.core.flexftl", "FlexFtl", "background_op"),
    ("ftl", "repro.core.flexftl", "FlexFtl", "wants_background_gc"),
    # The controller binds ftl.mapping.lookup directly (BaseFtl.lookup
    # is a pure delegation it skips), so the read path's mapping
    # lookups only show up here.
    ("ftl", "repro.ftl.mapping", "MappingTable", "lookup"),
    ("nand", "repro.nand.array", "NandArray", "program"),
    ("nand", "repro.nand.array", "NandArray", "read"),
    ("nand", "repro.nand.array", "NandArray", "erase"),
    ("reliability", "repro.reliability.physics", "PhysicsEngine",
     "on_read"),
    ("reliability", "repro.reliability.physics", "PhysicsEngine",
     "note_program"),
    ("reliability", "repro.reliability.physics", "PhysicsEngine",
     "note_erase"),
    ("reliability", "repro.reliability.physics", "PhysicsEngine",
     "bind"),
    ("qos", "repro.qos.arbiter", "FifoArbiter", "select"),
    ("qos", "repro.qos.arbiter", "RoundRobinArbiter", "select"),
    ("qos", "repro.qos.arbiter", "WeightedRoundRobinArbiter", "select"),
    ("qos", "repro.qos.arbiter", "DeficitRoundRobinArbiter", "select"),
    ("qos", "repro.qos.host", "MultiTenantHost", "start"),
    ("fleet", "repro.fleet.device", "DeviceRun", "build"),
    ("fleet", "repro.fleet.device", "DeviceRun", "advance"),
    ("fleet", "repro.fleet.device", "DeviceRun", "result"),
    ("fleet", "repro.fleet.aggregate", "FleetReport", "__init__"),
    ("fleet", "repro.fleet.aggregate", "FleetReport", "totals"),
    ("fleet", "repro.fleet.aggregate", "FleetReport", "per_tenant"),
    ("fleet", "repro.fleet.aggregate", "FleetReport", "fingerprint"),
)

#: Module-level functions wrapped with a span: (layer, module, name).
#: Every loaded module that imported the function by name gets the
#: wrapper too, so call sites in other modules are covered.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments", "repro.experiments.runner", "build_system"),
    ("experiments", "repro.experiments.runner", "warmup_device"),
    ("experiments", "repro.experiments.runner", "begin_measured_phase"),
    ("scenarios", "repro.scenarios.presets", "make_preset"),
    ("scenarios", "repro.experiments.qos_isolation",
     "build_noisy_neighbor"),
    ("fleet", "repro.fleet.service", "run_fleet"),
)

#: Scenario classes whose ``op_streams`` iterators are timed per op.
ITERATOR_SPANS: Tuple[Tuple[str, str], ...] = (
    ("repro.scenarios.generator", "WorkloadScenario"),
)

#: Fleet aggregation spans (FleetReport methods), for ``aggregate_s``.
AGGREGATE_PREFIX = "fleet.FleetReport."


def entry_points() -> List[str]:
    """Dotted names of every entry point the traced run wraps."""
    names = [f"{module}.{cls}.{method}"
             for _layer, module, cls, method in METHOD_SPANS]
    names += [f"{module}.{name}" for _layer, module, name in FUNCTION_SPANS]
    names += [f"{module}.{cls}.op_streams"
              for module, cls in ITERATOR_SPANS]
    return names


class SpanRecorder:
    """In-memory span store with per-layer self-time accounting.

    Each wrapped entry point owns a stat cell ``[calls, inclusive s,
    self s, open depth]``; the wrappers update it in place, which keeps
    their own cost (reported as ``bench.trace_overhead_ratio``) low.

    Args:
        ring: raw spans retained (the most recent ones); aggregates
            cover every span regardless.
    """

    def __init__(self, ring: int = 20_000) -> None:
        #: span name -> (layer, [calls, incl_s, self_s, depth])
        self.stats: Dict[str, Tuple[str, List[float]]] = {}
        #: raw spans: (id, parent id, name, start, end)
        self.spans: "collections.deque[Tuple[int, int, str, float, float]]" \
            = collections.deque(maxlen=ring)
        self.ids = itertools.count(1)
        #: open spans: [child time, child count, span id]
        self.stack: List[List[float]] = []
        self.root_start: Optional[float] = None
        self.root_end: Optional[float] = None
        #: spans are recorded only inside the root span
        self.active = False
        #: calibrated wrapper cost per child span (see calibrate())
        self.child_overhead_s = 0.0
        #: wrapper cost moved out of the layers into unattributed time
        self.overhead_s = 0.0

    def stat(self, layer: str, name: str) -> List[float]:
        """The stat cell of one span name (created on first use)."""
        if name not in self.stats:
            self.stats[name] = (layer, [0, 0.0, 0.0, 0])
        return self.stats[name][1]

    @property
    def calls(self) -> Dict[str, int]:
        return {name: int(cell[0]) for name, (_, cell) in self.stats.items()}

    @property
    def incl_s(self) -> Dict[str, float]:
        return {name: cell[1] for name, (_, cell) in self.stats.items()}

    @property
    def self_s(self) -> Dict[str, float]:
        return {name: cell[2] for name, (_, cell) in self.stats.items()}

    @property
    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer (every layer present, zero if unused)."""
        out = {layer: 0.0 for layer in LAYERS}
        for layer, cell in self.stats.values():
            if layer in out:
                out[layer] += cell[2]
        return out

    @property
    def total_spans(self) -> int:
        return sum(int(cell[0]) for _, cell in self.stats.values())

    def calibrate(self, calls: int = 20_000, trials: int = 5) -> float:
        """Estimate the wrapper cost a parent span absorbs per child.

        Times a loop of wrapped no-op calls against the same loop of
        plain calls; the difference not covered by the child spans is
        the per-child overhead (best of ``trials``).
        """
        def noop() -> None:
            return None

        best = float("inf")
        for _ in range(trials):
            probe = SpanRecorder(ring=1)
            wrapped = _wrap(probe, "calibrate", "calibrate", noop)
            probe.active = True
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
            covered = probe.incl_s["calibrate"]
            best = min(best, ((t1 - t0) - covered - (t2 - t1)) / calls)
        self.child_overhead_s = max(0.0, best)
        return self.child_overhead_s

    # -- the root span (the traced repetition as a whole) -------------

    def begin_root(self) -> None:
        self.active = True
        self.root_start = time.perf_counter()

    def end_root(self) -> None:
        self.root_end = time.perf_counter()
        self.active = False

    @property
    def wall_s(self) -> float:
        """Wall time of the root span."""
        if self.root_start is None or self.root_end is None:
            raise RuntimeError("the root span was never closed")
        return self.root_end - self.root_start

    @property
    def unattributed_s(self) -> float:
        """Root wall time that no layer span covers."""
        return self.wall_s - sum(self.layer_self_s.values())

    def count(self, prefix: str) -> int:
        """Calls of every span whose name starts with ``prefix``."""
        return sum(n for name, n in self.calls.items()
                   if name.startswith(prefix))

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None
             ) -> None:
        """Write aggregates plus the raw span ring as JSON."""
        origin = self.root_start or 0.0
        payload = {
            "wall_s": self.wall_s,
            "unattributed_s": self.unattributed_s,
            "wrapper_overhead_s": self.overhead_s,
            "child_overhead_s": self.child_overhead_s,
            "layer_self_s": self.layer_self_s,
            "entry_points": {
                name: {"layer": layer, "calls": int(cell[0]),
                       "incl_s": cell[1], "self_s": cell[2]}
                for name, (layer, cell) in sorted(self.stats.items())
            },
            "spans_total": self.total_spans,
            "spans_kept": len(self.spans),
            "spans": [
                {"id": span_id, "parent": parent, "name": name,
                 "start_s": start - origin, "end_s": end - origin}
                for span_id, parent, name, start, end in self.spans
            ],
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)


def _wrap(recorder: SpanRecorder, layer: str, name: str,
          fn: Callable) -> Callable:
    """``fn`` inside a span named ``name`` of ``layer``.

    A span's self time is its duration minus its children's durations
    minus the calibrated wrapper cost of each child; that cost is moved
    into :attr:`SpanRecorder.overhead_s` (unattributed time).
    """
    cell = recorder.stat(layer, name)
    stack = recorder.stack
    spans = recorder.spans
    ids = recorder.ids
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span_id = next(ids)
        parent = stack[-1] if stack else None
        frame = [0.0, 0, span_id]
        stack.append(frame)
        cell[3] += 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            overhead = frame[1] * recorder.child_overhead_s
            recorder.overhead_s += overhead
            cell[0] += 1
            cell[2] += duration - frame[0] - overhead
            cell[3] -= 1
            if not cell[3]:
                # only the outermost span of a name counts inclusively
                cell[1] += duration
            if parent is not None:
                parent[0] += duration
                parent[1] += 1
            spans.append((span_id, parent[2] if parent is not None else 0,
                          name, start, end))
    return wrapper


class _TimedIterator:
    """An op iterator whose every ``next`` is a scenarios span."""

    __slots__ = ("_it", "_next")

    def __init__(self, iterator: Iterator, timed_next: Callable) -> None:
        self._it = iterator
        self._next = timed_next

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._next(self._it)


def _wrap_op_streams(recorder: SpanRecorder, name: str,
                     fn: Callable) -> Callable:
    timed = _wrap(recorder, "scenarios", name, fn)
    timed_next = _wrap(recorder, "scenarios", "scenarios.next", next)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return [_TimedIterator(it, timed_next)
                for it in timed(self, *args, **kwargs)]
    return wrapper


class LayerTrace:
    """Installs span wrappers on the layer entry points.

    Use as a context manager: every wrapped attribute is restored on
    exit, so a process can build untraced systems again afterwards.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # vars(), not getattr(): a classmethod must be restored as the
        # descriptor, not as the method bound on access
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "LayerTrace":
        import importlib

        recorder = self.recorder
        for layer, module_name, cls_name, method in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            if method not in vars(cls):
                raise AttributeError(
                    f"{module_name}.{cls_name} defines no {method}")
            raw = vars(cls)[method]
            name = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(recorder, layer, name,
                                            raw.__func__))
            else:
                wrapped = _wrap(recorder, layer, name, raw)
            self._patch(cls, method, wrapped)
        for module_name, cls_name in ITERATOR_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "op_streams", _wrap_op_streams(
                recorder, f"scenarios.{cls_name}.op_streams",
                vars(cls)["op_streams"]))
        for layer, module_name, name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), name)
            wrapped = _wrap(recorder, layer, f"{layer}.{name}", original)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "") or ""
                if not loaded_name.startswith(("repro", "rpsbench")):
                    continue
                if vars(loaded).get(name) is original:
                    self._patch(loaded, name, wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
