"""System assembly and measured runs for the evaluation experiments.

The paper's testbed is a 16 GB BlueDBM slice; a pure-Python DES cannot
replay multi-gigabyte workloads in reasonable time, so experiments
default to :data:`EXPERIMENT_GEOMETRY`, a proportionally scaled device
(same channel/chip structure, smaller block count and page count per
block).  Every run preconditions the device with a full sequential
fill, then measures the workload phase only (fresh statistics, counter
deltas), which is standard SSD evaluation methodology.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.flexftl import FlexFtl
from repro.core.page_allocator import PolicyConfig
from repro.core.predictor import EwmaBurstPredictor
from repro.ftl.base import BaseFtl, FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.ftl.slcftl import SlcFtl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming
from repro.scenarios.base import (
    OPEN,
    Scenario,
    StreamScenario,
    as_scenario,
)
from repro.scenarios.host import (
    StreamingClosedLoopHost,
    StreamingTraceReplayHost,
)
from repro.sim.controller import StorageController
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.kernel import HeapSimulator, Simulator
from repro.sim.queues import WriteBuffer
from repro.sim.stats import SimStats
from repro.workloads.synthetic import sequential_fill

#: FTL name -> (class, sequence scheme its device must enforce).
FTL_REGISTRY: Dict[str, Tuple[Type[BaseFtl], SequenceScheme]] = {
    "pageFTL": (PageFtl, SequenceScheme.FPS),
    "parityFTL": (ParityFtl, SequenceScheme.FPS),
    "rtfFTL": (RtfFtl, SequenceScheme.FPS),
    "flexFTL": (FlexFtl, SequenceScheme.RPS),
    # Related-work baseline (Section 5, ref [4]): LSB-only at half
    # capacity; not part of the paper's Figure 8 comparison.
    "slcFTL": (SlcFtl, SequenceScheme.RPS),
}

#: Scaled-down evaluation device: 4 channels x 2 chips, 64 blocks/chip,
#: 64 pages/block (32 word lines), 4-KB pages — ~128 MB raw.
EXPERIMENT_GEOMETRY = NandGeometry(
    channels=4,
    chips_per_channel=2,
    blocks_per_chip=64,
    pages_per_block=64,
    page_size=4096,
)

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to build one simulated storage system."""

    geometry: NandGeometry = EXPERIMENT_GEOMETRY
    timing: NandTiming = NandTiming()
    buffer_pages: int = 256
    ftl_config: FtlConfig = FtlConfig()
    policy_config: PolicyConfig = PolicyConfig()
    bandwidth_window: float = 0.05
    warmup: bool = True
    #: flexFTL parity granularity (0 = per block; see FlexFtl).
    flex_parity_interval: int = 0
    #: rtfFTL active blocks per chip (the paper's setup: 8).
    rtf_active_blocks: int = 8
    #: give flexFTL a future-write predictor (the Section 6 extension).
    flex_use_predictor: bool = False
    #: retain per-block program histories (needed by the reliability
    #: analyses; performance runs turn this off — it does not change
    #: any simulation outcome, only what the device remembers).
    track_history: bool = True
    #: event-queue implementation: "calendar" (bucket queue sized to
    #: the LSB-program latency quantum) or "heap" (the original binary
    #: heap, kept as the equivalence oracle).  Pop order — and hence
    #: every simulation outcome — is identical.
    kernel: str = "calendar"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot, invertible via :meth:`from_dict`.

        The engine's result cache keys on this, so it must cover every
        field that can change a run's outcome.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`.

        Keys for fields this version no longer has (an older config's
        chip-dispatch mode, say) are ignored: they never changed an
        outcome.
        """
        return cls(
            geometry=NandGeometry(**data["geometry"]),  # type: ignore[arg-type]
            timing=NandTiming(**data["timing"]),  # type: ignore[arg-type]
            buffer_pages=int(data["buffer_pages"]),  # type: ignore[arg-type]
            ftl_config=FtlConfig(**data["ftl_config"]),  # type: ignore[arg-type]
            policy_config=PolicyConfig(**data["policy_config"]),  # type: ignore[arg-type]
            bandwidth_window=float(data["bandwidth_window"]),  # type: ignore[arg-type]
            warmup=bool(data["warmup"]),
            flex_parity_interval=int(data["flex_parity_interval"]),  # type: ignore[arg-type]
            rtf_active_blocks=int(data["rtf_active_blocks"]),  # type: ignore[arg-type]
            flex_use_predictor=bool(data["flex_use_predictor"]),
            track_history=bool(data.get("track_history", True)),
            kernel=str(data.get("kernel", "calendar")),
        )


@dataclasses.dataclass
class RunResult:
    """Outcome of one measured workload run."""

    ftl_name: str
    stats: SimStats
    counters: Dict[str, int]
    events: int
    logical_pages: int

    @property
    def iops(self) -> float:
        """Completed host requests per second (Figure 8(a) metric).

        ``nan`` when the measured phase completed no host requests
        (possible with tiny ``--ops`` values): a rate over an empty
        makespan is undefined, not zero.
        """
        if self.stats.completed_requests == 0 or self.stats.elapsed <= 0.0:
            return float("nan")
        return self.stats.iops()

    @property
    def erases(self) -> int:
        """Block erasures during the measured phase (Figure 8(b))."""
        return self.counters["erases"]

    @property
    def write_amplification(self) -> float:
        """(host + GC + backup programs) / host programs.

        ``nan`` when the measured phase wrote no host pages — the
        ratio is undefined rather than zero or infinite.
        """
        host = self.counters["host_programs"]
        if host == 0:
            return float("nan")
        total = (self.counters["host_programs"]
                 + self.counters["gc_programs"]
                 + self.counters["backup_programs"])
        return total / host

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot shared by the result cache and ``--json``.

        Invertible: ``RunResult.from_dict(r.to_dict()) == r``, exactly
        (floats survive a JSON round trip bit-for-bit).
        """
        return {
            "ftl_name": self.ftl_name,
            "stats": self.stats.to_dict(),
            "counters": dict(self.counters),
            "events": self.events,
            "logical_pages": self.logical_pages,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ftl_name=str(data["ftl_name"]),
            stats=SimStats.from_dict(data["stats"]),  # type: ignore[arg-type]
            counters={str(k): int(v)
                      for k, v in data["counters"].items()},  # type: ignore[union-attr]
            events=int(data["events"]),  # type: ignore[arg-type]
            logical_pages=int(data["logical_pages"]),  # type: ignore[arg-type]
        )


def build_system(
    ftl_name: str,
    config: Optional[ExperimentConfig] = None,
) -> Tuple[Simulator, NandArray, WriteBuffer, BaseFtl, StorageController]:
    """Instantiate a complete simulated storage system."""
    if ftl_name not in FTL_REGISTRY:
        raise KeyError(
            f"unknown FTL {ftl_name!r}; choose from {sorted(FTL_REGISTRY)}"
        )
    config = config or ExperimentConfig()
    ftl_cls, scheme = FTL_REGISTRY[ftl_name]
    if config.kernel == "calendar":
        # Bucket width = the LSB program time, the dominant latency
        # quantum of write-heavy NAND traffic.  Narrower buckets
        # (e.g. one read slot) leave most buckets empty and waste the
        # run loop on day advances; measured sweep in
        # docs/PERFORMANCE.md.
        sim: Simulator = Simulator(
            bucket_width=config.timing.t_lsb_prog)
    elif config.kernel == "heap":
        sim = HeapSimulator()  # type: ignore[assignment]
    else:
        raise ValueError(
            f"unknown kernel {config.kernel!r}; "
            f"choose 'calendar' or 'heap'")
    array = NandArray(config.geometry, config.timing, scheme=scheme,
                      track_history=config.track_history)
    buffer = WriteBuffer(config.buffer_pages)
    if ftl_cls is FlexFtl:
        predictor = (EwmaBurstPredictor()
                     if config.flex_use_predictor else None)
        ftl: BaseFtl = FlexFtl(array, buffer, config.ftl_config,
                               policy_config=config.policy_config,
                               parity_interval=config.flex_parity_interval,
                               predictor=predictor)
    elif ftl_cls is RtfFtl:
        ftl = RtfFtl(array, buffer, config.ftl_config,
                     active_blocks=config.rtf_active_blocks)
    else:
        ftl = ftl_cls(array, buffer, config.ftl_config)
    stats = SimStats(page_size=config.geometry.page_size,
                     bandwidth_window=config.bandwidth_window)
    controller = StorageController(sim, array, ftl, buffer, stats)
    return sim, array, buffer, ftl, controller


def _snapshot(ftl: BaseFtl) -> Dict[str, int]:
    return dict(ftl.counters())


#: The paper's Figure 8 contenders (slcFTL is a related-work extra
#: with half the logical space; including it would shrink every
#: comparison's footprint).
PAPER_FTLS: Tuple[str, ...] = ("pageFTL", "parityFTL", "rtfFTL",
                               "flexFTL")


def experiment_span(config: Optional[ExperimentConfig] = None,
                    utilization: float = 0.6,
                    ftls: Optional[Sequence[str]] = None) -> int:
    """Logical footprint shared by all FTLs of a comparison.

    The paper's benchmarks occupy a fraction of the 16 GB board; we
    mirror that by sizing every workload to ``utilization`` of the
    *smallest* logical space among the compared FTLs (the backup FTLs
    reserve blocks, so their logical space is slightly smaller), which
    keeps the workload identical across FTLs.
    """
    if not (0.0 < utilization <= 1.0):
        raise ValueError("utilization must be in (0, 1]")
    config = config or ExperimentConfig()
    smallest = None
    for name in (ftls or PAPER_FTLS):
        _, _, _, ftl, _ = build_system(name, config)
        if smallest is None or ftl.logical_pages < smallest:
            smallest = ftl.logical_pages
    assert smallest is not None
    return max(1, int(smallest * utilization))


def coerce_scenario(streams: Optional[Sequence[Sequence[StreamOp]]],
                    scenario: Any, caller: str,
                    deprecate_streams: bool = False) -> Scenario:
    """Resolve a runner's ``streams=``/``scenario=`` pair.

    Exactly one of the two must be given.  ``streams`` wraps into a
    :class:`~repro.scenarios.base.StreamScenario` (the legacy adapter,
    byte-identical to the pre-scenario code path); ``scenario``
    accepts a :class:`~repro.scenarios.base.Scenario` or its spec dict
    (how engine cells carry scenarios across process boundaries).
    """
    if (streams is None) == (scenario is None):
        raise TypeError(
            f"{caller}() takes exactly one of streams= (legacy) or "
            f"scenario=")
    if streams is not None:
        if deprecate_streams:
            warnings.warn(
                f"{caller}(streams=...) is deprecated; wrap the "
                f"streams in repro.scenarios.StreamScenario (or use a "
                f"WorkloadScenario/TraceScenario) and pass scenario=",
                DeprecationWarning, stacklevel=3)
        return StreamScenario.from_streams(streams)
    return as_scenario(scenario)


def warmup_device(sim: Simulator, controller: StorageController,
                  ftl: BaseFtl, config: ExperimentConfig, *,
                  footprint: Optional[int] = None,
                  warmup_span: Optional[int] = None,
                  max_events: Optional[int] = None) -> None:
    """Precondition the device with a full sequential fill.

    The shared warmup of all three measured runners (workload, QoS,
    fault).  Fills ``warmup_span`` logical pages — defaulting to the
    workload's ``footprint``, clamped to the FTL's logical space; an
    unknown footprint (a foreign trace without metadata) fills the
    whole logical space.  No-op when ``config.warmup`` is off.
    """
    if not config.warmup:
        return
    if warmup_span is None:
        span = ftl.logical_pages if footprint is None else footprint
        warmup_span = min(ftl.logical_pages, span)
    fill = sequential_fill(warmup_span)
    warmup_host = ClosedLoopHost(sim, controller, [fill])
    warmup_host.start()
    sim.run(max_events=max_events)
    if isinstance(ftl, FlexFtl):
        # The fill saturates the device and exhausts the LSB quota;
        # the measured phase starts from the paper's initial state.
        ftl.quota.reset()


def begin_measured_phase(controller: StorageController, ftl: BaseFtl,
                         config: ExperimentConfig
                         ) -> Tuple[Dict[str, int], SimStats]:
    """Swap in fresh statistics and snapshot the counter baseline.

    Returns ``(baseline, measured_stats)``; the run's deltas are
    ``final - baseline`` so warmup traffic never pollutes a report.
    """
    baseline = _snapshot(ftl)
    measured_stats = SimStats(page_size=config.geometry.page_size,
                              bandwidth_window=config.bandwidth_window)
    controller.stats = measured_stats
    return baseline, measured_stats


def scenario_host(sim: Simulator, controller: StorageController,
                  scenario: Scenario):
    """The streaming host matching a scenario's delivery mode.

    The scenario handle is passed through so the host can rebuild its
    iterators from the spec when it rides into a fleet snapshot.
    """
    if scenario.mode == OPEN:
        return StreamingTraceReplayHost(sim, controller,
                                        scenario.requests(),
                                        scenario=scenario)
    return StreamingClosedLoopHost(sim, controller,
                                   scenario.op_streams(),
                                   scenario=scenario)


def run_workload(
    *,
    ftl_name: str,
    streams: Optional[Sequence[Sequence[StreamOp]]] = None,
    scenario: Any = None,
    config: Optional[ExperimentConfig] = None,
    max_events: Optional[int] = None,
    warmup_span: Optional[int] = None,
    tracer: Optional[object] = None,
) -> RunResult:
    """Precondition, run one workload, and report measured-phase results.

    All parameters are keyword-only: call sites used to pass
    ``(ftl, streams, config)`` positionally, an argument order that is
    easy to swap silently and that the engine's serialized
    :class:`~repro.experiments.engine.Cell` spec cannot tolerate.

    Args:
        ftl_name: a :data:`FTL_REGISTRY` key.
        scenario: the workload — a
            :class:`~repro.scenarios.base.Scenario` or its spec dict
            (see :mod:`repro.scenarios`); closed-mode scenarios drive
            synchronous worker streams, open-mode ones replay timed
            arrivals.
        streams: *deprecated* — legacy closed-loop stream lists;
            wrapped into a
            :class:`~repro.scenarios.base.StreamScenario` with a
            :class:`DeprecationWarning`.  Mutually exclusive with
            ``scenario``.
        config: system configuration.
        max_events: optional simulation event cap (safety backstop).
        warmup_span: logical pages to precondition (defaults to the
            scenario's declared footprint).
        tracer: optional :class:`~repro.observability.tracer.Tracer`;
            when given (and enabled) it is installed for the whole run
            with ``warmup``/``measured`` profiling phases, its metrics
            registry is attached to the measured stats, and it is
            detached before returning.  ``None`` (the default) leaves
            the run untouched.

    Returns:
        A :class:`RunResult` whose statistics and counters cover only
        the measured phase (warmup excluded).
    """
    workload = coerce_scenario(streams, scenario, "run_workload",
                               deprecate_streams=True)
    config = config or ExperimentConfig()
    sim, array, buffer, ftl, controller = build_system(ftl_name, config)

    tracing = tracer is not None and getattr(tracer, "enabled", True)
    if tracing:
        tracer.install(controller)
        tracer.begin_phase("warmup")

    warmup_device(sim, controller, ftl, config,
                  footprint=workload.footprint,
                  warmup_span=warmup_span, max_events=max_events)
    baseline, measured_stats = begin_measured_phase(controller, ftl,
                                                    config)

    if tracing:
        tracer.begin_phase("measured")
    host = scenario_host(sim, controller, workload)
    host.start()
    sim.run(max_events=max_events)
    if tracing:
        tracer.finish()
        measured_stats.metrics = tracer.metrics
        tracer.detach()

    final = _snapshot(ftl)
    deltas = {key: final[key] - baseline.get(key, 0) for key in final}
    return RunResult(
        ftl_name=ftl_name,
        stats=measured_stats,
        counters=deltas,
        events=sim.processed,
        logical_pages=ftl.logical_pages,
    )
