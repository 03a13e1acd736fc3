"""System assembly and the measured run behind every experiment.

The paper's testbed is a 16 GB BlueDBM slice; a pure-Python DES cannot
replay multi-gigabyte workloads in reasonable time, so experiments
default to :data:`EXPERIMENT_GEOMETRY`, a proportionally scaled device
(same channel/chip structure, smaller block count and page count per
block).  Every run preconditions the device with a full sequential
fill, then measures the workload phase only (fresh statistics, counter
deltas), which is standard SSD evaluation methodology.

:func:`run_workload` is the one measured-run function.  Its keywords
arm the optional subsystems — a tracer, runtime fault injection, the
physics error engine, scheduled power cuts with recovery, and the
multi-tenant QoS front-end — on the same build -> warm-up -> measured
phase pipeline; :func:`prepare_measured_run` is that pipeline stopped
just after the host starts, which is how a fleet
:class:`~repro.fleet.device.DeviceRun` positions itself.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    get_type_hints,
)

from repro.core.flexftl import FlexFtl
from repro.core.page_allocator import PolicyConfig
from repro.core.predictor import EwmaBurstPredictor
from repro.core.tlc_ftl import TlcFlexFtl, TlcPageFtl
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import recover_after_power_loss
from repro.ftl.base import BaseFtl, FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.ftl.slcftl import SlcFtl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming
from repro.nand.tlc import TlcScheme
from repro.nand.tlc_array import TlcGeometry, TlcNandArray, TlcTiming
from repro.qos.host import (
    MultiTenantHost,
    TenantSpec,
    tenant_specs_from_scenario,
)
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.scenarios.base import (
    CLOSED,
    OPEN,
    Scenario,
    as_scenario,
)
from repro.sim.controller import StorageController
from repro.sim.host import ClosedLoopHost, TraceReplayHost
from repro.sim.kernel import Simulator
from repro.sim.powerloss import ScheduledPowerLoss
from repro.sim.queues import WriteBuffer
from repro.sim.stats import SimStats
from repro.workloads.synthetic import sequential_fill

#: FTL name -> (class, sequence scheme its device must enforce).  A
#: :class:`~repro.nand.tlc.TlcScheme` entry runs on a 3-bit
#: :class:`~repro.nand.tlc_array.TlcNandArray`, every other one on the
#: MLC :class:`~repro.nand.array.NandArray`.
FTL_REGISTRY: Dict[str, Tuple[Type[BaseFtl],
                              Union[SequenceScheme, TlcScheme]]] = {
    "pageFTL": (PageFtl, SequenceScheme.FPS),
    "parityFTL": (ParityFtl, SequenceScheme.FPS),
    "rtfFTL": (RtfFtl, SequenceScheme.FPS),
    "flexFTL": (FlexFtl, SequenceScheme.RPS),
    # Related-work baseline (Section 5, ref [4]): LSB-only at half
    # capacity; not part of the paper's Figure 8 comparison.
    "slcFTL": (SlcFtl, SequenceScheme.RPS),
    # The Section 1 TLC claim: the staggered FPS-TLC baseline and the
    # three-phase flexFTL generalisation (repro.core.tlc_ftl).
    "tlc-pageFTL": (TlcPageFtl, TlcScheme.FPS),
    "tlc-flexFTL": (TlcFlexFtl, TlcScheme.RPS),
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
        chip-dispatch mode or event kernel, say) are ignored: they
        never changed an outcome.  ``track_history`` may be missing (it
        came later; it defaults on).  Any other missing field, or one
        of the wrong JSON type, raises ``ValueError`` naming it.
        """
        types = get_type_hints(cls)
        kwargs: Dict[str, Any] = {}
        for field in dataclasses.fields(cls):
            name = field.name
            if name not in data:
                if name == "track_history":
                    continue
                raise ValueError(f"ExperimentConfig: missing field {name!r}")
            kind, value = types[name], data[name]
            try:
                if dataclasses.is_dataclass(kind):
                    if not isinstance(value, dict):
                        raise TypeError(f"expected a dict, got "
                                        f"{type(value).__name__}")
                    kwargs[name] = kind(**value)
                    continue
                # JSON numbers: an int is a valid float, a bool is
                # never a number
                accepted = (int, float) if kind is float else kind
                if not isinstance(value, accepted) or (
                        kind is not bool and isinstance(value, bool)):
                    raise TypeError(f"expected {kind.__name__}, got "
                                    f"{type(value).__name__}")
                kwargs[name] = kind(value)
            except (TypeError, ValueError) as error:
                raise ValueError(f"ExperimentConfig: bad {name!r} "
                                 f"({value!r}): {error}") from error
        return cls(**kwargs)


@dataclasses.dataclass
class RunResult:
    """Outcome of one measured workload run.

    The optional sections are filled by the subsystem that produced
    them and are ``None`` otherwise: ``physics`` holds the error
    engine's summary, ``tenants`` the per-tenant QoS accounting (SLO
    summary plus submission-queue statistics) keyed by tenant name, and
    ``recoveries`` one :class:`~repro.faults.recovery.PowerLossRecovery`
    (as a dict) per fired power cut.
    """

    ftl_name: str
    stats: SimStats
    counters: Dict[str, int]
    events: int
    logical_pages: int
    physics: Optional[Dict[str, Any]] = None
    tenants: Optional[Dict[str, Dict[str, Any]]] = None
    recoveries: Optional[List[Dict[str, Any]]] = None

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
        (floats survive a JSON round trip bit-for-bit).  Absent optional
        sections are omitted, so a plain run's dict has the five base
        keys only.
        """
        data: Dict[str, object] = {
            "ftl_name": self.ftl_name,
            "stats": self.stats.to_dict(),
            "counters": dict(self.counters),
            "events": self.events,
            "logical_pages": self.logical_pages,
        }
        for name in _SECTIONS:
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

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
            **{name: data[name] for name in _SECTIONS if name in data},
        )


#: The optional :class:`RunResult` sections, in serialization order.
_SECTIONS = ("physics", "tenants", "recoveries")


def _is_tlc(ftl_name: str) -> bool:
    """Whether ``ftl_name`` runs on the 3-bit TLC device."""
    entry = FTL_REGISTRY.get(ftl_name)
    return entry is not None and isinstance(entry[1], TlcScheme)


def _tlc_geometry(ftl_name: str, geometry: NandGeometry) -> TlcGeometry:
    """The TLC device shape with ``geometry``'s fields.

    Built from the fields, so a config that went through
    :meth:`ExperimentConfig.from_dict` (which yields a plain
    :class:`NandGeometry`) builds the same device.
    """
    try:
        return TlcGeometry(**dataclasses.asdict(geometry))
    except ValueError as error:
        raise ValueError(f"{ftl_name}: {error}") from None


def check_ftl(ftl_name: str,
              config: Optional[ExperimentConfig] = None) -> None:
    """Raise what :func:`build_system` would, without building.

    ``KeyError`` for an unknown name; ``ValueError`` naming
    ``pages_per_block`` when ``ftl_name``'s device cannot take
    ``config.geometry`` (a TLC block holds whole 3-page word lines).
    """
    if ftl_name not in FTL_REGISTRY:
        raise KeyError(
            f"unknown FTL {ftl_name!r}; choose from {sorted(FTL_REGISTRY)}"
        )
    if _is_tlc(ftl_name):
        _tlc_geometry(ftl_name, (config or ExperimentConfig()).geometry)


def build_system(
    ftl_name: str,
    config: Optional[ExperimentConfig] = None,
) -> Tuple[Simulator, NandArray, WriteBuffer, BaseFtl, StorageController]:
    """Instantiate a complete simulated storage system.

    A TLC name builds a :class:`~repro.nand.tlc_array.TlcNandArray`
    of ``config.geometry``'s shape with the constant
    :class:`~repro.nand.tlc_array.TlcTiming` (``config.timing`` is
    then unused) and ignores ``config.track_history``: TLC blocks
    always keep their history.
    """
    check_ftl(ftl_name, config)
    config = config or ExperimentConfig()
    ftl_cls, scheme = FTL_REGISTRY[ftl_name]
    sim = Simulator()
    if isinstance(scheme, TlcScheme):
        array: Any = TlcNandArray(_tlc_geometry(ftl_name, config.geometry),
                                  TlcTiming(), scheme=scheme)
    else:
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


def warmup_device(sim: Simulator, controller: StorageController,
                  ftl: BaseFtl, config: ExperimentConfig, *,
                  footprint: Optional[int] = None,
                  warmup_span: Optional[int] = None,
                  max_events: Optional[int] = None) -> None:
    """Precondition the device with a full sequential fill.

    The warm-up stage of :func:`prepare_measured_run`.  Fills
    ``warmup_span`` logical pages — defaulting to the workload's
    ``footprint``, clamped to the FTL's logical space; an
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
    quota = getattr(ftl, "quota", None)
    if quota is not None:
        # The fill saturates the device and exhausts the LSB quota
        # (flexFTL's and tlc-flexFTL's alike); the measured phase
        # starts from the paper's initial state.
        quota.reset()


def begin_measured_phase(controller: StorageController, ftl: BaseFtl,
                         config: ExperimentConfig
                         ) -> Tuple[Dict[str, int], SimStats]:
    """Swap in fresh statistics and snapshot the counter baseline.

    Returns ``(baseline, measured_stats)``; the run's deltas are
    ``final - baseline`` so warmup traffic never pollutes a report.
    """
    baseline = dict(ftl.counters())
    measured_stats = SimStats(page_size=config.geometry.page_size,
                              bandwidth_window=config.bandwidth_window)
    controller.stats = measured_stats
    return baseline, measured_stats


def scenario_host(sim: Simulator, controller: StorageController,
                  scenario: Scenario):
    """The host matching a scenario's delivery mode.

    The scenario handle is passed through so the host can rebuild its
    iterators from the spec when it rides into a fleet snapshot.
    """
    if scenario.mode == OPEN:
        return TraceReplayHost(sim, controller, scenario.requests(),
                               scenario=scenario)
    return ClosedLoopHost(sim, controller, scenario.op_streams(),
                          scenario=scenario)


@dataclasses.dataclass
class MeasuredRun:
    """A built, preconditioned system whose measured phase has begun.

    Returned by :func:`prepare_measured_run` with the host started and
    nothing yet simulated past the warm-up; :func:`run_workload` drives
    it to completion, a fleet device advances it in quanta.
    """

    sim: Simulator
    array: NandArray
    buffer: WriteBuffer
    ftl: BaseFtl
    controller: StorageController
    host: Any
    #: FTL counters at the start of the measured phase
    baseline: Dict[str, int]
    #: the measured phase's statistics (the controller's ``stats``)
    stats: SimStats
    #: whether the host is the multi-tenant QoS front-end
    qos: bool
    engine: Optional[PhysicsEngine] = None
    power: Optional[ScheduledPowerLoss] = None


def _resolve_workload(
    scenario: Any, tenants: Optional[Sequence[TenantSpec]],
    arbiter: Optional[str],
) -> Tuple[Optional[Scenario], Optional[List[TenantSpec]], Optional[int]]:
    """Resolve the workload source into ``(scenario, tenants, footprint)``.

    Exactly one of ``scenario`` and ``tenants`` must be given.  A
    tenant list runs behind the QoS front-end and warms up to the
    highest page it touches.  A scenario runs behind it only when an
    ``arbiter`` is named and the scenario declares tenant bindings; it
    warms up to its declared footprint either way.
    """
    if (scenario is None) == (tenants is None):
        raise TypeError(
            "run_workload() takes exactly one of scenario= or tenants=")
    if tenants is not None:
        touched = [op.lpn + op.npages for spec in tenants
                   for stream in spec.streams for op in stream]
        return None, list(tenants), max(touched) if touched else 1
    workload = as_scenario(scenario)
    if arbiter is not None and workload.tenant_bindings():
        return workload, tenant_specs_from_scenario(workload), \
            workload.footprint
    return workload, None, workload.footprint


#: The :func:`run_workload` keywords the TLC stack cannot arm, and why.
_TLC_REFUSALS = {
    "physics": "the error engine reads MLC Block state",
    "power_cuts": "TLC FTLs model no paired-page backup "
                  "(docs/MODELING.md)",
    "faults": "fault recovery rebuilds MLC paired pages only",
}


def prepare_measured_run(
    *,
    ftl_name: str,
    scenario: Any = None,
    tenants: Optional[Sequence[TenantSpec]] = None,
    config: Optional[ExperimentConfig] = None,
    max_events: Optional[int] = None,
    warmup_span: Optional[int] = None,
    tracer: Optional[object] = None,
    faults: Optional[FaultPlan] = None,
    physics: Optional[PhysicsConfig] = None,
    power_cuts: Optional[Sequence[float]] = None,
    arbiter: Optional[str] = None,
    max_outstanding: Optional[int] = 8,
    max_pending_admissions: Optional[int] = None,
) -> MeasuredRun:
    """Build, precondition and start one measured run.

    Takes :func:`run_workload`'s keywords and stops where the
    simulation of the measured phase would begin.  Unsupported
    combinations raise ``ValueError`` before anything is built.
    """
    config = config or ExperimentConfig()
    workload, tenant_specs, footprint = _resolve_workload(
        scenario, tenants, arbiter)
    if _is_tlc(ftl_name):
        armed = {"physics": physics, "power_cuts": power_cuts,
                 "faults": faults}
        for keyword, value in armed.items():
            if value is not None:
                raise ValueError(
                    f"{keyword}= cannot arm on TLC FTL {ftl_name!r}: "
                    f"{_TLC_REFUSALS[keyword]}")
    if physics is not None and not config.track_history:
        raise ValueError(
            "physics= needs config.track_history=True: the engine "
            "primes aggressor counts from block histories")
    if power_cuts is not None:
        if not power_cuts:
            raise ValueError("power_cuts must not be empty")
        if tenant_specs is not None:
            raise ValueError(
                "power_cuts= cannot combine with a multi-tenant run: "
                "the QoS front-end cannot resume after a cut")
        if workload.mode != CLOSED:  # type: ignore[union-attr]
            raise ValueError(
                "power_cuts= needs a closed-mode scenario: open-loop "
                "replay cannot retry an op lost to a power cut")

    sim, array, buffer, ftl, controller = build_system(ftl_name, config)
    if faults is not None:
        for chip, block in faults.factory_bad:
            ftl.mark_factory_bad(chip, block)
    tracing = tracer is not None and getattr(tracer, "enabled", True)
    if tracing:
        tracer.install(controller)
        tracer.begin_phase("warmup")

    warmup_device(sim, controller, ftl, config, footprint=footprint,
                  warmup_span=warmup_span, max_events=max_events)
    baseline, stats = begin_measured_phase(controller, ftl, config)

    # The warm-up stays fault- and physics-free: campaigns at different
    # rates start from the same preconditioned state.
    if faults is not None or power_cuts is not None:
        ftl.fault_stats = controller.ensure_fault_stats()
        if ftl.degraded and not controller.read_only:
            # The factory bad-block table alone exhausted the reserve.
            controller._enter_read_only()
    if tracing:
        tracer.begin_phase("measured")
    engine = None
    if physics is not None:
        engine = PhysicsEngine(physics)
        controller.attach_physics(engine)
    if faults is not None and faults.enabled:
        controller.attach_fault_injector(
            FaultInjector(faults, page_size=config.geometry.page_size))

    if tenant_specs is not None:
        host: Any = MultiTenantHost(
            sim, controller, tenant_specs,
            arbiter=arbiter or "fifo", max_outstanding=max_outstanding,
            max_pending_admissions=max_pending_admissions,
            scenario=workload)
        if tracing:
            tracer.attach_qos(host)
    else:
        host = scenario_host(sim, controller,
                             workload)  # type: ignore[arg-type]
    power = None
    if power_cuts is not None:
        power = ScheduledPowerLoss(
            sim, controller,
            at_times=[sim.now + offset for offset in power_cuts])
    host.start()
    return MeasuredRun(sim=sim, array=array, buffer=buffer, ftl=ftl,
                       controller=controller, host=host,
                       baseline=baseline, stats=stats,
                       qos=tenant_specs is not None, engine=engine,
                       power=power)


def _tenant_sections(host: MultiTenantHost) -> Dict[str, Dict[str, Any]]:
    """Per-tenant SLO summaries plus submission-queue statistics."""
    summaries = host.accountant.summary()
    sections: Dict[str, Dict[str, Any]] = {}
    for index, spec in enumerate(host.tenants):
        queue = host.queues[index]
        bucket = host.buckets[index]
        summary = dict(summaries.get(spec.name, {}))
        summary["queue"] = {
            "enqueued": queue.enqueued,
            "issued": queue.issued,
            "max_depth": queue.max_depth_seen,
            "mean_depth": queue.mean_depth(),
        }
        summary["weight"] = spec.weight
        summary["throttled_decisions"] = (
            bucket.throttled_decisions if bucket is not None else 0)
        sections[spec.name] = summary
    return sections


def _drive(run: MeasuredRun, max_events: Optional[int]
           ) -> Optional[List[Dict[str, Any]]]:
    """Simulate a prepared run to completion, recovering every power
    cut that fires; returns the recoveries (None without cuts)."""
    sim, controller, power = run.sim, run.controller, run.power
    if power is None:
        sim.run(max_events=max_events)
        return None
    recoveries: List[Dict[str, Any]] = []
    while True:
        sim.run(max_events=max_events)
        if len(power.reports) <= len(recoveries):
            break  # ran to completion: no new cut fired
        report = power.reports[len(recoveries)]
        recoveries.append(dataclasses.asdict(
            recover_after_power_loss(controller, report)))
        run.host.resume()
        power.arm_next()
        # Kick the drained device back into motion: the resumed
        # streams arrive via events, but redrive/salvage work must
        # start even on chips no stream touches.
        controller._pump()
    power.cancel()
    return recoveries


def run_workload(
    *,
    ftl_name: str,
    scenario: Any = None,
    tenants: Optional[Sequence[TenantSpec]] = None,
    config: Optional[ExperimentConfig] = None,
    max_events: Optional[int] = None,
    warmup_span: Optional[int] = None,
    tracer: Optional[object] = None,
    faults: Optional[FaultPlan] = None,
    physics: Optional[PhysicsConfig] = None,
    power_cuts: Optional[Sequence[float]] = None,
    arbiter: Optional[str] = None,
    max_outstanding: Optional[int] = 8,
    max_pending_admissions: Optional[int] = None,
) -> RunResult:
    """Precondition, run one workload, and report measured-phase results.

    All parameters are keyword-only (the engine's serialized
    :class:`~repro.experiments.engine.Cell` carries them by name).  The
    warm-up is always plain: tracing covers it as its own phase, but
    faults, physics and power cuts arm only for the measured phase.

    Args:
        ftl_name: a :data:`FTL_REGISTRY` key.
        scenario: the workload — a
            :class:`~repro.scenarios.base.Scenario` or its spec dict;
            closed-mode scenarios drive synchronous worker streams,
            open-mode ones replay timed arrivals.
        tenants: instead of ``scenario``, per-tenant
            :class:`~repro.qos.host.TenantSpec` workloads run behind
            the QoS front-end.
        config: system configuration.
        max_events: optional simulation event cap (safety backstop).
        warmup_span: logical pages to precondition (defaults to the
            workload's footprint).
        tracer: optional :class:`~repro.observability.tracer.Tracer`,
            installed for the whole run with ``warmup``/``measured``
            phases; its metrics registry lands in ``stats.metrics``.
        faults: a :class:`~repro.faults.plan.FaultPlan` armed for the
            measured phase; ``stats.faults`` is attached even when the
            plan injects nothing.
        physics: a :class:`~repro.reliability.physics.PhysicsConfig`;
            the error engine is armed for the measured phase and its
            summary fills ``RunResult.physics``.  Needs
            ``config.track_history``.
        power_cuts: seconds after the measured phase starts at which
            power fails; each cut is recovered and the host resumes.
            Fills ``RunResult.recoveries`` (a cut after the workload
            ends never fires).  Closed-mode scenarios only.
        arbiter: QoS arbitration policy; with a tenant-tagged scenario
            it selects the QoS front-end (``tenants=`` defaults to
            ``"fifo"``).  Fills ``RunResult.tenants``.
        max_outstanding: QoS admission-gate in-flight bound.
        max_pending_admissions: optional QoS write-backlog bound.

    Returns:
        A :class:`RunResult` whose statistics and counters cover only
        the measured phase.
    """
    try:
        run = prepare_measured_run(
            ftl_name=ftl_name, scenario=scenario, tenants=tenants,
            config=config, max_events=max_events,
            warmup_span=warmup_span, tracer=tracer, faults=faults,
            physics=physics, power_cuts=power_cuts, arbiter=arbiter,
            max_outstanding=max_outstanding,
            max_pending_admissions=max_pending_admissions)
        recoveries = _drive(run, max_events)
        if tracer is not None and getattr(tracer, "enabled", True):
            tracer.finish()
            run.stats.metrics = tracer.metrics
    finally:
        # also after a failed run: an installed tracer still holds
        # the controller's and the FTL's hooks, which detach() restores
        if tracer is not None:
            tracer.detach()

    final = dict(run.ftl.counters())
    return RunResult(
        ftl_name=ftl_name,
        stats=run.stats,
        counters={key: final[key] - run.baseline.get(key, 0)
                  for key in final},
        events=run.sim.processed,
        logical_pages=run.ftl.logical_pages,
        physics=run.engine.summary() if run.engine is not None else None,
        tenants=_tenant_sections(run.host) if run.qos else None,
        recoveries=recoveries,
    )
