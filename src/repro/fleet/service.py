"""The fleet service: shard, serve, checkpoint, resume, aggregate.

:func:`run_fleet` is the engine behind ``repro serve``: it derives one
:class:`~repro.fleet.device.DeviceSpec` per device from a
:class:`FleetSpec` (per-device reseeded scenarios, optional tenant
bindings), shards them across worker processes
(:mod:`repro.fleet.shard` / :mod:`repro.fleet.worker`), and merges the
per-device results into a :class:`~repro.fleet.aggregate.FleetReport`.

Completed-device results are memoised in the engine's
content-addressed :class:`~repro.experiments.engine.ResultCache`
(kind ``fleet_device``), so re-serving an unchanged fleet — or growing
it — replays finished devices instantly.  Partial (checkpointed)
results are never cached.

Determinism contract: ``jobs=1`` and ``jobs=N`` produce identical
reports, and a fleet stopped mid-run (``stop_after_events``), killed,
and resumed (``resume=True``) produces a report byte-identical to the
uninterrupted run — per-device snapshots restore the full simulator
state (see :mod:`repro.fleet.snapshot`).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.engine import ResultCache
from repro.experiments.runner import (
    ExperimentConfig,
    build_system,
)
from repro.fleet.aggregate import FleetReport
from repro.fleet.chaos import ChaosPlan
from repro.fleet.device import DeviceSpec, device_scenario_spec
from repro.fleet.health import SupervisionPolicy
from repro.fleet.shard import shard_ranges
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.worker import DEFAULT_QUANTUM, ShardTask, run_shard
from repro.nand.geometry import NandGeometry
from repro.scenarios.base import TenantBinding
from repro.scenarios.presets import make_preset
from repro.sim._native import active_core

#: Default per-device geometry for fleet serving: 2 channels x 1 chip,
#: 16 blocks of 16 pages — small enough that thousands of devices
#: build and warm up in seconds, structured enough that GC, the 2PO
#: machinery and QoS arbitration all engage.
FLEET_GEOMETRY = NandGeometry(
    channels=2,
    chips_per_channel=1,
    blocks_per_chip=16,
    pages_per_block=16,
    page_size=4096,
)


def fleet_config() -> ExperimentConfig:
    """The default per-device configuration for fleet serving."""
    return ExperimentConfig(geometry=FLEET_GEOMETRY, track_history=False)


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """Declarative description of one whole fleet.

    Attributes:
        devices: simulated device count.
        ftl_name: FTL every device runs.
        preset: workload preset name
            (:data:`repro.scenarios.presets.PRESETS`).
        ops_per_device: measured ops per device (before per-phase
            splitting).
        footprint: logical pages each device's workload touches; None
            sizes it to 60% of the FTL's logical space.
        tenants: tenant count; 0 serves untenanted traffic, >0 binds
            the preset's streams onto ``tenant0..tenantN-1`` and runs
            every device behind the QoS submission-queue front-end.
        arbiter: QoS arbitration policy for tenanted fleets.
        seed: fleet base seed; device ``i`` reseeds its scenario with
            ``scenario_seed(seed, "device", i)``.
        config: per-device system configuration.
    """

    devices: int = 64
    ftl_name: str = "flexFTL"
    preset: str = "oltp"
    ops_per_device: int = 400
    footprint: Optional[int] = None
    tenants: int = 0
    arbiter: str = "wrr"
    seed: int = 1
    config: ExperimentConfig = dataclasses.field(
        default_factory=fleet_config)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the fleet parameters."""
        out = dataclasses.asdict(self)
        out["config"] = self.config.to_dict()
        return out

    def content_hash(self) -> str:
        """Digest of the full fleet parameterisation.

        Stamped into every device snapshot header and verified on
        resume: a checkpoint directory left over from a *different*
        fleet spec is refused (typed
        :class:`~repro.fleet.snapshot.SnapshotMismatchError`) instead
        of silently splicing stale state into the report.
        """
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def resolved_footprint(self) -> int:
        """The per-device workload footprint (derived when unset)."""
        if self.footprint is not None:
            return self.footprint
        _sim, _array, _buffer, ftl, _controller = build_system(
            self.ftl_name, self.config)
        return max(1, int(ftl.logical_pages * 0.6))

    def base_scenario_spec(self) -> Dict[str, Any]:
        """The shared scenario spec devices derive theirs from."""
        scenario = make_preset(self.preset,
                               footprint=self.resolved_footprint(),
                               total_ops=self.ops_per_device,
                               seed=self.seed)
        spec = scenario.spec()
        if self.tenants > 0:
            streams = int(spec["streams"])
            if streams < self.tenants:
                raise ValueError(
                    f"preset {self.preset!r} generates {streams} "
                    f"streams; cannot bind {self.tenants} tenants")
            base, extra = divmod(streams, self.tenants)
            spec["tenants"] = [
                TenantBinding(
                    name=f"tenant{index}",
                    streams=base + (1 if index < extra else 0),
                ).to_dict()
                for index in range(self.tenants)
            ]
        return spec

    def device_specs(self) -> List[DeviceSpec]:
        """One :class:`DeviceSpec` per device, in device-id order."""
        base = self.base_scenario_spec()
        arbiter = self.arbiter if self.tenants > 0 else None
        return [
            DeviceSpec(
                device_id=device_id,
                ftl_name=self.ftl_name,
                scenario=device_scenario_spec(base, self.seed,
                                              device_id),
                config=self.config,
                arbiter=arbiter,
            )
            for device_id in range(self.devices)
        ]


@dataclasses.dataclass
class FleetServeResult:
    """One fleet pass: the aggregate report plus serving metadata."""

    report: FleetReport
    workers: int
    resumed: int
    checkpoints: int
    cache_hits: int
    rebuilt: int = 0
    supervised: bool = False

    def to_dict(self) -> Dict[str, Any]:
        out = self.report.to_dict()
        out["service"] = {
            "workers": self.workers,
            "resumed_devices": self.resumed,
            "checkpoints_written": self.checkpoints,
            "cache_hits": self.cache_hits,
            "rebuilt_devices": self.rebuilt,
            "supervised": self.supervised,
            "core": active_core(),
        }
        return out

    def render(self) -> str:
        lines = [self.report.render()]
        extra = f" · {self.rebuilt} rebuilt" if self.rebuilt else ""
        lines.append(
            f"  service            {self.workers} workers · "
            f"{self.resumed} resumed · {self.checkpoints} "
            f"checkpoints · {self.cache_hits} cache hits{extra}")
        return "\n".join(lines)


def run_fleet(
    fleet: FleetSpec,
    *,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    stop_after_events: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    quantum: int = DEFAULT_QUANTUM,
    cache: Optional[ResultCache] = None,
    supervise: Optional[SupervisionPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
) -> FleetServeResult:
    """Serve one fleet pass and aggregate its results.

    Args:
        fleet: the fleet description.
        jobs: worker processes (1 = run shards inline).
        checkpoint_dir: snapshot directory; required for ``resume``
            and for any checkpointing.
        resume: load per-device snapshots found in ``checkpoint_dir``
            instead of rebuilding those devices.
        stop_after_events: deterministic mid-run stop — each device
            halts and checkpoints after this many measured events
            (the kill/resume drill).  None serves to completion.
        checkpoint_every: periodic checkpoint interval in events.
        quantum: per-device round-robin event quantum.
        cache: completed-device result cache (None disables
            memoization).
        supervise: run shards under the fleet supervisor
            (:mod:`repro.fleet.supervisor`) with this policy —
            heartbeat liveness, deadlines, deterministic-backoff
            retries, poison-device quarantine and the fleet circuit
            breaker.  None (default) keeps the plain pool path,
            byte-identical to previous releases.
        chaos: deterministic fault-injection plan; requires
            ``supervise`` (the plan kills workers — someone must be
            watching).
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs a checkpoint_dir")
    if chaos is not None and chaos.enabled and supervise is None:
        raise ValueError(
            "a chaos plan needs supervise= — injected kills and "
            "hangs are only recoverable under the supervisor")
    specs = fleet.device_specs()

    # Fleet-level memoization: completed devices replay from the
    # content-addressed cache; a partial pass must not consult it
    # (cached results are full runs).
    cache_hits = 0
    cached_results: List[Dict[str, Any]] = []
    pending_specs: List[DeviceSpec] = []
    use_cache = cache is not None and stop_after_events is None
    if use_cache:
        for spec in specs:
            encoded = cache.get(spec.cache_key())
            if encoded is not None and encoded.get("completed"):
                cached_results.append(encoded)
                cache_hits += 1
            else:
                pending_specs.append(spec)
    else:
        pending_specs = list(specs)

    workers = max(1, jobs)
    fleet_hash = fleet.content_hash() \
        if checkpoint_dir is not None else None
    tasks = [
        ShardTask(
            shard_index=index,
            specs=tuple(pending_specs[start:stop]),
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            stop_after_events=stop_after_events,
            checkpoint_every=checkpoint_every,
            quantum=quantum,
            fleet_hash=fleet_hash,
        )
        for index, (start, stop) in enumerate(
            shard_ranges(len(pending_specs), workers))
    ]

    health = None
    quarantined: List[Dict[str, Any]] = []
    reports: List[Dict[str, Any]] = []
    if supervise is not None:
        supervisor = FleetSupervisor(tasks, supervise,
                                     seed=fleet.seed, chaos=chaos)
        reports, fleet_health, quarantined = supervisor.run()
        health = fleet_health.to_dict()
    elif workers == 1 or len(tasks) <= 1:
        for task in tasks:
            reports.append(run_shard(task))
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(tasks)) as pool:
            futures = [pool.submit(run_shard, task) for task in tasks]
            for future in futures:
                reports.append(future.result())

    device_results = list(cached_results)
    resumed = checkpoints = rebuilt = 0
    for shard_report in reports:
        resumed += shard_report["resumed"]
        checkpoints += shard_report["checkpoints"]
        rebuilt += shard_report.get("rebuilt", 0)
        for result in shard_report["results"]:
            device_results.append(result)
            if use_cache and result["completed"]:
                key = specs[result["device_id"]].cache_key()
                cache.put(key, "fleet_device", result)

    report = FleetReport(device_results, health=health,
                         quarantined=quarantined)
    return FleetServeResult(report=report, workers=len(tasks) or 1,
                            resumed=resumed, checkpoints=checkpoints,
                            cache_hits=cache_hits, rebuilt=rebuilt,
                            supervised=supervise is not None)
