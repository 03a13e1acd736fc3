"""The benchmark's four closed-loop workloads.

Every workload drives the simulator through its public entry points
only, generates its inputs from the benchmark seed, and runs flexFTL.
One *repetition* builds a fresh system, warms it up, measures a fixed
amount of simulated work and checks the outcome; the runner repeats it
until the run's time budget is spent.  Because the work per repetition
is fixed, every simulated metric and the result fingerprint repeat
exactly across repetitions, processes and traced/untraced runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import qos_isolation
from repro.experiments import runner as rx
from repro.fleet import service as fleet_service
from repro.fleet.device import DeviceRun
from repro.metrics.latency import percentile
from repro.observability.tracer import Tracer
from repro.qos.host import MultiTenantHost
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.scenarios import presets
from repro.scenarios.base import scenario_from_spec, scenario_seed

#: The FTL every workload runs (the paper's design).
FTL = "flexFTL"

#: Public entry points the workloads call directly (the traced run
#: wraps more; see :func:`layers.entry_points`).
ENTRY_POINTS = (
    "repro.experiments.runner.ExperimentConfig",
    "repro.experiments.runner.build_system",
    "repro.experiments.runner.warmup_device",
    "repro.experiments.runner.begin_measured_phase",
    "repro.experiments.runner.scenario_host",
    "repro.experiments.qos_isolation.build_noisy_neighbor",
    "repro.scenarios.presets.make_preset",
    "repro.scenarios.base.scenario_seed",
    "repro.scenarios.base.scenario_from_spec",
    "repro.sim.kernel.Simulator.run",
    "repro.sim.controller.StorageController.attach_physics",
    "repro.sim.stats.SimStats.to_dict",
    "repro.sim.queues.WriteBuffer.is_empty",
    "repro.ftl.base.BaseFtl.counters",
    "repro.ftl.mapping.MappingTable.lookup",
    "repro.ftl.mapping.MappingTable.lpn_of",
    "repro.nand.array.NandArray.is_programmed",
    "repro.nand.array.NandArray.total_reads",
    "repro.reliability.physics.PhysicsConfig",
    "repro.reliability.physics.PhysicsEngine.summary",
    "repro.qos.host.MultiTenantHost",
    "repro.qos.slo.SloAccountant.summary",
    "repro.observability.tracer.Tracer",
    "repro.fleet.service.FleetSpec.device_specs",
    "repro.fleet.service.run_fleet",
    "repro.fleet.device.DeviceRun.build",
    "repro.fleet.device.DeviceRun.run_to_completion",
    "repro.fleet.device.DeviceRun.fingerprint",
    "repro.fleet.aggregate.FleetReport.totals",
    "repro.fleet.aggregate.FleetReport.fingerprint",
    "repro.metrics.latency.percentile",
)


class GateError(AssertionError):
    """A repetition's outputs failed the correctness gate."""


@dataclasses.dataclass
class Rep:
    """One measured repetition of a workload."""

    setup_s: float
    measured_s: float
    #: wall time from the start of set-up to the end of the measured
    #: phase (the span a traced run's root covers)
    wall_s: float
    #: device lifecycles (build + warm-up + measured phase) per second
    devices_per_s: float
    attempted: int
    completed: int
    failed: int
    fingerprint: str
    #: simulated end-to-end metrics (exactly repeatable)
    sim: Dict[str, float]
    #: program counters for the per-layer table
    counts: Dict[str, float]

    @property
    def host_ops_per_s(self) -> float:
        return self.completed / self.measured_s


def digest(surface: Dict[str, Any]) -> str:
    """SHA-256 of a result surface's canonical JSON."""
    text = json.dumps(surface, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _latency_metrics(reads: List[float], writes: List[float]
                     ) -> Dict[str, float]:
    # Means, not medians: on the fleet's small devices most requests
    # are write-buffer hits, so their median latency is exactly 0.
    return {
        "sim_read_mean_us": sum(reads) / len(reads) * 1e6,
        "sim_read_p99_us": percentile(reads, 0.99) * 1e6,
        "sim_write_mean_us": sum(writes) / len(writes) * 1e6,
        "sim_write_p99_us": percentile(writes, 0.99) * 1e6,
    }


def _waf(counters: Dict[str, int]) -> float:
    relocated = (counters["host_programs"] + counters["gc_programs"]
                 + counters["backup_programs"])
    return relocated / counters["host_programs"]


def _check_mapping(ftl, array, buffer, footprint: int) -> None:
    """Every logical page of the footprint maps to a programmed page."""
    if not buffer.is_empty:
        raise GateError(f"{len(buffer)} writes still buffered at the end")
    mapping = ftl.mapping
    geometry = array.geometry
    for lpn in range(footprint):
        ppn = mapping.lookup(lpn)
        if ppn is None:
            raise GateError(f"lpn {lpn} lost its mapping")
        if mapping.lpn_of(ppn) != lpn:
            raise GateError(f"lpn {lpn} -> ppn {ppn} is not mapped back")
        if not array.is_programmed(geometry.address_of(ppn)):
            raise GateError(f"lpn {lpn} maps to unprogrammed ppn {ppn}")


# ----------------------------------------------------------------------
# single-device workloads


@dataclasses.dataclass(frozen=True)
class SingleDevice:
    """A workload on one device of :data:`EXPERIMENT_GEOMETRY`."""

    name: str
    why: str
    #: measured host ops per repetition
    ops: int
    #: footprint as a share of the FTL's logical space
    utilization: float
    #: scenario preset, or None for the victim+noisy tenant pair
    preset: Optional[str]
    #: (P/E cycles, retention hours) of the physics engine, or None
    physics: Optional[tuple] = None
    #: install the repo's Tracer with this ring capacity (0 = no tracer)
    tracer_ring: int = 0

    def config(self) -> rx.ExperimentConfig:
        # The physics engine primes aggressor counts from the blocks'
        # program histories, so only the physics workload keeps them.
        return rx.ExperimentConfig(track_history=self.physics is not None)

    def run(self, seed: int, scale: float = 1.0, *,
            verify: bool = True, tracer_enabled: bool = True,
            probe: Optional[Callable[[str], None]] = None) -> Rep:
        """One repetition: build, warm up, measure, check.

        ``verify`` adds the data-integrity check (every logical page
        still mapped); the op accounting is checked on every call.
        ``probe`` (traced runs only) is called with ``"start"`` before
        the build and ``"end"`` after the measured phase.
        """
        ops = max(200, int(self.ops * scale))
        config = self.config()
        if probe is not None:
            probe("start")
        t0 = time.perf_counter()
        sim, array, buffer, ftl, controller = rx.build_system(FTL, config)
        span = int(ftl.logical_pages * self.utilization)
        tracer = None
        if self.tracer_ring:
            tracer = Tracer(capacity=self.tracer_ring,
                            enabled=tracer_enabled)
            tracer.install(controller)
            if tracer.enabled:
                tracer.begin_phase("warmup")
        if self.preset is None:
            tenants = qos_isolation.build_noisy_neighbor(span, ops, seed)
            expected = sum(len(stream) for spec in tenants
                           for stream in spec.streams)
            footprint = max(op.lpn + op.npages for spec in tenants
                            for stream in spec.streams for op in stream)
            scenario = None
        else:
            scenario = presets.make_preset(self.preset, span, ops,
                                           seed=seed)
            expected = scenario.total_ops
            footprint = scenario.footprint
        rx.warmup_device(sim, controller, ftl, config, footprint=footprint)
        warmup_events = sim.processed
        reads_base = array.total_reads
        baseline, stats = rx.begin_measured_phase(controller, ftl, config)
        engine = None
        if self.physics is not None:
            pe, hours = self.physics
            engine = PhysicsEngine(PhysicsConfig(
                seed=scenario_seed(seed, "physics"), pe_baseline=pe,
                retention_baseline_hours=hours))
            controller.attach_physics(engine)
            ftl.fault_stats = stats.faults
        if scenario is None:
            host = MultiTenantHost(sim, controller, tenants, arbiter="drr",
                                   max_outstanding=8)
            if tracer is not None:
                tracer.attach_qos(host)
        else:
            host = rx.scenario_host(sim, controller, scenario)
        if tracer is not None and tracer.enabled:
            tracer.begin_phase("measured")
        host.start()
        t1 = time.perf_counter()
        sim.run()
        t2 = time.perf_counter()
        if probe is not None:
            probe("end")
        if tracer is not None and tracer.enabled:
            tracer.finish()
            stats.metrics = tracer.metrics
            tracer.detach()

        final = dict(ftl.counters())
        counters = {key: final[key] - baseline.get(key, 0)
                    for key in final}
        faults = stats.faults
        rejected = faults.writes_rejected if faults else 0
        failed = rejected + (faults.lost_pages + faults.lost_inflight_writes
                             if faults else 0)
        attempted = host.issued
        if attempted != expected:
            raise GateError(f"{self.name}: issued {attempted} of "
                            f"{expected} generated ops")
        if stats.completed_requests + rejected != attempted:
            raise GateError(
                f"{self.name}: {attempted} ops attempted but "
                f"{stats.completed_requests} completed and {rejected} "
                f"rejected")
        if verify:
            _check_mapping(ftl, array, buffer, footprint)

        physics = engine.summary() if engine is not None else None
        surface: Dict[str, Any] = {
            "stats": stats.to_dict(),
            "counters": counters,
            "events": sim.processed,
            "physics": physics,
        }
        tenant_summary = None
        if scenario is None:
            tenant_summary = host.accountant.summary()
            surface["tenants"] = tenant_summary
        sim_metrics = {"sim_iops": stats.iops(),
                       "erases": float(counters["erases"]),
                       "waf": _waf(counters)}
        sim_metrics.update(_latency_metrics(stats.read_latencies,
                                            stats.write_latencies))
        counts = _single_counts(counters, stats, sim.processed,
                                warmup_events, physics, tenant_summary,
                                tracer)
        counts["scenarios.ops_generated"] = float(expected)
        counts["nand.reads"] = float(array.total_reads - reads_base)
        return Rep(setup_s=t1 - t0, measured_s=t2 - t1, wall_s=t2 - t0,
                   devices_per_s=1.0 / (t2 - t0), attempted=attempted,
                   completed=stats.completed_requests, failed=failed,
                   fingerprint=digest(surface), sim=sim_metrics,
                   counts=counts)


def _program_counts(counters: Dict[str, int], warmup_events: int,
                    measured_events: int, completed: int
                    ) -> Dict[str, float]:
    """Per-layer counts every workload reports, from FTL/NAND counter
    deltas and the kernel's event counts."""
    counts: Dict[str, float] = {
        "experiments.warmup_events": float(warmup_events),
        "sim.events": float(measured_events),
        "sim.events_per_op": measured_events / completed,
        "nand.lsb_programs": float(counters["lsb_programs"]),
        "nand.msb_programs": float(counters["msb_programs"]),
        "nand.erases": float(counters["erases"]),
    }
    for key in ("host_programs", "gc_programs", "backup_programs",
                "foreground_gcs", "background_gcs"):
        counts[f"ftl.{key}"] = float(counters[key])
    return counts


def _single_counts(counters, stats, events, warmup_events, physics,
                   tenants, tracer) -> Dict[str, float]:
    counts = _program_counts(counters, warmup_events,
                             events - warmup_events,
                             stats.completed_requests)
    if physics is not None:
        errors = physics["read_errors"]
        recovered = physics["shift_recoveries"] + physics["ecc_recoveries"]
        counts.update({
            "reliability.reads_sampled": float(physics["reads_sampled"]),
            "reliability.read_errors": float(errors),
            "reliability.shift_retries": float(physics["shift_retries"]),
            "reliability.ecc_escalations":
                float(physics["ecc_escalations"]),
            "reliability.recovered_ratio":
                recovered / errors if errors else 0.0,
            "reliability.ladder_reads": float(stats.faults.ladder_reads),
            "reliability.mean_ber": float(physics["mean_ber"]),
        })
    if tenants is not None:
        victim = tenants["victim"]
        counts["qos.victim_read_p99_us"] = \
            victim["read_latency"]["p99"] * 1e6
        counts["qos.victim_write_p99_us"] = \
            victim["write_latency"]["p99"] * 1e6
    if tracer is not None and tracer.enabled:
        counts["observability.ops_captured"] = \
            float(tracer.op_count + tracer.dropped_ops)
        counts["observability.dropped_ops"] = float(tracer.dropped_ops)
    return counts


# ----------------------------------------------------------------------
# the fleet workload


@dataclasses.dataclass(frozen=True)
class Fleet:
    """``run_fleet`` over many small devices, served inline (jobs=1)."""

    name: str
    why: str
    devices: int
    preset: str

    def spec(self, seed: int, scale: float = 1.0):
        devices = max(2, int(self.devices * scale))
        return fleet_service.FleetSpec(devices=devices, preset=self.preset,
                                       seed=seed)

    def run(self, seed: int, scale: float = 1.0, *,
            verify: bool = True, tracer_enabled: bool = True,
            probe: Optional[Callable[[str], None]] = None) -> Rep:
        """One repetition: serve the fleet and time the set-up of its
        devices; ``verify`` also re-runs every device standalone
        against the fleet's report (and yields the latency metrics)."""
        fleet = self.spec(seed, scale)
        if probe is not None:
            probe("start")
        t0 = time.perf_counter()
        served = fleet_service.run_fleet(fleet, jobs=1)
        t1 = time.perf_counter()
        if probe is not None:
            probe("end")
        report = served.report
        totals = report.totals()

        # Building every device (what run_fleet does before serving its
        # first op) is the fleet's set-up, timed on its own.
        specs = fleet.device_specs()
        b0 = time.perf_counter()
        runs = [DeviceRun.build(spec) for spec in specs]
        setup_s = time.perf_counter() - b0

        by_id = {r["device_id"]: r for r in report.device_results}
        ops = {spec.device_id: scenario_from_spec(spec.scenario).total_ops
               for spec in specs}
        expected = sum(ops.values())
        # a quarantined or unfinished device failed every one of its ops
        failed = sum(n for device_id, n in ops.items()
                     if not by_id.get(device_id, {}).get("completed"))
        completed = totals["completed_requests"]
        if completed + failed != expected:
            raise GateError(f"{self.name}: {expected} ops attempted but "
                            f"{completed} completed and {failed} failed")
        sim_metrics = {"sim_iops": float(totals["iops_sum"]),
                       "erases": float(totals["erases_total"]),
                       "waf": float(totals["write_amplification"])}
        measured_events = sum(r["measured_events"]
                              for r in report.device_results)
        counts = _program_counts(totals["counters"],
                                 totals["events"] - measured_events,
                                 measured_events, completed)
        counts.update({"fleet.devices": float(fleet.devices),
                       "scenarios.ops_generated": float(expected)})
        if verify:
            reads, writes, nand_reads = self._verify(runs, by_id)
            sim_metrics.update(_latency_metrics(reads, writes))
            counts["nand.reads"] = float(nand_reads)
        wall = t1 - t0
        return Rep(setup_s=setup_s, measured_s=wall, wall_s=wall,
                   devices_per_s=fleet.devices / wall, attempted=expected,
                   completed=completed, failed=failed,
                   fingerprint=digest({"fleet": report.fingerprint(),
                                       "totals": totals}),
                   sim=sim_metrics, counts=counts)

    def _verify(self, runs: List[DeviceRun], by_id: Dict[int, Dict]
                ) -> Tuple[List[float], List[float], int]:
        """Each device run on its own must land on the fingerprint the
        fleet reported; returns the pooled latencies and NAND reads."""
        reads: List[float] = []
        writes: List[float] = []
        nand_reads = 0
        for run in runs:
            result = by_id.get(run.spec.device_id)
            if result is None or not result["completed"]:
                continue
            reads_base = run.array.total_reads
            run.run_to_completion()
            nand_reads += run.array.total_reads - reads_base
            if result["fingerprint"] != run.fingerprint():
                raise GateError(f"{self.name}: device {run.spec.device_id}"
                                f" differs from its fleet result")
            reads.extend(run.controller.stats.read_latencies)
            writes.extend(run.controller.stats.write_latencies)
        return reads, writes, nand_reads


WORKLOADS: Dict[str, Any] = {
    "ntrx_write": SingleDevice(
        name="ntrx_write",
        why=("paper Fig. 8 write path: NTRX 3:7 mix, 16 streams; FTL "
             "allocation, GC, parity backup and NAND programs dominate"),
        ops=48000, utilization=0.75, preset="ntrx"),
    "worn_read_physics": SingleDevice(
        name="worn_read_physics",
        why=("read-heavy OLTP 7:3 with the physics engine at P/E 6000 "
             "and 1 year retention: read path, BER sampling and the "
             "retry ladder under load"),
        ops=40000, utilization=0.75, preset="oltp",
        physics=(6000, 8760.0)),
    "tenant_traced": SingleDevice(
        name="tenant_traced",
        why=("victim+noisy tenants behind the DRR arbiter with the "
             "Tracer on a bounded ring: QoS arbitration and trace "
             "capture run only here"),
        ops=16000, utilization=0.7, preset=None,
        tracer_ring=4096),
    "fleet_serve": Fleet(
        name="fleet_serve",
        why=("run_fleet over 64 OLTP devices with jobs=1: per-device "
             "assembly, warm-up and fleet aggregation weigh heavily"),
        devices=64, preset="oltp"),
}
