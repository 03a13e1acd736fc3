"""One fleet device: spec, live run, checkpointing and fingerprints.

A :class:`DeviceSpec` is the declarative, JSON-safe description of one
simulated SSD and its workload — the fleet analogue of an engine
:class:`~repro.experiments.engine.Cell`: shippable to a worker
process, hashable for content-addressed memoization, and sufficient to
rebuild the run from scratch.

A :class:`DeviceRun` is the live system built from a spec: kernel,
NAND array, FTL, controller and host, preconditioned and positioned at
the start of its measured phase.  It advances in bounded event quanta
(so a worker can round-robin a shard), snapshots itself to a versioned
file at any event boundary (:mod:`repro.fleet.snapshot`), and resumes
byte-identically: the whole object graph pickles in one piece, so the
kernel's pending events, the host's in-flight completion callbacks and
the FTL's references into the array all survive with identity intact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.runner import (
    ExperimentConfig,
    check_ftl,
    prepare_measured_run,
)
from repro.fleet.snapshot import (
    SnapshotError,
    SnapshotMismatchError,
    read_snapshot,
    read_snapshot_header,
    write_snapshot,
)


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Declarative description of one simulated device.

    Attributes:
        device_id: fleet-wide device index (also the per-device
            scenario reseed coordinate).
        ftl_name: an :data:`~repro.experiments.runner.FTL_REGISTRY`
            key.
        scenario: the workload's JSON-safe scenario spec (see
            :meth:`repro.scenarios.base.Scenario.spec`).
        config: system configuration (geometry, timing, ...).
        arbiter: QoS arbitration policy name; when set and the
            scenario carries tenant bindings, the device runs behind
            the multi-tenant submission-queue front-end.
        max_outstanding: QoS admission-gate bound (ignored without an
            arbiter).
    """

    device_id: int
    ftl_name: str
    scenario: Dict[str, Any]
    config: ExperimentConfig = ExperimentConfig()
    arbiter: Optional[str] = None
    max_outstanding: Optional[int] = 8

    def __post_init__(self) -> None:
        check_ftl(self.ftl_name, self.config)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot, invertible via :meth:`from_dict`."""
        return {
            "device_id": self.device_id,
            "ftl_name": self.ftl_name,
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "arbiter": self.arbiter,
            "max_outstanding": self.max_outstanding,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeviceSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            device_id=int(data["device_id"]),
            ftl_name=str(data["ftl_name"]),
            scenario=dict(data["scenario"]),
            config=ExperimentConfig.from_dict(data["config"]),
            arbiter=(None if data.get("arbiter") is None
                     else str(data["arbiter"])),
            max_outstanding=(None if data.get("max_outstanding") is None
                             else int(data["max_outstanding"])),
        )

    def cache_key(self) -> str:
        """Content hash for fleet-level result memoization.

        Hashes the full spec plus the package and schema versions —
        same invalidation rules as an engine cell key.
        """
        from repro import __version__
        from repro.experiments.engine import SCHEMA_VERSION
        spec = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "kind": "fleet_device",
            "spec": self.to_dict(),
        }
        text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DeviceRun:
    """A live simulated device positioned in its measured phase.

    Build one with :meth:`build` (fresh) or :meth:`load` (from a
    snapshot); drive it with :meth:`advance`; read it out with
    :meth:`result` once :attr:`done`.
    """

    def __init__(self, spec: DeviceSpec, sim, array, buffer, ftl,
                 controller, host, baseline: Dict[str, int],
                 qos: bool) -> None:
        self.spec = spec
        self.sim = sim
        self.array = array
        self.buffer = buffer
        self.ftl = ftl
        self.controller = controller
        self.host = host
        self.baseline = baseline
        self.qos = qos
        #: events already processed when the measured phase began;
        #: measured_events counts from here.
        self.measured_start = sim.processed

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, spec: DeviceSpec) -> "DeviceRun":
        """Build, precondition and start a device from its spec.

        The same pipeline as
        :func:`~repro.experiments.runner.run_workload`, stopped where
        the measured phase begins.
        """
        run = prepare_measured_run(
            ftl_name=spec.ftl_name, scenario=spec.scenario,
            config=spec.config, arbiter=spec.arbiter,
            max_outstanding=spec.max_outstanding)
        return cls(spec, run.sim, run.array, run.buffer, run.ftl,
                   run.controller, run.host, run.baseline, run.qos)

    # ------------------------------------------------------------------
    # driving

    @property
    def done(self) -> bool:
        """Whether the event queue has drained (run complete)."""
        return self.sim.peek_time() is None

    @property
    def measured_events(self) -> int:
        """Events processed since the measured phase began."""
        return self.sim.processed - self.measured_start

    def advance(self, max_events: int) -> int:
        """Process up to ``max_events`` events; returns the number run."""
        before = self.sim.processed
        self.sim.run(max_events=max_events)
        return self.sim.processed - before

    def run_to_completion(self) -> None:
        """Drain the event queue."""
        self.sim.run()

    # ------------------------------------------------------------------
    # checkpointing

    def snapshot_header(self) -> Dict[str, Any]:
        """The context fields recorded alongside the pickled state."""
        return {
            "kind": "device_run",
            "ftl_name": self.spec.ftl_name,
            "device_id": self.spec.device_id,
            "sim_now": repr(self.sim.now),
            "events": self.sim.processed,
        }

    def save(self, path: "Path | str",
             extra_header: Optional[Dict[str, Any]] = None
             ) -> Dict[str, Any]:
        """Checkpoint the full run state to ``path`` (crash-safe).

        ``extra_header`` entries (e.g. the owning fleet's spec hash)
        are merged into the snapshot header for resume-time checks.
        """
        if self.controller._trace is not None:
            raise SnapshotError(
                "cannot snapshot a device while a tracer (or OpLog) is "
                "installed: its capture state is not part of a "
                "device's checkpoint.  Detach the tracer (or trace "
                "only untraced fleet runs) and retry.")
        header = self.snapshot_header()
        if extra_header:
            header.update(extra_header)
        return write_snapshot(path, self, header)

    @classmethod
    def load(cls, path: "Path | str",
             expect_fleet_hash: Optional[str] = None
             ) -> "DeviceRun":
        """Resume a device from a snapshot file.

        ``expect_fleet_hash`` pins the owning
        :class:`~repro.fleet.service.FleetSpec`'s content hash:
        snapshot paths are named only by device id, so two different
        fleets sharing a checkpoint directory would otherwise silently
        splice each other's devices in.  A snapshot written without a
        fleet hash (direct ``save()`` callers) is accepted.
        """
        header, run = read_snapshot(path)
        if header.get("kind") != "device_run" \
                or not isinstance(run, cls):
            raise SnapshotError(
                f"{path} is a valid snapshot but not a device run "
                f"(kind={header.get('kind')!r})")
        written_for = header.get("fleet_hash")
        if expect_fleet_hash is not None and written_for is not None \
                and written_for != expect_fleet_hash:
            raise SnapshotMismatchError(
                f"{path} was checkpointed for a different fleet spec "
                f"(fleet hash {written_for[:12]}… != expected "
                f"{expect_fleet_hash[:12]}…); resuming it here would "
                f"splice a foreign device into this fleet.  Point "
                f"--checkpoint-dir at this fleet's own directory.")
        return run

    @staticmethod
    def peek(path: "Path | str") -> Dict[str, Any]:
        """A snapshot's header without loading any state."""
        return read_snapshot_header(path)

    # ------------------------------------------------------------------
    # results

    def result(self) -> Dict[str, Any]:
        """Measured-phase outcome as a JSON-safe dict.

        Mirrors :class:`~repro.experiments.runner.RunResult` (stats,
        counter deltas, events) plus the device identity, completion
        flag, a lifetime proxy (block erases), and — for QoS-fronted
        devices — per-tenant SLO summaries.
        """
        final = dict(self.ftl.counters())
        deltas = {key: final[key] - self.baseline.get(key, 0)
                  for key in final}
        stats = self.controller.stats
        host_programs = deltas.get("host_programs", 0)
        total_programs = (host_programs
                          + deltas.get("gc_programs", 0)
                          + deltas.get("backup_programs", 0))
        out: Dict[str, Any] = {
            "device_id": self.spec.device_id,
            "ftl_name": self.spec.ftl_name,
            "completed": self.done,
            "events": self.sim.processed,
            "measured_events": self.measured_events,
            "sim_now": repr(self.sim.now),
            "elapsed": stats.elapsed,
            "completed_requests": stats.completed_requests,
            "iops": (stats.iops() if stats.completed_requests
                     and stats.elapsed > 0.0 else None),
            "counters": deltas,
            "erases": deltas.get("erases", 0),
            "write_amplification": (total_programs / host_programs
                                    if host_programs else None),
            "fingerprint": self.fingerprint(),
        }
        if self.qos:
            out["tenants"] = {
                name: _tenant_projection(summary)
                for name, summary in
                self.host.accountant.summary().items()
            }
        else:
            out["tenants"] = {}
        return out

    def fingerprint(self) -> str:
        """SHA-256 over the device's full measured trace surface.

        Canonical JSON of the measured SimStats, FTL counter deltas,
        clock, event count and erase totals — any behavioural
        divergence between two runs lands in at least one of these, so
        equal fingerprints mean byte-identical runs for every metric
        the fleet reports.
        """
        final = dict(self.ftl.counters())
        deltas = {key: final[key] - self.baseline.get(key, 0)
                  for key in final}
        surface = {
            "stats": self.controller.stats.to_dict(),
            "counters": deltas,
            "now": repr(self.sim.now),
            "events": self.sim.processed,
            "total_erases": self.array.total_erases,
        }
        text = json.dumps(surface, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tenant_projection(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The fleet-aggregable slice of one tenant's SLO summary."""
    read = summary.get("read_latency") or {}
    write = summary.get("write_latency") or {}
    return {
        "reads": summary.get("completed_reads", 0),
        "writes": summary.get("completed_writes", 0),
        "read_violations": summary.get("read_violations", 0),
        "write_violations": summary.get("write_violations", 0),
        "read_p99": read.get("p99"),
        "write_p99": write.get("p99"),
    }


def device_scenario_spec(base_spec: Dict[str, Any], fleet_seed: int,
                         device_id: int) -> Dict[str, Any]:
    """Per-device variant of a shared scenario spec.

    Re-seeds generator scenarios per device (stable across processes:
    :func:`~repro.scenarios.base.scenario_seed` over the fleet seed
    and device id), so a thousand devices running the same preset see
    a thousand distinct — but individually reproducible — workloads.
    Specs without a seed field (e.g. literal stream lists) are shared
    verbatim.
    """
    from repro.scenarios.base import scenario_seed
    spec = dict(base_spec)
    if "seed" in spec:
        spec["seed"] = scenario_seed(fleet_seed, "device", device_id)
    return spec
