"""Per-shard worker: build or resume devices, serve, checkpoint.

A :class:`ShardTask` is the picklable unit the fleet service submits
to a process pool; :func:`run_shard` is the pool entry point.  Each
worker owns a contiguous device range (:mod:`repro.fleet.shard`),
round-robins its devices in bounded event quanta (so thousands of
devices advance fairly instead of serially), checkpoints unfinished
devices to a versioned snapshot file at every event-budget boundary,
and returns JSON-safe per-device results for fleet aggregation.

Determinism: devices are independent simulations, so neither the
round-robin interleaving nor process boundaries affect any outcome —
a shard run inline, on a pool, or killed and resumed produces the
same per-device fingerprints.

Supervision hooks (all default-off; the plain path is unchanged):

* ``observer`` — called once per device turn with ``(device_id,
  events, checkpoints)``; the supervised entry point uses it to emit
  liveness heartbeats.
* ``chaos`` — a :class:`~repro.fleet.chaos.ChaosRuntime` whose
  :meth:`on_advance` fires scheduled kills/hangs/device crashes.
* Failures while building, resuming or advancing one device raise a
  typed :class:`~repro.fleet.health.DeviceFailure` naming the device,
  so the supervisor can attribute the loss and quarantine a poison
  device; surviving devices are checkpointed first when a checkpoint
  directory is configured, so a retry re-does only the lost quantum.
* A torn or corrupt snapshot found during resume (host crashed
  mid-write before fsync durability, disk damage) is **rebuilt from
  scratch** instead of failing the shard — rebuilding is
  deterministic, so the result is byte-identical either way; the
  shard report counts it under ``"rebuilt"``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fleet.device import DeviceRun, DeviceSpec
from repro.fleet.health import DeviceFailure
from repro.fleet.snapshot import SnapshotFormatError

#: Default per-device event quantum for round-robin serving.
DEFAULT_QUANTUM = 4096

#: Per-turn progress callback: ``(device_id, events, checkpoints)``.
ShardObserver = Callable[[int, int, int], None]


def checkpoint_path(checkpoint_dir: "Path | str",
                    device_id: int) -> Path:
    """Canonical snapshot path of one device (stable across resumes)."""
    return Path(checkpoint_dir) / f"device-{device_id:06d}.snap"


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, as plain picklable data.

    Attributes:
        shard_index: which shard this is (labels and reports only).
        specs: the shard's device specs, in device-id order.
        checkpoint_dir: snapshot directory, or None to disable
            checkpointing entirely.
        resume: load existing snapshots instead of rebuilding.
        stop_after_events: stop each device after this many *measured*
            events and checkpoint it (deterministic mid-run stop — the
            kill/resume tests and the CI smoke job use it); None runs
            to completion.
        checkpoint_every: events between periodic checkpoints of a
            still-running device (crash durability); None checkpoints
            only at stop.
        quantum: round-robin event quantum per device per turn.
        fleet_hash: owning fleet spec's content hash; stamped into
            snapshot headers and verified on resume, so snapshots from
            a *different* fleet spec sharing the directory are refused
            instead of silently spliced in.
    """

    shard_index: int
    specs: Tuple[DeviceSpec, ...]
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    stop_after_events: Optional[int] = None
    checkpoint_every: Optional[int] = None
    quantum: int = DEFAULT_QUANTUM
    fleet_hash: Optional[str] = None


def _save(run: DeviceRun, task: ShardTask) -> None:
    """Checkpoint one run under the task's fleet-hash header."""
    extra = {"fleet_hash": task.fleet_hash} \
        if task.fleet_hash is not None else None
    run.save(checkpoint_path(task.checkpoint_dir,
                             run.spec.device_id),
             extra_header=extra)


def _build_runs(task: ShardTask) -> Tuple[List[DeviceRun], int, int]:
    """Build or resume every device; returns (runs, resumed, rebuilt)."""
    runs: List[DeviceRun] = []
    resumed = rebuilt = 0
    for spec in task.specs:
        run = None
        if task.resume and task.checkpoint_dir is not None:
            path = checkpoint_path(task.checkpoint_dir,
                                   spec.device_id)
            if path.exists():
                try:
                    run = DeviceRun.load(
                        path, expect_fleet_hash=task.fleet_hash)
                    resumed += 1
                except SnapshotFormatError:
                    # Torn/corrupt snapshot (host died mid-write):
                    # rebuilding from scratch is deterministic, so the
                    # device still lands on the oracle fingerprint.
                    rebuilt += 1
                    run = None
        if run is None:
            try:
                run = DeviceRun.build(spec)
            except Exception as exc:
                raise DeviceFailure(spec.device_id, exc) from exc
        runs.append(run)
    return runs, resumed, rebuilt


def run_shard(task: ShardTask,
              observer: Optional[ShardObserver] = None,
              chaos: Optional[Any] = None) -> Dict[str, Any]:
    """Serve one shard to completion (or its stop point).

    Returns ``{"shard": ..., "results": [...], "resumed": n,
    "rebuilt": n, "checkpoints": n}`` with one result dict per device,
    in device-id order.
    """
    if chaos is not None:
        chaos.install()
    runs, resumed, rebuilt = _build_runs(task)

    checkpoints = 0
    since_checkpoint = {run.spec.device_id: 0 for run in runs}
    stop = task.stop_after_events
    pending = [run for run in runs if not run.done
               and (stop is None or run.measured_events < stop)]
    while pending:
        still: List[DeviceRun] = []
        for run in pending:
            device_id = run.spec.device_id
            budget = task.quantum
            if stop is not None:
                budget = min(budget, stop - run.measured_events)
            try:
                if chaos is not None:
                    chaos.on_advance(device_id)
                processed = run.advance(budget)
            except DeviceFailure:
                self_failed = run
                if task.checkpoint_dir is not None:
                    # Preserve the healthy devices' progress so the
                    # retry re-does only this quantum.
                    for other in runs:
                        if other is not self_failed and not other.done:
                            try:
                                _save(other, task)
                            except Exception:
                                pass
                raise
            except Exception as exc:
                raise DeviceFailure(device_id, exc) from exc
            since_checkpoint[device_id] += processed
            live = not run.done and (stop is None
                                     or run.measured_events < stop)
            if live:
                still.append(run)
            if live and task.checkpoint_every is not None \
                    and task.checkpoint_dir is not None \
                    and since_checkpoint[device_id] \
                    >= task.checkpoint_every:
                _save(run, task)
                checkpoints += 1
                since_checkpoint[device_id] = 0
            if observer is not None:
                observer(device_id, run.sim.processed, checkpoints)
        pending = still

    results: List[Dict[str, Any]] = []
    for run in runs:
        if not run.done and task.checkpoint_dir is not None:
            _save(run, task)
            checkpoints += 1
        elif run.done and task.checkpoint_dir is not None:
            # A completed device's stale mid-run snapshot must not
            # survive: a later resume would silently replay it.
            stale = checkpoint_path(task.checkpoint_dir,
                                    run.spec.device_id)
            try:
                stale.unlink()
            except OSError:
                pass
        results.append(run.result())
    return {
        "shard": task.shard_index,
        "results": results,
        "resumed": resumed,
        "rebuilt": rebuilt,
        "checkpoints": checkpoints,
    }
