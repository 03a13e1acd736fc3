"""Measurement core: untraced end-to-end runs and the traced layer run.

An untraced run repeats one workload's repetition (fresh system each
time) within its time budget and reports medians, so one slow
repetition does not move a result.  Its first repetition is a warm-up
that only the correctness checks use.  After each repetition it times
a block of the fixed reference loop of :mod:`rpsbench.reference`, and
it reports host throughput per reference unit, which cancels the
host's own swings in speed.  A traced run first times a few untraced
reference repetitions, then installs the layer wrappers and times one
more repetition; the wrappers never run in a process that reports
end-to-end numbers.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from rpsbench import layers
from rpsbench.reference import ReferenceClock
from rpsbench.workloads import WORKLOADS, ENTRY_POINTS, GateError, Rep

#: End-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "host_ops_per_ref": "ops/ref",
    "devices_per_ref": "devices/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_iops": "ops/s",
    "sim_read_mean_us": "us",
    "sim_read_p99_us": "us",
    "sim_write_mean_us": "us",
    "sim_write_p99_us": "us",
    "erases": "count",
    "waf": "ratio",
}

#: Simulated end-to-end metrics: exactly repeatable for a given seed.
SIMULATED = ("sim_iops", "sim_read_mean_us", "sim_read_p99_us",
             "sim_write_mean_us", "sim_write_p99_us", "erases", "waf")

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER: Dict[str, str] = {
    "experiments.self_s": "s",
    "experiments.build_s": "s",
    "experiments.warmup_s": "s",
    "experiments.warmup_events": "count",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_op": "events/op",
    "sim.schedule_calls": "count",
    "ftl.self_s": "s",
    "ftl.calls": "count",
    "ftl.host_programs": "count",
    "ftl.gc_programs": "count",
    "ftl.backup_programs": "count",
    "ftl.foreground_gcs": "count",
    "ftl.background_gcs": "count",
    "nand.self_s": "s",
    "nand.lsb_programs": "count",
    "nand.msb_programs": "count",
    "nand.reads": "count",
    "nand.erases": "count",
    "reliability.self_s": "s",
    "reliability.reads_sampled": "count",
    "reliability.read_errors": "count",
    "reliability.shift_retries": "count",
    "reliability.ecc_escalations": "count",
    "reliability.recovered_ratio": "ratio",
    "reliability.ladder_reads": "count",
    "reliability.mean_ber": "ratio",
    "scenarios.self_s": "s",
    "scenarios.ops_generated": "count",
    "qos.self_s": "s",
    "qos.arbiter_selects": "count",
    "qos.victim_read_p99_us": "us",
    "qos.victim_write_p99_us": "us",
    "observability.capture_overhead_ratio": "ratio",
    "observability.ops_captured": "count",
    "observability.dropped_ops": "count",
    "fleet.self_s": "s",
    "fleet.devices": "count",
    "fleet.build_s": "s",
    "fleet.aggregate_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

#: Fewest timed repetitions (after the warm-up one) an untraced run
#: measures, however short its budget.
MIN_REPS = 3

#: Reference-loop time after each repetition, as a share of its wall time.
REFERENCE_SHARE = 0.25

#: Untraced reference repetitions (or Tracer on/off pairs) of a traced run.
REFERENCE_REPS = 2


@dataclasses.dataclass
class Result:
    """What one benchmark invocation reports.

    A run that fails the correctness gate raises :class:`GateError`
    instead, so a result is always a correct one.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    #: what the result line cannot carry (repetitions, fingerprint, ...)
    meta: Dict[str, Any]

    def line(self) -> Dict[str, Any]:
        """The result object the command prints as its last line."""
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": self.units[name]}
                        for name in self.units},
        }


def host_metadata(root: str) -> Dict[str, Any]:
    """Python version, CPU count and model, and the source revision."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "git_commit": _git_commit(root)}


def _git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` (``unknown`` outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as ref:
                head = ref.read().strip()
        return head
    except OSError:
        return "unknown"


def _rep(workload, seed: int, scale: float, **kwargs: Any) -> Rep:
    """One repetition from a clean heap (collected, not timed)."""
    gc.collect()
    return workload.run(seed, scale, **kwargs)


def _check_same(reps: List[Rep], label: str) -> None:
    prints = {rep.fingerprint for rep in reps}
    if len(prints) != 1:
        raise GateError(f"{label}: fingerprints differ across "
                        f"repetitions of one seed: {sorted(prints)}")


def measure(name: str, seed: int, seconds: float,
            scale: float = 1.0) -> Result:
    """Untraced run: a warm-up repetition, then timed repetitions while
    another one still fits in ``seconds``, each followed by a block of
    reference passes; reports medians."""
    workload = WORKLOADS[name]
    clock = ReferenceClock()
    start = time.perf_counter()
    # the warm-up repetition runs the oracle checks; every later one
    # must match its fingerprint
    reps: List[Rep] = [_rep(workload, seed, scale, verify=True)]
    # one repetition's peak, before the reference loop adds its tables
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = start
    while True:
        # free the repetition's system before the loop builds its tables
        gc.collect()
        clock.block(REFERENCE_SHARE * (time.perf_counter() - t0))
        now = time.perf_counter()
        if len(reps) > MIN_REPS and (now - start) + (now - t0) > seconds:
            break
        t0 = now
        reps.append(_rep(workload, seed, scale, verify=False))
    _check_same(reps, name)
    timed = reps[1:]
    unit = clock.unit_s
    metrics: Dict[str, float] = {
        "host_ops_per_ref":
            statistics.median(r.host_ops_per_s for r in timed) * unit,
        "devices_per_ref":
            statistics.median(r.devices_per_s for r in timed) * unit,
        "setup_s": statistics.median(r.setup_s for r in timed),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(reps[0].sim)
    meta = {"reps": len(timed), "fingerprint": reps[0].fingerprint,
            "reference_unit_s": unit,
            "host_ops_per_s":
                statistics.median(r.host_ops_per_s for r in timed),
            "rep_host_ops_per_s": [r.host_ops_per_s for r in timed],
            "rep_setup_s": [r.setup_s for r in timed],
            "reference_s": clock.samples}
    return Result(sum(r.attempted for r in reps),
                  sum(r.failed for r in reps), metrics, END_TO_END, meta)


def _reference(workload, seed: int, scale: float
               ) -> Tuple[List[Rep], float]:
    """Untraced reference reps and the Tracer capture overhead ratio.

    For a workload with the repo's Tracer, the reps alternate Tracer
    on/off pairs (order flipping each pair); the ratio is the median of
    the paired measured-phase time ratios.  Elsewhere it is 0.
    """
    if not getattr(workload, "tracer_ring", 0):
        return [_rep(workload, seed, scale, verify=index == 0)
                for index in range(REFERENCE_REPS)], 0.0
    on: List[Rep] = []
    ratios: List[float] = []
    for index in range(REFERENCE_REPS):
        pair = {}
        for enabled in ((True, False) if index % 2 == 0
                        else (False, True)):
            pair[enabled] = _rep(workload, seed, scale,
                                 verify=index == 0,
                                 tracer_enabled=enabled)
        on.append(pair[True])
        ratios.append(pair[True].measured_s / pair[False].measured_s)
    return on, statistics.median(ratios)


def measure_layers(name: str, seed: int, scale: float = 1.0,
                   spans_path: Optional[str] = None) -> Result:
    """Traced run: the per-layer table of one repetition (its length
    is set by the fixed number of repetitions, not a time budget)."""
    workload = WORKLOADS[name]
    reference, capture_ratio = _reference(workload, seed, scale)
    _check_same(reference, name)
    ref_wall = statistics.median(r.wall_s for r in reference)

    recorder = layers.SpanRecorder()
    recorder.calibrate()

    def probe(event: str) -> None:
        if event == "start":
            recorder.begin_root()
        else:
            recorder.end_root()

    gc.collect()
    with layers.LayerTrace(recorder):
        traced = workload.run(seed, scale, probe=probe)
    _check_same(reference + [traced], f"{name} traced vs untraced")

    metrics = layer_metrics(recorder, traced, capture_ratio)
    metrics["bench.trace_overhead_ratio"] = recorder.wall_s / ref_wall
    if spans_path is not None:
        recorder.dump(spans_path, {"workload": name, "seed": seed,
                                   "metrics": metrics})
    meta = {"reps": len(reference) + 1, "fingerprint": traced.fingerprint,
            "traced_wall_s": recorder.wall_s,
            "layer_self_s": dict(recorder.layer_self_s),
            "wrapper_overhead_s": recorder.overhead_s,
            "child_overhead_us": recorder.child_overhead_s * 1e6}
    return Result(traced.attempted, traced.failed, metrics,
                  PER_LAYER, meta)


def layer_metrics(recorder: "layers.SpanRecorder", rep: Rep,
                  capture_ratio: float) -> Dict[str, float]:
    """Fold spans and program counters into the per-layer table."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in recorder.layer_self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    for key, value in rep.counts.items():
        if key in metrics:
            metrics[key] = float(value)
    incl = recorder.incl_s
    metrics["experiments.build_s"] = incl.get(
        "experiments.build_system", 0.0)
    metrics["experiments.warmup_s"] = incl.get(
        "experiments.warmup_device", 0.0)
    metrics["sim.schedule_calls"] = float(
        recorder.count("sim.Simulator.schedule"))
    metrics["ftl.calls"] = float(recorder.count("ftl."))
    metrics["qos.arbiter_selects"] = float(sum(
        n for span, n in recorder.calls.items()
        if span.startswith("qos.") and span.endswith(".select")))
    metrics["observability.capture_overhead_ratio"] = capture_ratio
    metrics["fleet.build_s"] = incl.get("fleet.DeviceRun.build", 0.0)
    metrics["fleet.aggregate_s"] = sum(
        seconds for span, seconds in recorder.self_s.items()
        if span.startswith(layers.AGGREGATE_PREFIX))
    metrics["bench.unattributed_s"] = recorder.unattributed_s
    return metrics


def run_meta(name: str, seed: int, seconds: float, trace: bool,
             root: str) -> Dict[str, Any]:
    """What a result line cannot carry: why, seed, host, entry points."""
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_metadata(root),
        "entry_points": list(ENTRY_POINTS),
        "traced_entry_points": layers.entry_points() if trace else [],
    }
