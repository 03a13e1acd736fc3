"""Measurement harness behind ``repro perfbench``.

Methodology
-----------

Each workload is timed as one
:func:`~repro.experiments.runner.run_workload` call — the same
pipeline every experiment runs — on a **fresh system** (new simulator,
device and FTL) so runs are independent and deterministic.  The timed
region covers the system build (about a millisecond), the
sequential-fill warm-up *and* the measured workload: the warm-up is
itself write-pipeline work and excluding it would flatter
configurations that shift cost into preconditioning.  The metric is
simulator events per second (``sim.processed / wall``), the rate the
event kernel retires scheduled events; host operations per second is
reported alongside as the end-to-end number.

By default the device is built with ``track_history=False`` — the
per-block program-history lists exist for the reliability analyses and
change no simulation outcome, so benchmarks opt out of the bookkeeping
(``--full-history`` restores it; see ``docs/PERFORMANCE.md``).

Timed regions run with the cyclic garbage collector quiesced (one
``gc.collect()`` then ``gc.disable()``, restored afterwards): the
simulation allocates hundreds of thousands of acyclic objects per run
and collector pauses only add variance, not signal.

Wall-clock numbers are inherently noisy (+/-10% on a busy machine);
compare medians of several runs, never single samples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import platform
import statistics
import time
from math import isqrt
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.runner import (
    ExperimentConfig,
    build_system,
    run_workload,
)
from repro.nand.geometry import NandGeometry
from repro.qos.host import TenantSpec
from repro.scenarios.base import StreamScenario
from repro.sim._native import active_core
from repro.sim.host import StreamOp
from repro.workloads.benchmarks import WorkloadProfile, build_workload
from repro.workloads.synthetic import sequential_fill

#: The benchmarked FTL: flexFTL exercises the paper's full write
#: pipeline (two-phase allocation, parity backup, quota) and is the
#: hottest configuration of the core.
BENCH_FTL = "flexFTL"

#: Fraction of the logical space the benchmark workloads occupy
#: (matches the Figure 8 evaluation utilisation).
BENCH_UTILIZATION = 0.75

#: Operations of the fig8/zipf workloads at ``--scale 1.0``.
BASE_OPS = 8000

#: Sequential rewrite passes of the endurance loop at ``--scale 1.0``.
BASE_PASSES = 3

#: Default acceptable enabled-tracing slowdown (percent) for
#: ``--trace-overhead``.  One constant shared by the CLI default, the
#: CI guard and the committed ``BENCH_PR5.json`` so the three can
#: never silently judge against different budgets again.  20% bounds
#: the full capture cost (per-op ring-buffer records plus phase
#: bookkeeping) with headroom for shared-runner noise; the measured
#: best-of overhead is well under it (see docs/PERFORMANCE.md).
TRACE_OVERHEAD_BUDGET_PCT = 20.0

#: Default acceptable armed-physics slowdown (percent) for
#: ``--physics-overhead``.  The physics error engine costs more than
#: tracing by design — every op completion updates per-block history
#: state and every sampled host read fetches a (memoized) closed-form
#: failure probability and draws from the RNG stream — and both arms
#: must run with ``track_history=True`` (the engine's prerequisite),
#: so the budget only bounds the engine itself, not the history
#: bookkeeping.  Recorded in ``BENCH_PR10.json``.
PHYSICS_OVERHEAD_BUDGET_PCT = 30.0

#: Baseline stress point of the physics-overhead guard: worn and aged
#: enough that probability lookups span many distinct memoization keys,
#: but below the ECC cliff so ladder recoveries stay rare — the guard
#: times the per-read sampling path, not the (intentionally expensive)
#: error ladder.
PHYSICS_BENCH_PE = 3000
PHYSICS_BENCH_RETENTION_HOURS = 8760.0

#: Chip-count multipliers of ``--scale-sweep`` (geometry grows by
#: ``sqrt(m)`` per axis, so the chip count scales by exactly ``m``).
SWEEP_MULTIPLIERS = (1, 4, 16)


@contextlib.contextmanager
def _quiesced_gc():
    """Collect, then disable, the cyclic GC around a timed region."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def sweep_geometry(multiplier: int) -> NandGeometry:
    """The benchmark geometry scaled to ``multiplier`` times the chips.

    Both die axes grow by ``sqrt(multiplier)`` — channels from 4 and
    chips per channel from 2 — so parallelism rises without making
    individual chips bigger; blocks, pages and page size stay at the
    experiment defaults.  ``multiplier`` must be a perfect square.
    """
    multiplier = int(multiplier)
    factor = isqrt(multiplier) if multiplier > 0 else 0
    if multiplier < 1 or factor * factor != multiplier:
        raise ValueError(
            f"sweep multiplier must be a positive perfect square, "
            f"got {multiplier}")
    return NandGeometry(
        channels=4 * factor,
        chips_per_channel=2 * factor,
        blocks_per_chip=64,
        pages_per_block=64,
        page_size=4096,
    )


def _bench_span(config: ExperimentConfig) -> int:
    """Benchmark footprint: :data:`BENCH_UTILIZATION` of the FTL's
    logical space."""
    _, _, _, ftl, _ = build_system(BENCH_FTL, config)
    return max(1, int(ftl.logical_pages * BENCH_UTILIZATION))


#: 50/50 read/write Zipf mix: exercises the read path (mapping lookup,
#: address decode, chip read) alongside the write pipeline.
ZIPF_PROFILE = WorkloadProfile(
    name="zipf-mix", read_fraction=0.5, intensiveness="very high",
    streams=8, npages=2, think=0.0, zipf_s=1.0,
)


def _fig8_write(span: int, scale: float, seed: int
                ) -> List[List[StreamOp]]:
    ops = max(200, int(BASE_OPS * scale))
    return build_workload("NTRX", span, total_ops=ops, seed=seed)


def _zipf_mix(span: int, scale: float, seed: int
              ) -> List[List[StreamOp]]:
    ops = max(200, int(BASE_OPS * scale))
    return build_workload("zipf-mix", span, total_ops=ops, seed=seed,
                          profile=ZIPF_PROFILE)


def _endurance_loop(span: int, scale: float, seed: int
                    ) -> List[List[StreamOp]]:
    passes = max(1, round(BASE_PASSES * scale))
    loop: List[StreamOp] = []
    for _ in range(passes):
        loop.extend(sequential_fill(span))
    return [loop]


#: name -> stream builder ``(span, scale, seed) -> streams``, in
#: canonical report order.
WORKLOADS: Dict[str, Callable[[int, float, int], List[List[StreamOp]]]] = {
    "fig8_write": _fig8_write,
    "zipf_mix": _zipf_mix,
    "endurance_loop": _endurance_loop,
}


def _qos_mix(span: int, scale: float, seed: int) -> List[TenantSpec]:
    from repro.experiments.qos_isolation import build_noisy_neighbor

    ops = max(200, int(BASE_OPS * scale))
    return build_noisy_neighbor(span, ops, seed)


#: Arbitration policy the qos_mix scenario exercises (DRR carries the
#: most per-decision bookkeeping of the four).
QOS_ARBITER = "drr"

#: Multi-tenant scenarios timed through the QoS front-end
#: (``(span, scale, seed) -> tenant specs``).  Not part of the default
#: set: the front-end adds host-side work by design, so its rates are
#: compared against their own floor, not the raw-core one.
QOS_WORKLOADS: Dict[str, Callable[[int, float, int],
                                  List[TenantSpec]]] = {
    "qos_mix": _qos_mix,
}

#: Opt-in streaming-replay benchmark (see :func:`_scenario_replay_case`).
SCENARIO_REPLAY = "scenario_replay"

#: Preset the replay benchmark exports and streams back (fileserver is
#: the most write- and burst-heavy of the Table-1 presets).
SCENARIO_REPLAY_PRESET = "fileserver"


@dataclasses.dataclass(frozen=True)
class WorkloadTiming:
    """One timed workload run."""

    name: str
    events: int
    host_ops: int
    wall_seconds: float
    events_per_sec: float
    host_ops_per_sec: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class PerfbenchResult:
    """All timed workloads of one ``repro perfbench`` invocation."""

    timings: Dict[str, WorkloadTiming]
    scale: float
    span: int
    track_history: bool
    floor: Optional[float] = None
    profile_path: Optional[str] = None
    kernel: str = "calendar"

    # -- summary -------------------------------------------------------

    def min_events_per_sec(self) -> float:
        """Slowest workload's event rate (what ``--floor`` tests)."""
        return min(t.events_per_sec for t in self.timings.values())

    def median_events_per_sec(self) -> float:
        """Median event rate across the timed workloads."""
        return statistics.median(
            t.events_per_sec for t in self.timings.values())

    def passed(self) -> bool:
        """Whether the run met the ``--floor`` target (if any)."""
        return self.floor is None or self.min_events_per_sec() >= self.floor

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON projection (the ``BENCH_PR2.json`` schema)."""
        payload: Dict[str, object] = {
            "ftl": BENCH_FTL,
            "scale": self.scale,
            "span": self.span,
            "track_history": self.track_history,
            "kernel": self.kernel,
            "python": platform.python_version(),
            "core": active_core(),
            "workloads": {name: t.to_dict()
                          for name, t in self.timings.items()},
            "summary": {
                "min_events_per_sec": self.min_events_per_sec(),
                "median_events_per_sec": self.median_events_per_sec(),
            },
        }
        if self.floor is not None:
            payload["floor"] = {
                "events_per_sec": self.floor,
                "passed": self.passed(),
            }
        return payload

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Text report: one row per workload plus the summary."""
        header = (f"{'workload':16s} {'events':>10s} {'host ops':>10s} "
                  f"{'wall [s]':>9s} {'events/s':>10s} {'host-ops/s':>11s}")
        rows = [header, "-" * len(header)]
        for t in self.timings.values():
            rows.append(
                f"{t.name:16s} {t.events:>10d} {t.host_ops:>10d} "
                f"{t.wall_seconds:>9.3f} {t.events_per_sec:>10.0f} "
                f"{t.host_ops_per_sec:>11.0f}"
            )
        rows.append("")
        rows.append(
            f"median {self.median_events_per_sec():.0f} events/s, "
            f"min {self.min_events_per_sec():.0f} events/s "
            f"(scale {self.scale:g}, track_history={self.track_history})"
        )
        if self.floor is not None:
            verdict = "PASS" if self.passed() else "FAIL"
            rows.append(
                f"floor {self.floor:.0f} events/s: {verdict}"
            )
        if self.profile_path is not None:
            rows.append(f"cProfile stats written to {self.profile_path}")
        return "\n".join(rows)


def time_run(name: str, config: ExperimentConfig, warmup_span: int,
             **workload: Any) -> WorkloadTiming:
    """Time one :func:`~repro.experiments.runner.run_workload` call.

    ``workload`` holds the run's remaining keywords (``scenario=`` or
    ``tenants=``, and any subsystem to arm).  The whole measured-run
    pipeline is timed — system build, warm-up fill and measured
    workload (see the module docstring); ``events`` counts every
    kernel event of both phases, ``host_ops`` every host request of
    both.
    """
    fill_ops = len(sequential_fill(warmup_span))
    with _quiesced_gc():
        start = time.perf_counter()
        result = run_workload(ftl_name=BENCH_FTL, config=config,
                              warmup_span=warmup_span, **workload)
        wall = time.perf_counter() - start
    host_ops = fill_ops + result.stats.completed_requests
    return WorkloadTiming(
        name=name,
        events=result.events,
        host_ops=host_ops,
        wall_seconds=wall,
        events_per_sec=result.events / wall,
        host_ops_per_sec=host_ops / wall,
    )


def _stream_scenario(workload: str, span: int, scale: float,
                     seed: int) -> StreamScenario:
    return StreamScenario.from_streams(WORKLOADS[workload](span, scale,
                                                           seed))


def _scenario_replay_case(span: int, scale: float, seed: int,
                          config: ExperimentConfig) -> WorkloadTiming:
    """Export the replay preset to a temp CSV and time its replay.

    CSV parsing is deliberately inside the timed region: a real replay
    pays for it on every run, and this benchmark is the guard that the
    bounded-memory path stays within shouting distance of the
    materialized one.  (Exporting the file is not timed.)
    """
    import os
    import tempfile

    from repro.scenarios.csvio import TraceScenario, write_scenario_csv
    from repro.scenarios.presets import make_preset

    ops = max(200, int(BASE_OPS * scale))
    scenario = make_preset(SCENARIO_REPLAY_PRESET, span, ops, seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-perfbench-") as tmp:
        path = os.path.join(
            tmp, f"operation_sequence_{SCENARIO_REPLAY_PRESET}.csv")
        write_scenario_csv(scenario, path)
        return time_run(SCENARIO_REPLAY, config, span,
                        scenario=TraceScenario(path))


@dataclasses.dataclass
class TraceOverheadResult:
    """Outcome of ``repro perfbench --trace-overhead``.

    ``off``/``on`` hold per-pair event rates from paired
    untraced/traced runs; within each pair the execution order
    alternates (off-first on even pairs, on-first on odd) so that slow
    wall-clock drift cancels instead of biasing one arm.

    Two estimators are reported.  The headline :meth:`overhead_pct` is
    the *best-of* (minimum-time) estimate — external noise only ever
    slows a run down, so the fastest observation of each arm is the
    closest to the true cost, which is why ``timeit`` recommends
    ``min()`` over means.  :meth:`paired_median_pct` (the median of
    per-pair on/off ratios) is the drift-robust cross-check; on a
    loaded machine it can overstate the true cost by several percent
    (an off/off control run of the same protocol measured +0.4%
    median, individual pairs jittering well past +-10%).
    """

    workload: str
    scale: float
    span: int
    rounds: int
    off: List[float]
    on: List[float]
    budget_pct: float

    def best_off(self) -> float:
        return max(self.off)

    def best_on(self) -> float:
        return max(self.on)

    def pair_overheads_pct(self) -> List[float]:
        """Per-pair slowdown ``100 * (1 - on/off)``, in percent."""
        return [(off - on) / off * 100.0
                for off, on in zip(self.off, self.on)]

    def paired_median_pct(self) -> float:
        """Median of the per-pair slowdowns (drift-robust, noise-shy)."""
        return statistics.median(self.pair_overheads_pct())

    def overhead_pct(self) -> float:
        """Headline slowdown: best-of-N off vs best-of-N on."""
        off = self.best_off()
        return (off - self.best_on()) / off * 100.0

    def passed(self) -> bool:
        return self.overhead_pct() <= self.budget_pct

    def to_dict(self) -> Dict[str, object]:
        """JSON projection (the ``BENCH_PR5.json`` schema)."""
        return {
            "ftl": BENCH_FTL,
            "workload": self.workload,
            "scale": self.scale,
            "span": self.span,
            "rounds": self.rounds,
            "python": platform.python_version(),
            "core": active_core(),
            "methodology": (
                "paired untraced/traced runs on fresh systems with "
                "within-pair order alternating per pair, fill + "
                "workload inside the timed region; headline overhead "
                "compares the best (fastest) observation of each arm "
                "because noise is strictly additive; the median of "
                "per-pair ratios is reported as a drift-robust "
                "cross-check (an off/off control of this protocol "
                "measured +0.4% median with +-10% pair jitter)"),
            "events_per_sec": {"off": list(self.off),
                               "on": list(self.on)},
            "pair_overheads_pct": self.pair_overheads_pct(),
            "summary": {
                "best_off": self.best_off(),
                "best_on": self.best_on(),
                "overhead_pct": self.overhead_pct(),
                "paired_median_pct": self.paired_median_pct(),
                "budget_pct": self.budget_pct,
                "passed": self.passed(),
            },
        }

    def render(self) -> str:
        rows = [
            f"trace overhead: {self.workload} x{self.rounds} pairs "
            f"(scale {self.scale:g})",
            f"{'pair':>5s} {'off ev/s':>10s} {'on ev/s':>10s} "
            f"{'pair %':>8s}",
        ]
        pair_pcts = self.pair_overheads_pct()
        for index, (off, on) in enumerate(zip(self.off, self.on)):
            rows.append(f"{index:>5d} {off:>10.0f} {on:>10.0f} "
                        f"{pair_pcts[index]:>+8.2f}")
        rows.append("")
        verdict = "PASS" if self.passed() else "FAIL"
        rows.append(
            f"best off {self.best_off():.0f} ev/s, "
            f"on {self.best_on():.0f} ev/s -> "
            f"{self.overhead_pct():.2f}% overhead "
            f"(paired median {self.paired_median_pct():+.2f}%, "
            f"budget {self.budget_pct:g}%): {verdict}")
        return "\n".join(rows)


def run_trace_overhead(
    workload: str = "fig8_write",
    scale: float = 1.0,
    seed: int = 1,
    rounds: int = 5,
    budget_pct: float = TRACE_OVERHEAD_BUDGET_PCT,
    output_path: Optional[str] = None,
) -> TraceOverheadResult:
    """Measure the enabled-tracing slowdown against ``budget_pct``.

    Runs ``rounds`` pairs of untraced and traced executions of one
    :data:`WORKLOADS` or :data:`QOS_WORKLOADS` workload (a
    multi-tenant one also traces the QoS front-end's admissions and
    arbitration decisions), alternating which arm goes first
    within each pair, and compares the best observation of each arm
    (see :class:`TraceOverheadResult` for why best-of, not means).
    This is the perf guard for the observability layer: the
    determinism guard (traced results byte-identical) lives in the
    test suite, this one bounds the wall-clock price — and raises
    ``RuntimeError`` if the two arms of a pair ever process different
    event counts, since a rate comparison between different runs
    means nothing.
    """
    if workload not in WORKLOADS and workload not in QOS_WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; trace overhead "
                       f"supports {sorted({**WORKLOADS, **QOS_WORKLOADS})}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    from repro.observability.tracer import Tracer

    config = ExperimentConfig(track_history=False)
    span = _bench_span(config)
    if workload in WORKLOADS:
        run: Dict[str, Any] = {
            "scenario": _stream_scenario(workload, span, scale, seed)}
    else:
        run = {"tenants": QOS_WORKLOADS[workload](span, scale, seed),
               "arbiter": QOS_ARBITER}

    off: List[float] = []
    on: List[float] = []
    for index in range(rounds):
        arms = [(off, False), (on, True)]
        if index % 2:
            arms = arms[::-1]
        events = []
        for rates, traced in arms:
            timing = time_run(workload, config, span, **run,
                              tracer=Tracer() if traced else None)
            rates.append(timing.events_per_sec)
            events.append(timing.events)
        if events[0] != events[1]:
            raise RuntimeError(
                f"tracing changed the run in pair {index}: "
                f"{events[0]} events != {events[1]} between the arms")

    result = TraceOverheadResult(
        workload=workload,
        scale=scale,
        span=span,
        rounds=rounds,
        off=off,
        on=on,
        budget_pct=budget_pct,
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


@dataclasses.dataclass
class PhysicsOverheadResult(TraceOverheadResult):
    """Outcome of ``repro perfbench --physics-overhead``.

    Same paired-measurement estimators as
    :class:`TraceOverheadResult` (best-of headline, paired-median
    cross-check, alternating within-pair order), applied to the
    physics-grounded error engine: ``off`` runs plain, ``on`` runs
    with a :class:`~repro.reliability.physics.PhysicsEngine` armed at
    the :data:`PHYSICS_BENCH_PE`/:data:`PHYSICS_BENCH_RETENTION_HOURS`
    stress point.  Both arms keep ``track_history=True`` so the
    overhead is the engine's alone.
    """

    def to_dict(self) -> Dict[str, object]:
        """JSON projection (the ``BENCH_PR10.json`` schema)."""
        return {
            "ftl": BENCH_FTL,
            "workload": self.workload,
            "scale": self.scale,
            "span": self.span,
            "rounds": self.rounds,
            "python": platform.python_version(),
            "core": active_core(),
            "physics": {
                "pe_baseline": PHYSICS_BENCH_PE,
                "retention_baseline_hours": PHYSICS_BENCH_RETENTION_HOURS,
            },
            "methodology": (
                "paired plain/physics-armed runs on fresh systems "
                "(both arms track_history=True, the engine's "
                "prerequisite) with within-pair order alternating per "
                "pair, fill + engine arming + workload inside the "
                "timed region; headline overhead compares the best "
                "(fastest) observation of each arm because noise is "
                "strictly additive; the median of per-pair ratios is "
                "the drift-robust cross-check"),
            "events_per_sec": {"off": list(self.off),
                               "on": list(self.on)},
            "pair_overheads_pct": self.pair_overheads_pct(),
            "summary": {
                "best_off": self.best_off(),
                "best_on": self.best_on(),
                "overhead_pct": self.overhead_pct(),
                "paired_median_pct": self.paired_median_pct(),
                "budget_pct": self.budget_pct,
                "passed": self.passed(),
            },
        }

    def render(self) -> str:
        rows = [
            f"physics overhead: {self.workload} x{self.rounds} pairs "
            f"(scale {self.scale:g}, pe={PHYSICS_BENCH_PE}, "
            f"ret={PHYSICS_BENCH_RETENTION_HOURS:g}h)",
            f"{'pair':>5s} {'off ev/s':>10s} {'on ev/s':>10s} "
            f"{'pair %':>8s}",
        ]
        pair_pcts = self.pair_overheads_pct()
        for index, (off, on) in enumerate(zip(self.off, self.on)):
            rows.append(f"{index:>5d} {off:>10.0f} {on:>10.0f} "
                        f"{pair_pcts[index]:>+8.2f}")
        rows.append("")
        verdict = "PASS" if self.passed() else "FAIL"
        rows.append(
            f"best off {self.best_off():.0f} ev/s, "
            f"on {self.best_on():.0f} ev/s -> "
            f"{self.overhead_pct():.2f}% overhead "
            f"(paired median {self.paired_median_pct():+.2f}%, "
            f"budget {self.budget_pct:g}%): {verdict}")
        return "\n".join(rows)


def run_physics_overhead(
    workload: str = "fig8_write",
    scale: float = 1.0,
    seed: int = 1,
    rounds: int = 5,
    budget_pct: float = PHYSICS_OVERHEAD_BUDGET_PCT,
    output_path: Optional[str] = None,
) -> PhysicsOverheadResult:
    """Measure the armed-physics slowdown against ``budget_pct``.

    The physics twin of :func:`run_trace_overhead`: ``rounds`` pairs
    of plain and physics-armed executions of one :data:`WORKLOADS`
    workload, within-pair order alternating, best observation of each
    arm compared.  Both arms run with ``track_history=True`` (the
    engine cannot prime without block histories), so the reported
    overhead is the engine's sampling/bookkeeping cost alone — the
    history-tracking cost itself is covered by ``--full-history`` on
    the main benchmark.
    """
    from repro.reliability.physics import PhysicsConfig

    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; physics "
                       f"overhead supports {sorted(WORKLOADS)}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    config = ExperimentConfig(track_history=True)
    span = _bench_span(config)
    scenario = _stream_scenario(workload, span, scale, seed)
    physics = PhysicsConfig(
        pe_baseline=PHYSICS_BENCH_PE,
        retention_baseline_hours=PHYSICS_BENCH_RETENTION_HOURS,
    )

    off: List[float] = []
    on: List[float] = []
    for index in range(rounds):
        arms = [(off, None), (on, physics)]
        if index % 2:
            arms = arms[::-1]
        for rates, armed in arms:
            rates.append(time_run(workload, config, span,
                                  scenario=scenario,
                                  physics=armed).events_per_sec)

    result = PhysicsOverheadResult(
        workload=workload,
        scale=scale,
        span=span,
        rounds=rounds,
        off=off,
        on=on,
        budget_pct=budget_pct,
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


@dataclasses.dataclass
class SweepPoint:
    """One geometry of a ``--scale-sweep`` run.

    ``new`` holds events/sec of the configuration under test (the
    default calendar kernel), ``baseline`` of the heap-kernel
    oracle on the *same* streams; the two arms run
    interleaved with alternating order so wall-clock drift cancels.
    ``events`` is asserted identical across every run of both arms —
    the sweep doubles as an end-to-end equivalence check.
    """

    multiplier: int
    channels: int
    chips_per_channel: int
    total_chips: int
    span: int
    events: int
    new: List[float]
    baseline: List[float]

    def best_new(self) -> float:
        return max(self.new)

    def best_baseline(self) -> float:
        return max(self.baseline)

    def speedup(self) -> float:
        """Best-of new rate over best-of baseline rate."""
        return self.best_new() / self.best_baseline()

    def to_dict(self) -> Dict[str, object]:
        return {
            "multiplier": self.multiplier,
            "channels": self.channels,
            "chips_per_channel": self.chips_per_channel,
            "total_chips": self.total_chips,
            "span": self.span,
            "events": self.events,
            "events_per_sec": {"new": list(self.new),
                               "baseline": list(self.baseline)},
            "summary": {
                "best_new": self.best_new(),
                "best_baseline": self.best_baseline(),
                "speedup": self.speedup(),
            },
        }


@dataclasses.dataclass
class ScaleSweepResult:
    """Outcome of ``repro perfbench --scale-sweep``."""

    workload: str
    scale: float
    seed: int
    rounds: int
    kernel: str
    points: List[SweepPoint]
    #: free-form context block recorded verbatim in the JSON (e.g. the
    #: prior bench file this sweep is compared against).
    reference: Optional[Dict[str, object]] = None

    def passed(self) -> bool:
        """The sweep has no floor; it fails only on construction (an
        event-count mismatch between arms raises)."""
        return True

    def to_dict(self) -> Dict[str, object]:
        """JSON projection (the ``BENCH_PR7.json`` schema)."""
        payload: Dict[str, object] = {
            "ftl": BENCH_FTL,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "rounds": self.rounds,
            "kernel": self.kernel,
            "python": platform.python_version(),
            "core": active_core(),
            "methodology": (
                "per geometry multiplier, paired runs of the "
                "configuration under test and the heap-kernel "
                "oracle on identical streams, order "
                "alternating per round, GC quiesced, warm-up fill "
                "inside the timed region; best-of rates compared "
                "(noise is strictly additive); event counts asserted "
                "identical across arms"),
            "points": [p.to_dict() for p in self.points],
        }
        if self.reference is not None:
            payload["reference"] = self.reference
        return payload

    def render(self) -> str:
        rows = [
            f"scale sweep: {self.workload} (scale {self.scale:g}, "
            f"{self.rounds} rounds/arm, kernel={self.kernel} vs "
            f"heap baseline)",
            f"{'mult':>5s} {'chips':>6s} {'events':>9s} "
            f"{'new ev/s':>10s} {'base ev/s':>10s} {'speedup':>8s}",
        ]
        for p in self.points:
            rows.append(
                f"{p.multiplier:>4d}x {p.total_chips:>6d} "
                f"{p.events:>9d} {p.best_new():>10.0f} "
                f"{p.best_baseline():>10.0f} {p.speedup():>8.3f}")
        return "\n".join(rows)


def run_scale_sweep(
    workload: str = "fig8_write",
    scale: float = 1.0,
    seed: int = 1,
    rounds: int = 3,
    multipliers: Sequence[int] = SWEEP_MULTIPLIERS,
    kernel: str = "calendar",
    reference: Optional[Dict[str, object]] = None,
    output_path: Optional[str] = None,
) -> ScaleSweepResult:
    """Benchmark one workload across geometry multipliers.

    For each multiplier the device grows to ``m`` times the chips
    (:func:`sweep_geometry`) and the same generated streams are timed
    under both the configuration under test (``kernel``) and the
    frozen heap-kernel oracle, interleaved.
    Every run's event count must match across arms — a mismatch means
    the kernels diverged and raises ``RuntimeError`` rather than
    reporting a meaningless speedup.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; the scale "
                       f"sweep supports {sorted(WORKLOADS)}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    points: List[SweepPoint] = []
    for multiplier in multipliers:
        geometry = sweep_geometry(multiplier)
        new_config = ExperimentConfig(geometry=geometry,
                                      track_history=False,
                                      kernel=kernel)
        base_config = ExperimentConfig(geometry=geometry,
                                       track_history=False,
                                       kernel="heap")
        span = _bench_span(new_config)
        scenario = _stream_scenario(workload, span, scale, seed)
        new_rates: List[float] = []
        base_rates: List[float] = []
        events: Optional[int] = None
        for index in range(rounds):
            arms = ((new_config, new_rates), (base_config, base_rates))
            if index % 2:
                arms = arms[::-1]
            for config, rates in arms:
                timing = time_run(workload, config, span,
                                  scenario=scenario)
                if events is None:
                    events = timing.events
                elif timing.events != events:
                    raise RuntimeError(
                        f"kernel divergence at {multiplier}x: "
                        f"{timing.events} events != {events}")
                rates.append(timing.events_per_sec)
        points.append(SweepPoint(
            multiplier=multiplier,
            channels=geometry.channels,
            chips_per_channel=geometry.chips_per_channel,
            total_chips=geometry.total_chips,
            span=span,
            events=events if events is not None else 0,
            new=new_rates,
            baseline=base_rates,
        ))
    result = ScaleSweepResult(
        workload=workload,
        scale=scale,
        seed=seed,
        rounds=rounds,
        kernel=kernel,
        points=points,
        reference=reference,
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


def run_perfbench(
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 1,
    track_history: bool = False,
    floor: Optional[float] = None,
    profile_path: Optional[str] = None,
    output_path: Optional[str] = None,
    kernel: str = "calendar",
) -> PerfbenchResult:
    """Run the throughput benchmark.

    Args:
        workloads: subset of :data:`WORKLOADS` plus
            :data:`QOS_WORKLOADS` and :data:`SCENARIO_REPLAY`
            (default: the three core workloads; ``qos_mix`` and
            ``scenario_replay`` are opt-in — each compares against its
            own floor, not the raw-core one).
        scale: op-count multiplier (``--quick`` uses 0.1).
        seed: workload generation seed.
        track_history: keep per-block program histories (default off:
            they change no simulation outcome, only memory traffic).
        floor: minimum acceptable events/sec; recorded in the result
            and reflected in :meth:`PerfbenchResult.passed`.
        profile_path: when given, the whole benchmark runs under
            :mod:`cProfile` and the stats are dumped here (wall-clock
            numbers are then distorted by profiler overhead — use for
            hotspot hunting, not for rates).
        output_path: when given, the JSON projection is written here
            (this is how ``BENCH_PR2.json`` is produced).
        kernel: event-queue implementation to benchmark ("calendar"
            or the oracle "heap").
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    names = list(workloads) if workloads else list(WORKLOADS)
    for name in names:
        if (name not in WORKLOADS and name not in QOS_WORKLOADS
                and name != SCENARIO_REPLAY):
            known = sorted({**WORKLOADS, **QOS_WORKLOADS,
                            SCENARIO_REPLAY: None})
            raise KeyError(
                f"unknown workload {name!r}; choose from {known}"
            )
    config = ExperimentConfig(track_history=track_history,
                              kernel=kernel)
    span = _bench_span(config)

    profiler = None
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        timings = {}
        for name in names:
            if name in WORKLOADS:
                timings[name] = time_run(
                    name, config, span,
                    scenario=_stream_scenario(name, span, scale, seed))
            elif name == SCENARIO_REPLAY:
                timings[name] = _scenario_replay_case(span, scale,
                                                      seed, config)
            else:
                timings[name] = time_run(
                    name, config, span,
                    tenants=QOS_WORKLOADS[name](span, scale, seed),
                    arbiter=QOS_ARBITER)
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)

    result = PerfbenchResult(
        timings=timings,
        scale=scale,
        span=span,
        track_history=track_history,
        floor=floor,
        profile_path=profile_path,
        kernel=kernel,
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result
