"""CLI registration of ``repro perfbench``.

Registers the benchmark as a regular
:class:`~repro.experiments.registry.Experiment`, so it shares the
global flags (``--seed``, ``--json``) and dispatch loop with the
paper experiments.  ``--jobs``/``--no-cache`` are accepted but have no
effect: a throughput benchmark must run serially and uncached.
"""

from __future__ import annotations

import argparse

from repro.experiments import registry
from repro.experiments.engine import EngineOptions
from repro.perfbench.harness import (
    PHYSICS_OVERHEAD_BUDGET_PCT,
    QOS_WORKLOADS,
    SCENARIO_REPLAY,
    TRACE_OVERHEAD_BUDGET_PCT,
    WORKLOADS,
    run_perfbench,
    run_physics_overhead,
    run_trace_overhead,
)

#: ``--quick`` op-count multiplier: a CI-sized smoke run.
QUICK_SCALE = 0.1


def _cli_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated subset of "
             f"{','.join(WORKLOADS)},{','.join(QOS_WORKLOADS)},"
             f"{SCENARIO_REPLAY} "
             f"(default: {','.join(WORKLOADS)}; the multi-tenant "
             f"{','.join(QOS_WORKLOADS)} and streaming "
             f"{SCENARIO_REPLAY} scenarios are opt-in)")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="op-count multiplier (default 1.0)")
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke run: shorthand for --scale {QUICK_SCALE}")
    parser.add_argument(
        "--full-history", action="store_true",
        help="keep per-block program histories (reliability-analysis "
             "bookkeeping; off by default when benchmarking)")
    parser.add_argument(
        "--floor", type=float, default=None, metavar="EVENTS_PER_SEC",
        help="exit 1 if the slowest workload falls below this rate")
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="run under cProfile and dump the stats to PATH "
             "(distorts the reported rates)")
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report to PATH "
             "(e.g. BENCH_PR2.json)")
    parser.add_argument(
        "--trace-overhead", action="store_true",
        help="measure enabled-tracing overhead instead of raw "
             "throughput: paired untraced/traced rounds of one "
             "workload, best-of rates compared (paired median as "
             "cross-check; see --overhead-budget)")
    parser.add_argument(
        "--physics-overhead", action="store_true",
        help="measure the armed physics-error-engine overhead instead "
             "of raw throughput: paired plain/armed rounds of one "
             "workload, both arms with track_history=True "
             f"(budget {PHYSICS_OVERHEAD_BUDGET_PCT:g}%% unless "
             "--overhead-budget is given)")
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="measurement rounds per arm of --trace-overhead and "
             "--physics-overhead (default 5)")
    parser.add_argument(
        "--overhead-budget", type=float, default=None, metavar="PCT",
        help="maximum acceptable overhead percent for "
             "--trace-overhead / --physics-overhead; the run is "
             "judged (and its JSON records passed/failed) against "
             f"exactly this value (default "
             f"{TRACE_OVERHEAD_BUDGET_PCT:g} for tracing, "
             f"{PHYSICS_OVERHEAD_BUDGET_PCT:g} for physics)")


def _cli_run(args: argparse.Namespace, engine_options: EngineOptions):
    del engine_options  # serial by design; see module docstring
    workloads = args.workloads.split(",") if args.workloads else None
    scale = QUICK_SCALE if args.quick else args.scale
    modes = [name for name, flag in
             (("--trace-overhead", args.trace_overhead),
              ("--physics-overhead", args.physics_overhead)) if flag]
    if len(modes) > 1:
        raise registry.CliError(
            f"{' and '.join(modes)} are mutually exclusive")
    # Keywords of the paired modes; an omitted --rounds or
    # --overhead-budget keeps the mode's own default.
    paired = dict(workload=workloads[0] if workloads else "fig8_write",
                  scale=scale, seed=args.seed, output_path=args.output)
    if args.rounds is not None:
        paired["rounds"] = args.rounds
    if args.overhead_budget is not None:
        paired["budget_pct"] = args.overhead_budget
    try:
        if args.trace_overhead:
            return run_trace_overhead(**paired)
        if args.physics_overhead:
            return run_physics_overhead(**paired)
        return run_perfbench(
            workloads=workloads,
            scale=scale,
            seed=args.seed,
            track_history=args.full_history,
            floor=args.floor,
            profile_path=args.profile,
            output_path=args.output,
        )
    except (KeyError, ValueError) as error:
        raise registry.CliError(str(error.args[0])) from error


# Render/to_dict are duck-typed: _cli_run returns a PerfbenchResult or
# a PairedResult (--trace-overhead, --physics-overhead); both carry
# render(), to_dict() and passed().
registry.register(registry.Experiment(
    name="perfbench",
    help="core throughput benchmark (events/sec, host-ops/sec)",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=lambda result: result.render(),
    to_dict=lambda result: result.to_dict(),
    exit_code=lambda result: 0 if result.passed() else 1,
))
