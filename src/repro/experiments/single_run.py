"""The ``run`` CLI command: one FTL on one workload.

Not a paper figure — a probe for interactive exploration.  It executes
through the engine as a single cell, so repeated invocations with the
same parameters replay from the result cache.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import registry
from repro.experiments.engine import (
    EngineOptions,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    experiment_span,
)
from repro.metrics.report import render_table
from repro.workloads.benchmarks import PROFILES, ProfileScenario


def run_single(
    workload: str = "Varmail",
    ftl: str = "flexFTL",
    total_ops: int = 12000,
    utilization: float = 0.75,
    predictor: bool = False,
    seed: int = 1,
    engine: EngineOptions = None,
) -> "tuple[int, RunResult]":
    """Run one FTL on one workload with the standard preconditioning.

    Returns:
        ``(span, result)`` — the workload footprint in logical pages
        and the measured run.
    """
    config = ExperimentConfig(flex_use_predictor=predictor)
    span = experiment_span(config, utilization=utilization)
    scenario = ProfileScenario(workload, span, total_ops=total_ops,
                               seed=seed)
    (result,) = run_cells(
        [workload_cell(ftl, scenario=scenario, config=config,
                       label=f"{workload}/{ftl}")],
        options=engine, label="run")
    return span, result


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument("--workload", default="Varmail")
    parser.add_argument("--ftl", default="flexFTL")
    parser.add_argument("--ops", type=int, default=12000)
    parser.add_argument("--utilization", type=float, default=0.75)
    parser.add_argument("--predictor", action="store_true",
                        help="enable the Section 6 future-write "
                             "predictor")


def _cli_run(args, engine_options: EngineOptions) -> Dict[str, object]:
    if args.workload not in PROFILES:
        raise registry.CliError(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(PROFILES)}")
    registry.require_ftl(args.ftl)
    span, result = run_single(workload=args.workload, ftl=args.ftl,
                              total_ops=args.ops,
                              utilization=args.utilization,
                              predictor=args.predictor, seed=args.seed,
                              engine=engine_options)
    return {"workload": args.workload, "ftl": args.ftl,
            "ops": args.ops, "span": span, "result": result}


def _cli_render(payload: Dict[str, object]) -> str:
    result: RunResult = payload["result"]  # type: ignore[assignment]
    bandwidth = result.stats.write_bandwidth
    rows = [
        ["IOPS", f"{result.iops:.1f}"],
        ["block erasures", result.erases],
        ["write amplification", f"{result.write_amplification:.3f}"],
        ["peak write BW [MB/s]", f"{bandwidth.percentile(1.0):.1f}"],
        ["host programs", result.counters["host_programs"]],
        ["GC programs", result.counters["gc_programs"]],
        ["backup programs", result.counters["backup_programs"]],
    ]
    return (f"{payload['ftl']} on {payload['workload']} "
            f"({payload['ops']} ops, footprint {payload['span']} pages)\n"
            + render_table(["metric", "value"], rows))


registry.register(registry.Experiment(
    name="run",
    help="one FTL on one workload",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda payload: {
        "workload": payload["workload"],
        "ftl": payload["ftl"],
        "ops": payload["ops"],
        "span": payload["span"],
        "result": payload["result"].to_dict(),
    },
    parallel=True,
))
