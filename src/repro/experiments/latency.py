"""Read-latency analysis across the four FTLs.

Not a paper figure, but a direct consequence of the mechanisms the
paper models: a host read must wait for the chip's in-flight program,
so the page-type mix an FTL writes shapes the read tail — a 2000 us
MSB program can stall a read four times longer than an LSB program.
This experiment reports per-FTL read-latency percentiles under one
workload, using the same runs as the Figure 8 machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
from repro.metrics.latency import summary_row
from repro.metrics.report import render_table
from repro.workloads.benchmarks import ProfileScenario

DEFAULT_FTLS: Sequence[str] = ("pageFTL", "parityFTL", "rtfFTL",
                               "flexFTL")


def run_read_latency_comparison(
    workload: str = "NTRX",
    ftls: Sequence[str] = DEFAULT_FTLS,
    total_ops: int = 12000,
    utilization: float = 0.75,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> Dict[str, RunResult]:
    """Run one workload on several FTLs; returns results by FTL name."""
    config = config or ExperimentConfig()
    span = experiment_span(config, utilization=utilization)
    scenario = ProfileScenario(workload, span, total_ops=total_ops,
                               seed=seed)
    cells = [workload_cell(ftl, scenario=scenario, config=config,
                           label=ftl)
             for ftl in ftls]
    results = run_cells(cells, options=engine, label="latency")
    return dict(zip(ftls, results))


def render_read_latency(results: Dict[str, RunResult]) -> str:
    """Render the per-FTL read-latency percentile table (ms)."""
    rows: List[List[str]] = []
    for ftl, result in results.items():
        samples = result.stats.read_latencies
        if not samples:
            rows.append([ftl, "-", "-", "-", "-", "-"])
            continue
        rows.append(summary_row(ftl, samples))
    return render_table(
        ["FTL", "mean [ms]", "p50", "p95", "p99", "max"], rows)


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument("--workload", default="NTRX")
    parser.add_argument("--ops", type=int, default=8000)


def _cli_run(args, engine_options: EngineOptions) -> Dict[str, object]:
    results = run_read_latency_comparison(
        workload=args.workload, total_ops=args.ops, seed=args.seed,
        engine=engine_options)
    return {"workload": args.workload, "results": results}


def _cli_render(payload: Dict[str, object]) -> str:
    return (f"read latency percentiles on {payload['workload']} [ms]:\n"
            + render_read_latency(payload["results"]))


registry.register(registry.Experiment(
    name="latency",
    help="read-latency percentiles per FTL",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda payload: {
        "workload": payload["workload"],
        "results": {ftl: result.to_dict()
                    for ftl, result in payload["results"].items()},
    },
    parallel=True,
))
