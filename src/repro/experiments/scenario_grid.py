"""The ``scenario_grid`` experiment: Table-1 presets × FTLs.

Runs every requested scenario preset against every requested FTL
through the engine (one ``workload`` cell per pair, so ``--jobs``
fan-out and the result cache apply), and reports the Figure-8 metrics
plus a *mix audit*: the measured read fraction of the completed
traffic against the preset's declared read fraction.  The audit is the
end-to-end check that the generator's probability tables survive the
whole pipeline — phase schedule, per-stream seeding, closed-loop
delivery — unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments import registry
from repro.experiments.engine import (
    EngineOptions,
    derive_seed,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    ExperimentConfig,
    PAPER_FTLS,
    RunResult,
    experiment_span,
)
from repro.metrics.report import render_table
from repro.scenarios.presets import PRESETS, TABLE1_PRESETS, make_preset

#: Measured operations per preset (across all streams and phases).
DEFAULT_OPS = 8000


def measured_read_fraction(result: RunResult) -> float:
    """Read share of the completed measured-phase requests."""
    reads = result.stats.completed_reads
    writes = result.stats.completed_writes
    total = reads + writes
    return float("nan") if total == 0 else reads / total


@dataclasses.dataclass
class ScenarioGridResult:
    """Per-(preset, FTL) measured runs plus the declared mixes."""

    span: int
    total_ops: int
    presets: List[str]
    ftls: List[str]
    declared: Dict[str, float]
    cells: Dict[str, Dict[str, RunResult]]

    def result(self, preset: str, ftl: str) -> RunResult:
        return self.cells[preset][ftl]

    def mix_error(self, preset: str, ftl: str) -> float:
        """|measured − declared| read fraction for one grid cell."""
        return abs(measured_read_fraction(self.result(preset, ftl))
                   - self.declared[preset])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span": self.span,
            "total_ops": self.total_ops,
            "presets": list(self.presets),
            "ftls": list(self.ftls),
            "declared": dict(self.declared),
            "cells": {preset: {ftl: result.to_dict()
                               for ftl, result in row.items()}
                      for preset, row in self.cells.items()},
        }


def run_scenario_grid(
    presets: Sequence[str] = TABLE1_PRESETS,
    ftls: Sequence[str] = PAPER_FTLS,
    total_ops: int = DEFAULT_OPS,
    utilization: float = 0.75,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> ScenarioGridResult:
    """Run the preset × FTL grid and collect measured results.

    Every cell carries the preset's serializable scenario *spec*, so a
    pool worker regenerates the op sequence lazily from the seed
    instead of receiving it materialized, and serial, parallel and
    cached executions are byte-identical.
    """
    for preset in presets:
        if preset not in PRESETS:
            raise KeyError(f"unknown preset {preset!r}; choose from "
                           f"{sorted(PRESETS)}")
    config = config or ExperimentConfig()
    span = experiment_span(config, utilization=utilization, ftls=ftls)
    cells = []
    for preset in presets:
        scenario = make_preset(preset, span, total_ops,
                               seed=derive_seed(seed, preset))
        for ftl in ftls:
            cells.append(workload_cell(ftl, scenario=scenario,
                                       config=config,
                                       label=f"{preset}/{ftl}"))
    results = run_cells(cells, options=engine, label="scenario_grid")
    grid: Dict[str, Dict[str, RunResult]] = {}
    index = 0
    for preset in presets:
        grid[preset] = {}
        for ftl in ftls:
            grid[preset][ftl] = results[index]
            index += 1
    return ScenarioGridResult(
        span=span,
        total_ops=total_ops,
        presets=list(presets),
        ftls=list(ftls),
        declared={preset: PRESETS[preset].read_fraction
                  for preset in presets},
        cells=grid,
    )


def render_scenario_grid(result: ScenarioGridResult) -> str:
    """Text report: one row per (preset, FTL) grid cell."""
    rows: List[List[str]] = []
    for preset in result.presets:
        declared = result.declared[preset]
        for ftl in result.ftls:
            run = result.result(preset, ftl)
            measured = measured_read_fraction(run)
            rows.append([
                preset,
                ftl,
                f"{run.iops:.1f}",
                str(run.erases),
                f"{run.write_amplification:.3f}",
                f"{measured:.3f}",
                f"{declared:.3f}",
                f"{abs(measured - declared):.3f}",
            ])
    header = ["scenario", "FTL", "IOPS", "erases", "WA",
              "read frac", "declared", "|err|"]
    title = (f"scenario grid: {result.total_ops} ops, footprint "
             f"{result.span} pages")
    return title + "\n" + render_table(header, rows)


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument("--presets",
                        default=",".join(TABLE1_PRESETS),
                        help="comma-separated preset names "
                             f"(default {','.join(TABLE1_PRESETS)})")
    parser.add_argument("--ftls", default=",".join(PAPER_FTLS),
                        help="comma-separated FTL names "
                             f"(default {','.join(PAPER_FTLS)})")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="measured ops per preset "
                             f"(default {DEFAULT_OPS})")
    parser.add_argument("--utilization", type=float, default=0.75,
                        help="footprint as a fraction of the smallest "
                             "logical space (default 0.75)")


def _cli_run(args, engine_options: EngineOptions) -> ScenarioGridResult:
    presets = [name for name in args.presets.split(",") if name]
    ftls = [name for name in args.ftls.split(",") if name]
    for preset in presets:
        if preset not in PRESETS:
            raise registry.CliError(
                f"unknown preset {preset!r}; choose from "
                f"{sorted(PRESETS)}")
    for ftl in ftls:
        registry.require_ftl(ftl)
    return run_scenario_grid(presets=presets, ftls=ftls,
                             total_ops=args.ops,
                             utilization=args.utilization,
                             seed=args.seed, engine=engine_options)


registry.register(registry.Experiment(
    name="scenario_grid",
    help="scenario presets x FTLs with a read/write mix audit",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=render_scenario_grid,
    to_dict=ScenarioGridResult.to_dict,
    parallel=True,
))
