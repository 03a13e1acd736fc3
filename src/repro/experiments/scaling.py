"""Parallelism scaling study: IOPS vs device width.

A sanity check of the discrete-event substrate the paper's results
ride on: with the workload held proportional to the device, IOPS
should scale close to linearly with the number of chips until the
channel buses saturate.  Also useful for sizing experiment geometries.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import registry
from repro.experiments.engine import (
    EngineOptions,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
)
from repro.metrics.report import render_table
from repro.nand.geometry import NandGeometry
from repro.workloads.benchmarks import ProfileScenario


@dataclasses.dataclass
class ScalingResult:
    """IOPS per device width."""

    points: List[Tuple[int, RunResult]]  # (total chips, result)

    def iops_by_chips(self) -> Dict[int, float]:
        """IOPS keyed by total chip count."""
        return {chips: result.iops for chips, result in self.points}

    def to_dict(self) -> Dict[str, object]:
        """JSON projection: one entry per device width."""
        return {"points": [{"chips": chips, "result": result.to_dict()}
                           for chips, result in self.points]}

    def render(self) -> str:
        """Render the chips/IOPS/speedup/efficiency table."""
        base_chips, base = self.points[0]
        rows = []
        for chips, result in self.points:
            speedup = result.iops / base.iops if base.iops else 0.0
            rows.append([chips, f"{result.iops:.0f}",
                         f"{speedup:.2f}",
                         f"{speedup / (chips / base_chips):.2f}"])
        return render_table(
            ["chips", "IOPS", "speedup", "efficiency"], rows)


def run_scaling_study(
    channel_counts: Sequence[int] = (1, 2, 4, 8),
    chips_per_channel: int = 2,
    ftl: str = "flexFTL",
    workload: str = "NTRX",
    ops_per_chip: int = 1200,
    utilization: float = 0.7,
    seed: int = 1,
    base_config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> ScalingResult:
    """Sweep channel count; workload and footprint scale with it."""
    base_config = base_config or ExperimentConfig()
    cells = []
    chip_counts: List[int] = []
    for channels in channel_counts:
        geometry = NandGeometry(
            channels=channels,
            chips_per_channel=chips_per_channel,
            blocks_per_chip=base_config.geometry.blocks_per_chip,
            pages_per_block=base_config.geometry.pages_per_block,
            page_size=base_config.geometry.page_size,
        )
        config = dataclasses.replace(base_config, geometry=geometry)
        chips = geometry.total_chips
        # footprint proportional to the device, seed shared
        data_pages = (geometry.blocks_per_chip
                      * geometry.pages_per_block * chips)
        span = max(64, int(data_pages * 0.8 * utilization))
        scenario = ProfileScenario(workload, span,
                                   total_ops=ops_per_chip * chips,
                                   seed=seed)
        cells.append(workload_cell(
            ftl, scenario=scenario,
            config=config, label=f"{chips} chips"))
        chip_counts.append(chips)
    results = run_cells(cells, options=engine, label="scaling")
    return ScalingResult(points=list(zip(chip_counts, results)))


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument("--ops-per-chip", type=int, default=800)


def _cli_run(args, engine_options: EngineOptions) -> ScalingResult:
    return run_scaling_study(ops_per_chip=args.ops_per_chip,
                             seed=args.seed, engine=engine_options)


registry.register(registry.Experiment(
    name="scaling",
    help="IOPS vs device parallelism",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=ScalingResult.render,
    to_dict=ScalingResult.to_dict,
    parallel=True,
))
