"""Fault campaign: program-failure tolerance across FTLs.

The robustness counterpart of Figure 8: the same write-heavy workload
is replayed under increasing program-status failure rates on an FTL
*without* parity backup (pageFTL — the paper's no-sudden-power-off
baseline) and on flexFTL, whose Section 3.3 per-block parity pages
double as runtime program-failure protection.  A failed MSB program
destroys its paired LSB page; pageFTL has nothing to rebuild it from
and reports data loss, while flexFTL reconstructs it from the parity
page and re-drives it — zero logical data loss at rates that corrupt
the baseline.

Each grid point is one ``workload`` engine cell armed with a
:class:`~repro.faults.plan.FaultPlan`, so ``--jobs`` parallelism and
result caching behave exactly like fig8;
the per-rate injection seed derives from the base seed and the rate
only, so both FTLs face the *same* fault pressure at each rate.

With ``--cuts N > 0`` the campaign additionally runs flexFTL through
``N`` mid-run power cuts with recovery and resume (one more cell, with
``power_cuts=``), exercising the :mod:`repro.core.parity_backup` path
against live traffic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import registry
from repro.experiments.engine import (
    EngineOptions,
    derive_seed,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    experiment_span,
)
from repro.faults.plan import FaultPlan
from repro.metrics.report import render_table
from repro.workloads.benchmarks import ProfileScenario, WorkloadProfile

DEFAULT_FTLS: Sequence[str] = ("pageFTL", "flexFTL")
DEFAULT_RATES: Sequence[float] = (0.0, 0.002, 0.005)

#: Spare blocks reserved per chip for bad-block replacement — enough
#: for the default rates; the sweep's job is recovery, not exhaustion.
SPARE_BLOCKS = 4

#: The campaign workload: four steady, write-heavy 1-page streams.
CAMPAIGN_PROFILE = WorkloadProfile(
    name="campaign", read_fraction=0.3, intensiveness="very high",
    streams=4, npages=1, think=0.0, zipf_s=0.9,
)


@dataclasses.dataclass
class FaultCampaignResult:
    """Grid results plus the optional power-loss/resume epilogue."""

    grid: Dict[Tuple[str, float], RunResult]
    resume_ftl: Optional[str] = None
    resume_result: Optional[RunResult] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON projection for ``--json``."""
        data: Dict[str, object] = {
            "grid": {f"{ftl}@{rate}": result.to_dict()
                     for (ftl, rate), result in self.grid.items()},
        }
        if self.resume_result is not None:
            data["resume"] = {
                "ftl": self.resume_ftl,
                "result": self.resume_result.to_dict(),
            }
        return data


def build_campaign_scenario(span: int, total_ops: int,
                            seed: int) -> ProfileScenario:
    """The campaign workload: identical for every grid point."""
    return ProfileScenario(
        CAMPAIGN_PROFILE, span, total_ops,
        seeds=[derive_seed(seed, "campaign", i)
               for i in range(CAMPAIGN_PROFILE.streams)])


def campaign_config(
        config: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """The grid's system configuration (spare reserve armed)."""
    config = config or ExperimentConfig()
    if config.ftl_config.spare_blocks_per_chip == 0:
        config = dataclasses.replace(
            config,
            ftl_config=dataclasses.replace(
                config.ftl_config, spare_blocks_per_chip=SPARE_BLOCKS),
        )
    return config


def run_fault_campaign(
    ftls: Sequence[str] = DEFAULT_FTLS,
    rates: Sequence[float] = DEFAULT_RATES,
    total_ops: int = 3000,
    utilization: float = 0.6,
    seed: int = 1,
    cuts: int = 2,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> FaultCampaignResult:
    """Run the ``ftl x program-failure-rate`` grid (plus resume run)."""
    config = campaign_config(config)
    span = experiment_span(config, utilization=utilization, ftls=ftls)
    scenario = build_campaign_scenario(span, total_ops, seed)

    cells = [
        workload_cell(
            ftl, scenario=scenario, config=config,
            label=f"{ftl}@{rate:g}",
            faults=FaultPlan(seed=derive_seed(seed, "rate", rate),
                             program_fail_rate=rate),
        )
        for ftl in ftls for rate in rates
    ]
    resume_ftl = "flexFTL" if "flexFTL" in ftls else ftls[-1]
    if cuts > 0:
        # Cuts land inside the measured phase: a few thousand 1-page
        # ops at hundreds-of-microseconds programs span tens of ms.
        cells.append(workload_cell(
            resume_ftl, scenario=scenario, config=config,
            label=f"{resume_ftl} resume",
            power_cuts=[0.004 * (index + 1) for index in range(cuts)]))
    results = run_cells(cells, options=engine, label="fault_campaign")
    keys = [(ftl, float(rate)) for ftl in ftls for rate in rates]
    campaign = FaultCampaignResult(grid=dict(zip(keys, results)))
    if cuts > 0:
        campaign.resume_ftl = resume_ftl
        campaign.resume_result = results[-1]
    return campaign


def render_fault_campaign(campaign: FaultCampaignResult) -> str:
    """Grid table, loss headline, and the resume epilogue."""
    rows: List[List[object]] = []
    for (ftl, rate), result in campaign.grid.items():
        faults = result.stats.faults
        assert faults is not None  # a fault plan always attaches them
        rows.append([
            ftl,
            f"{rate:g}",
            faults.program_failures,
            faults.redriven_writes,
            faults.reconstructed_pages,
            faults.salvaged_pages,
            faults.retired_blocks,
            faults.lost_pages,
            "yes" if faults.degraded_mode else "no",
            f"{result.iops:.0f}",
        ])
    table = render_table(
        ["FTL", "fail rate", "pfails", "redriven", "reconstr",
         "salvaged", "retired", "lost", "degraded", "IOPS"],
        rows,
    )
    lines = [table]

    by_rate: Dict[float, Dict[str, RunResult]] = {}
    for (ftl, rate), result in campaign.grid.items():
        by_rate.setdefault(rate, {})[ftl] = result
    for rate in sorted(by_rate):
        cell = by_rate[rate]
        flex = cell.get("flexFTL")
        page = cell.get("pageFTL")
        if flex is None or page is None or rate == 0.0:
            continue
        flex_faults, page_faults = flex.stats.faults, page.stats.faults
        if flex_faults.program_failures > 0 \
                and flex_faults.lost_pages == 0 \
                and page_faults.lost_pages > 0:
            lines.append(
                f"rate {rate:g}: flexFTL recovered all "
                f"{flex_faults.program_failures} program failures "
                f"(0 pages lost); pageFTL lost "
                f"{page_faults.lost_pages} pages under the same "
                f"fault seed")
    if campaign.resume_result is not None:
        recoveries = campaign.resume_result.recoveries
        reconstructed = sum(int(r["reconstructed_pages"])
                            for r in recoveries)
        lost = sum(int(r["lost_pages"]) for r in recoveries)
        faults = campaign.resume_result.stats.faults
        cuts = faults.power_cuts if faults is not None else len(recoveries)
        lines.append(
            f"power-loss resume ({campaign.resume_ftl}): {cuts} cuts, "
            f"{reconstructed} pages parity-reconstructed, {lost} "
            f"durable pages lost")
    return "\n".join(lines)


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument(
        "--ftls", default=",".join(DEFAULT_FTLS),
        help="comma-separated FTLs to compare "
             f"(default {','.join(DEFAULT_FTLS)})")
    parser.add_argument(
        "--rates", default=",".join(f"{r:g}" for r in DEFAULT_RATES),
        help="comma-separated program-failure rates "
             f"(default {','.join(f'{r:g}' for r in DEFAULT_RATES)})")
    parser.add_argument(
        "--ops", type=int, default=3000,
        help="total operations across the worker streams (default 3000)")
    parser.add_argument(
        "--cuts", type=int, default=2,
        help="mid-run power cuts in the resume epilogue; 0 disables "
             "(default 2)")


def _cli_run(args, engine_options: EngineOptions):
    try:
        return run_fault_campaign(
            ftls=tuple(args.ftls.split(",")),
            rates=tuple(float(rate) for rate in args.rates.split(",")),
            total_ops=args.ops,
            seed=args.seed,
            cuts=args.cuts,
            engine=engine_options,
        )
    except (KeyError, ValueError) as error:
        raise registry.CliError(str(error.args[0])) from error


def _cli_render(campaign) -> str:
    return ("fault campaign (program-failure tolerance):\n"
            + render_fault_campaign(campaign))


registry.register(registry.Experiment(
    name="fault_campaign",
    help="fault-injection campaign: recovery and data loss across FTLs",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda campaign: campaign.to_dict(),
    parallel=True,
))
