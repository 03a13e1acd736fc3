"""Ablations of flexFTL's design parameters.

The paper fixes three knobs without exploring them; DESIGN.md calls
them out and these sweeps quantify each:

* **A1** — the initial quota ``q`` (paper: 5 % of the LSB pages);
* **A2** — the utilisation thresholds ``u_high``/``u_low``
  (paper: 80 % / 10 %);
* **A3** — the parity-sharing granularity: one parity page per two
  LSB pages (the FPS ceiling of [6]) versus one per block (flexFTL's
  per-block scheme, only possible under RPS).

Two substrate ablations ride along: the GC victim-selection policy
(**A4**) and the Section 6 future-write predictor (**A5**).  Every
sweep is a grid of independent runs, so all five execute through the
parallel engine (one cell per configuration).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.page_allocator import PolicyConfig
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
from repro.workloads.benchmarks import ProfileScenario


@dataclasses.dataclass
class AblationPoint:
    """One configuration of a sweep and its measured outcome."""

    label: str
    result: RunResult

    @property
    def iops(self) -> float:
        """Measured-phase IOPS of this configuration."""
        return self.result.iops

    @property
    def peak_bandwidth(self) -> float:
        """Highest active-window write bandwidth [MB/s]."""
        samples = self.result.stats.write_bandwidth.samples_mbps()
        return max(samples) if samples else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON projection (label plus the full run result)."""
        return {"label": self.label, "result": self.result.to_dict()}


def _scenario(config: ExperimentConfig, total_ops: int,
              utilization: float, seed: int, workload: str
              ) -> ProfileScenario:
    span = experiment_span(config, utilization=utilization)
    return ProfileScenario(workload, span, total_ops=total_ops, seed=seed)


def _run_points(
    labelled_configs: Sequence[Tuple[str, str, ExperimentConfig]],
    scenario: ProfileScenario,
    engine: Optional[EngineOptions],
    sweep: str,
) -> List[AblationPoint]:
    """Run (label, ftl, config) triples as one engine batch."""
    cells = [workload_cell(ftl, scenario=scenario, config=config,
                           label=label)
             for label, ftl, config in labelled_configs]
    results = run_cells(cells, options=engine, label=sweep)
    return [AblationPoint(label, result)
            for (label, _, _), result in zip(labelled_configs, results)]


def run_quota_ablation(
    fractions: Sequence[float] = (0.0125, 0.025, 0.05, 0.1, 0.2),
    workload: str = "Varmail",
    total_ops: int = 12000,
    utilization: float = 0.75,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> List[AblationPoint]:
    """A1: sweep the initial quota fraction (paper value 0.05)."""
    config = config or ExperimentConfig()
    scenario = _scenario(config, total_ops, utilization, seed, workload)
    grid = []
    for fraction in fractions:
        swept = dataclasses.replace(
            config,
            policy_config=dataclasses.replace(config.policy_config,
                                              quota_fraction=fraction),
        )
        grid.append((f"q0={fraction:.4g}", "flexFTL", swept))
    return _run_points(grid, scenario, engine, "ablation/quota")


def run_threshold_ablation(
    pairs: Sequence[Tuple[float, float]] = (
        (0.5, 0.05), (0.8, 0.1), (0.9, 0.3), (0.99, 0.0),
    ),
    workload: str = "Varmail",
    total_ops: int = 12000,
    utilization: float = 0.75,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> List[AblationPoint]:
    """A2: sweep (u_high, u_low) (paper values 0.8 / 0.1)."""
    config = config or ExperimentConfig()
    scenario = _scenario(config, total_ops, utilization, seed, workload)
    grid = []
    for u_high, u_low in pairs:
        swept = dataclasses.replace(
            config,
            policy_config=dataclasses.replace(config.policy_config,
                                              u_high=u_high, u_low=u_low),
        )
        grid.append((f"u_high={u_high} u_low={u_low}", "flexFTL", swept))
    return _run_points(grid, scenario, engine, "ablation/thresholds")


def run_parity_ablation(
    intervals: Sequence[int] = (2, 8, 0),
    workload: str = "Fileserver",
    total_ops: int = 12000,
    utilization: float = 0.75,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> Dict[str, AblationPoint]:
    """A3: parity-sharing granularity.

    Runs parityFTL (the FPS ceiling: 2 LSB pages per parity page) and
    flexFTL at several parity intervals, including the paper's
    per-block scheme (interval 0).  The interesting outputs are the
    backup-program count and the erasure count.
    """
    config = config or ExperimentConfig()
    scenario = _scenario(config, total_ops, utilization, seed, workload)
    grid: List[Tuple[str, str, ExperimentConfig]] = [
        ("parityFTL (per 2 LSBs, FPS)", "parityFTL", config),
    ]
    for interval in intervals:
        swept = dataclasses.replace(config, flex_parity_interval=interval)
        label = ("flexFTL (per block)" if interval == 0
                 else f"flexFTL (per {interval} LSBs)")
        grid.append((label, "flexFTL", swept))
    points = _run_points(grid, scenario, engine, "ablation/parity")
    # The first label is a display name; keep the historical dict keys.
    keyed = {point.label: point for point in points}
    keyed["parityFTL (per 2 LSBs, FPS)"] = AblationPoint(
        "parityFTL", keyed["parityFTL (per 2 LSBs, FPS)"].result)
    return keyed


def run_gc_policy_ablation(
    policies: Sequence[str] = ("greedy", "cost_benefit"),
    workload: str = "NTRX",
    total_ops: int = 12000,
    utilization: float = 0.85,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> List[AblationPoint]:
    """A4: GC victim-selection policy.

    The paper's FTLs all use greedy selection; an age-weighted
    cost-benefit policy separates hot and cold blocks, which shows up
    as lower write amplification on skewed workloads under pressure.
    Run at high utilisation so garbage collection actually dominates.
    """
    config = config or ExperimentConfig()
    scenario = _scenario(config, total_ops, utilization, seed, workload)
    grid = []
    for policy in policies:
        swept = dataclasses.replace(
            config,
            ftl_config=dataclasses.replace(config.ftl_config,
                                           gc_policy=policy),
        )
        grid.append((f"gc={policy}", "flexFTL", swept))
    return _run_points(grid, scenario, engine, "ablation/gc")


def run_predictor_ablation(
    workload: str = "Varmail",
    total_ops: int = 12000,
    utilization: float = 0.75,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> List[AblationPoint]:
    """A5: the Section 6 future-write predictor, off vs on.

    pageFTL rides along as the performance reference the predictor is
    trying to close the gap to.
    """
    config = config or ExperimentConfig()
    scenario = _scenario(config, total_ops, utilization, seed, workload)
    boosted = dataclasses.replace(config, flex_use_predictor=True)
    grid = [
        ("flexFTL", "flexFTL", config),
        ("flexFTL+predictor", "flexFTL", boosted),
        ("pageFTL (reference)", "pageFTL", config),
    ]
    return _run_points(grid, scenario, engine, "ablation/predictor")


def render_ablation(points: Sequence[AblationPoint]) -> str:
    """Render a sweep as a table of the headline metrics."""
    headers = ["configuration", "IOPS", "peak BW [MB/s]", "erases",
               "WAF", "backup programs"]
    rows = []
    for point in points:
        rows.append([
            point.label,
            f"{point.iops:.0f}",
            f"{point.peak_bandwidth:.1f}",
            point.result.erases,
            f"{point.result.write_amplification:.2f}",
            point.result.counters["backup_programs"],
        ])
    return render_table(headers, rows)


# -- CLI registration --------------------------------------------------

#: CLI sweep name -> runner (all take ``seed`` and ``engine``).
ABLATIONS = {
    "quota": run_quota_ablation,
    "thresholds": run_threshold_ablation,
    "parity": run_parity_ablation,
    "gc": run_gc_policy_ablation,
    "predictor": run_predictor_ablation,
}


def _cli_arguments(parser) -> None:
    parser.add_argument("which", choices=tuple(ABLATIONS))


def _cli_run(args, engine_options: EngineOptions) -> List[AblationPoint]:
    points = ABLATIONS[args.which](seed=args.seed, engine=engine_options)
    if isinstance(points, dict):
        points = list(points.values())
    return points


registry.register(registry.Experiment(
    name="ablation",
    help="design-parameter sweeps",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=render_ablation,
    to_dict=lambda points: {"points": [p.to_dict() for p in points]},
    parallel=True,
))
