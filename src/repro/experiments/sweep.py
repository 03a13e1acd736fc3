"""Generic parameter sweeps over the experiment runner.

A light harness for design-space exploration: give it named parameter
axes and a builder that turns one combination into an
:class:`~repro.experiments.runner.ExperimentConfig` (plus optional
workload overrides), and it returns tidy result rows.  Used by the
buffer-size ablation and the design-space example.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

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

#: Maps one parameter combination to a config.
ConfigBuilder = Callable[[Mapping[str, object]], ExperimentConfig]


@dataclasses.dataclass
class SweepRow:
    """One parameter combination and its measured outcome."""

    params: Dict[str, object]
    result: RunResult

    def cell(self, metric: str) -> float:
        """Extract a metric by name (used by the renderer)."""
        if metric == "iops":
            return self.result.iops
        if metric == "erases":
            return float(self.result.erases)
        if metric == "waf":
            return self.result.write_amplification
        if metric == "peak_bw":
            samples = self.result.stats.write_bandwidth.samples_mbps()
            return max(samples) if samples else 0.0
        raise KeyError(f"unknown metric {metric!r}")


def run_sweep(
    axes: Mapping[str, Sequence[object]],
    config_builder: ConfigBuilder,
    ftl: str = "flexFTL",
    workload: str = "Varmail",
    total_ops: int = 8000,
    utilization: float = 0.75,
    seed: int = 1,
    engine: Optional[EngineOptions] = None,
) -> List[SweepRow]:
    """Run the cartesian product of ``axes``.

    The workload is generated once per distinct footprint (configs may
    change the geometry, which changes the logical span), so rows with
    the same device shape share identical inputs.  Each combination is
    one engine cell, so sweeps parallelise across processes.
    """
    if not axes:
        raise ValueError("need at least one axis")
    names = list(axes)
    scenarios: Dict[int, ProfileScenario] = {}
    cells = []
    combos: List[Dict[str, object]] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        params = dict(zip(names, combo))
        config = config_builder(params)
        span = experiment_span(config, utilization=utilization)
        if span not in scenarios:
            scenarios[span] = ProfileScenario(
                workload, span, total_ops=total_ops, seed=seed)
        label = " ".join(f"{k}={v}" for k, v in params.items())
        cells.append(workload_cell(ftl, scenario=scenarios[span],
                                   config=config, label=label))
        combos.append(params)
    results = run_cells(cells, options=engine, label="sweep")
    return [SweepRow(params=params, result=result)
            for params, result in zip(combos, results)]


def render_sweep(rows: Sequence[SweepRow],
                 metrics: Iterable[str] = ("iops", "peak_bw", "erases",
                                           "waf")) -> str:
    """Render sweep rows as an aligned table."""
    if not rows:
        raise ValueError("nothing to render")
    metrics = list(metrics)
    param_names = list(rows[0].params)
    headers = param_names + metrics
    table_rows = []
    for row in rows:
        cells: List[object] = [row.params[name] for name in param_names]
        for metric in metrics:
            value = row.cell(metric)
            cells.append(f"{value:.0f}" if metric in ("iops", "erases")
                         else f"{value:.2f}")
        table_rows.append(cells)
    return render_table(headers, table_rows)
