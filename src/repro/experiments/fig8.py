"""Figure 8: performance and lifetime comparison of the four FTLs.

Reproduces all three panels:

* **8(a)** — normalised IOPS of pageFTL / parityFTL / rtfFTL / flexFTL
  under the five workloads (normalised to pageFTL);
* **8(b)** — normalised block erasure counts under the same runs;
* **8(c)** — the CDF of write bandwidth for Varmail.

Expected shape (what the paper reports, and what the benchmark
harness asserts):

* flexFTL >= parityFTL and rtfFTL everywhere;
* flexFTL ~ pageFTL on the intensive and read-dominant workloads,
  above pageFTL on Varmail;
* flexFTL and pageFTL erase the fewest blocks; parityFTL and rtfFTL
  erase noticeably more;
* flexFTL's peak write bandwidth on Varmail is ~2x rtfFTL's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

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
from repro.metrics.bandwidth import cdf_points, peak_ratio
from repro.metrics.iops import normalize
from repro.metrics.report import render_grouped_bars, render_table
from repro.workloads.benchmarks import ProfileScenario

#: Order the paper's figures use.
FTLS: Sequence[str] = ("pageFTL", "parityFTL", "rtfFTL", "flexFTL")
WORKLOADS: Sequence[str] = ("OLTP", "NTRX", "Webserver", "Varmail",
                            "Fileserver")

#: Measured operations per workload at full scale.
DEFAULT_OPS: Dict[str, int] = {
    "OLTP": 16000,
    "NTRX": 16000,
    "Webserver": 16000,
    "Varmail": 24000,
    "Fileserver": 16000,
}


@dataclasses.dataclass
class Fig8Result:
    """All runs of the Figure 8 comparison, keyed [workload][ftl]."""

    runs: Dict[str, Dict[str, RunResult]]
    span: int

    # -- Figure 8(a) ---------------------------------------------------

    def iops(self) -> Dict[str, Dict[str, float]]:
        """Raw IOPS per workload and FTL."""
        return {w: {f: r.iops for f, r in ftls.items()}
                for w, ftls in self.runs.items()}

    def normalized_iops(self, baseline: str = "pageFTL"
                        ) -> Dict[str, Dict[str, float]]:
        """Figure 8(a): IOPS normalised to the baseline FTL."""
        return {w: normalize(v, baseline) for w, v in self.iops().items()}

    # -- Figure 8(b) ---------------------------------------------------

    def erasures(self) -> Dict[str, Dict[str, float]]:
        """Raw block erasure counts per workload and FTL."""
        return {w: {f: float(r.erases) for f, r in ftls.items()}
                for w, ftls in self.runs.items()}

    def normalized_erasures(self, baseline: str = "pageFTL"
                            ) -> Dict[str, Dict[str, float]]:
        """Figure 8(b): erasure counts normalised to the baseline.

        A baseline that erased nothing (possible in short smoke runs)
        is floored at one erase so the ratios stay defined.
        """
        return {w: normalize(v, baseline, zero_floor=1.0)
                for w, v in self.erasures().items()}

    # -- Figure 8(c) ---------------------------------------------------

    def varmail_cdf(self, fractions: Sequence[float] = (
            0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
    ) -> Dict[str, List["tuple[float, float]"]]:
        """Figure 8(c): write-bandwidth CDF points for Varmail."""
        if "Varmail" not in self.runs:
            raise KeyError("Varmail was not part of this comparison")
        return {
            ftl: cdf_points(result.stats.write_bandwidth, fractions)
            for ftl, result in self.runs["Varmail"].items()
        }

    def varmail_peak_ratio(self, numerator: str = "flexFTL",
                           denominator: str = "rtfFTL") -> float:
        """The paper's 2.13x peak-bandwidth headline for Varmail."""
        trackers = {f: r.stats.write_bandwidth
                    for f, r in self.runs["Varmail"].items()}
        return peak_ratio(trackers, numerator, denominator)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON projection: every run plus both normalised panels."""
        return {
            "span": self.span,
            "runs": {workload: {ftl: run.to_dict()
                                for ftl, run in ftls.items()}
                     for workload, ftls in self.runs.items()},
            "normalized_iops": self.normalized_iops(),
            "normalized_erasures": self.normalized_erasures(),
        }

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Full text report: both bar panels plus the Varmail CDF."""
        parts = [
            "Figure 8(a): normalized IOPS (baseline pageFTL = 1.0)",
            render_grouped_bars(self.normalized_iops(), FTLS),
            "",
            "Figure 8(b): normalized block erasure counts "
            "(baseline pageFTL = 1.0)",
            render_grouped_bars(self.normalized_erasures(), FTLS),
        ]
        if "Varmail" in self.runs:
            from repro.metrics.plots import ascii_cdf

            fine = [f / 20 for f in range(1, 21)]
            cdf = self.varmail_cdf()
            fractions = [p[0] for p in next(iter(cdf.values()))]
            headers = ["CDF"] + [f"{f:.2f}" for f in fractions]
            rows = [[ftl] + [f"{mbps:.1f}" for _, mbps in points]
                    for ftl, points in cdf.items()]
            parts += [
                "",
                "Figure 8(c): write bandwidth CDF for Varmail [MB/s]",
                render_table(headers, rows),
                "",
                ascii_cdf(self.varmail_cdf(fine)),
                "",
                f"peak bandwidth flexFTL / rtfFTL = "
                f"{self.varmail_peak_ratio():.2f}x",
            ]
        return "\n".join(parts)


def run_fig8(
    workloads: Optional[Sequence[str]] = None,
    ftls: Sequence[str] = FTLS,
    config: Optional[ExperimentConfig] = None,
    ops: Optional[Mapping[str, int]] = None,
    utilization: float = 0.75,
    seed: int = 1,
    scale: float = 1.0,
    engine: Optional[EngineOptions] = None,
) -> Fig8Result:
    """Run the Figure 8 comparison.

    Args:
        workloads: workloads to run (default: all five of Table 1).
        ftls: FTLs to compare (default: the paper's four).
        config: system configuration (default: scaled device).
        ops: measured operations per workload.
        utilization: workload footprint as a fraction of logical space.
        seed: workload generation seed.
        scale: multiply the per-workload op counts (0.25 gives a quick
            smoke-scale run; 1.0 is the full experiment).
        engine: parallel-execution options; the (workload x FTL) grid
            fans out one cell per run.

    Returns:
        A :class:`Fig8Result` holding every run.
    """
    workloads = list(workloads or WORKLOADS)
    config = config or ExperimentConfig()
    base_ops = dict(ops or DEFAULT_OPS)
    span = experiment_span(config, utilization=utilization)
    cells = []
    coords = []
    for workload in workloads:
        total = max(200, int(base_ops.get(workload, 16000) * scale))
        scenario = ProfileScenario(workload, span, total_ops=total,
                                   seed=seed)
        for ftl in ftls:
            cells.append(workload_cell(ftl, scenario=scenario,
                                       config=config,
                                       label=f"{workload}/{ftl}"))
            coords.append((workload, ftl))
    results = run_cells(cells, options=engine, label="fig8")
    runs: Dict[str, Dict[str, RunResult]] = {}
    for (workload, ftl), result in zip(coords, results):
        runs.setdefault(workload, {})[ftl] = result
    return Fig8Result(runs=runs, span=span)


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all five)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="op-count multiplier (default 1.0)")
    parser.add_argument("--utilization", type=float, default=0.75)


def _cli_run(args, engine_options: EngineOptions) -> Fig8Result:
    workloads = args.workloads.split(",") if args.workloads else None
    return run_fig8(workloads=workloads, scale=args.scale,
                    utilization=args.utilization, seed=args.seed,
                    engine=engine_options)


registry.register(registry.Experiment(
    name="fig8",
    help="IOPS / erasures / bandwidth CDF",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=Fig8Result.render,
    to_dict=Fig8Result.to_dict,
    parallel=True,
))
