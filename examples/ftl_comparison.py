#!/usr/bin/env python3
"""Compare the four FTLs on one workload (a slice of Figure 8).

Runs pageFTL, parityFTL, rtfFTL and flexFTL on the same generated
workload — fanned out across processes by the experiment engine — and
prints raw + normalised IOPS, erasures and peak write bandwidth — the
per-workload column of Figures 8(a) and 8(b).

Usage::

    python examples/ftl_comparison.py [workload]

where ``workload`` is one of OLTP, NTRX, Webserver, Varmail,
Fileserver (default: Fileserver).
"""

import sys

from repro.experiments import (
    EngineOptions,
    ExperimentConfig,
    experiment_span,
    run_cells,
    workload_cell,
)
from repro.experiments.fig8 import FTLS
from repro.metrics.report import render_table
from repro.workloads import PROFILES, ProfileScenario


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "Fileserver"
    if workload not in PROFILES:
        raise SystemExit(
            f"unknown workload {workload!r}; choose from "
            f"{sorted(PROFILES)}"
        )
    config = ExperimentConfig()
    span = experiment_span(config, utilization=0.75)
    scenario = ProfileScenario(workload, span, total_ops=12000, seed=1)
    profile = PROFILES[workload]
    print(f"workload: {workload} (R:W {profile.read_write_ratio}, "
          f"{profile.intensiveness} intensity)")

    print(f"  running {', '.join(FTLS)} in parallel ...")
    cells = [workload_cell(ftl, scenario=scenario, config=config,
                           label=ftl)
             for ftl in FTLS]
    outcomes = run_cells(cells, options=EngineOptions(jobs=4),
                         label="ftl_comparison")
    results = dict(zip(FTLS, outcomes))

    base = results["pageFTL"]
    rows = []
    for ftl in FTLS:
        result = results[ftl]
        peak = result.stats.write_bandwidth.percentile(1.0)
        rows.append([
            ftl,
            f"{result.iops:.0f}",
            f"{result.iops / base.iops:.2f}",
            result.erases,
            f"{result.write_amplification:.2f}",
            f"{peak:.1f}",
        ])
    print()
    print(render_table(
        ["FTL", "IOPS", "vs pageFTL", "erases", "WAF",
         "peak BW [MB/s]"], rows))


if __name__ == "__main__":
    main()
