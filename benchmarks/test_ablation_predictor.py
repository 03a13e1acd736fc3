"""Extension ablation: the Section 6 future-write predictor.

The paper's closing direction: with a future-write estimate, the
background collector can reclaim blocks just in time so more LSB
writes serve future bursts.  The regime where this matters is light
device pressure — the free-block threshold never trips, so without a
predictor the quota starves across bursts.
"""

import dataclasses

from repro.experiments.runner import (
    ExperimentConfig,
    experiment_span,
    run_workload,
)
from repro.metrics.report import render_table
from repro.workloads.benchmarks import ProfileScenario

from conftest import BENCH_CONFIG


def test_ablation_future_write_predictor(benchmark, save_report):
    config = BENCH_CONFIG
    span = experiment_span(config, utilization=0.5)
    scenario = ProfileScenario("Varmail", span, total_ops=14400, seed=1)

    def run_both():
        base = run_workload(ftl_name="flexFTL", scenario=scenario,
                            config=config)
        with_predictor = run_workload(
            ftl_name="flexFTL", scenario=scenario,
            config=dataclasses.replace(config, flex_use_predictor=True))
        reference = run_workload(ftl_name="pageFTL", scenario=scenario,
                                 config=config)
        return base, with_predictor, reference

    base, with_predictor, reference = benchmark.pedantic(
        run_both, rounds=1, iterations=1)

    rows = []
    for label, result in [
        ("flexFTL (paper)", base),
        ("flexFTL + predictor (Sec. 6)", with_predictor),
        ("pageFTL (reference)", reference),
    ]:
        bandwidth = result.stats.write_bandwidth
        rows.append([
            label, f"{result.iops:.0f}",
            f"{bandwidth.percentile(0.9):.1f}",
            result.erases,
            f"{result.write_amplification:.2f}",
            result.counters.get("quota", "-"),
        ])
    save_report(
        "ablation_future_write_predictor",
        render_table(["configuration", "IOPS", "p90 BW [MB/s]",
                      "erases", "WAF", "final q"], rows),
    )

    # Just-in-time collection recovers the quota the bursts spend ...
    assert with_predictor.counters["quota"] > base.counters["quota"]
    # ... which buys IOPS in this regime ...
    assert with_predictor.iops > 1.05 * base.iops
    assert with_predictor.iops > reference.iops
    # ... at an erase cost (the paper's implied trade-off).
    assert with_predictor.erases >= base.erases
