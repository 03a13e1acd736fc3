"""Related-work comparison: LSB-only slcFTL [4] vs flexFTL (Section 5).

The paper argues that the LSB-only approach reaches SLC-class speed
but "wastes half the capacity of the block", while flexFTL keeps the
speed without the sacrifice.  This benchmark runs both on an equal
footprint (sized to fit slcFTL's halved logical space) and reports
the cost of the wasted half: structurally higher utilisation, hence
heavier garbage collection and several times more erasures.
"""

from repro.experiments.runner import experiment_span, run_workload
from repro.metrics.report import render_table
from repro.workloads.benchmarks import ProfileScenario

from conftest import BENCH_CONFIG


def test_related_work_slc_mode(benchmark, save_report):
    span = experiment_span(BENCH_CONFIG, utilization=0.75,
                           ftls=("slcFTL",))
    scenario = ProfileScenario("Fileserver", span, total_ops=12000,
                               seed=1)

    def run_all():
        return {
            name: run_workload(ftl_name=name, scenario=scenario,
                               config=BENCH_CONFIG)
            for name in ("pageFTL", "flexFTL", "slcFTL")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        bandwidth = result.stats.write_bandwidth
        rows.append([
            name, f"{result.iops:.0f}", result.erases,
            f"{result.write_amplification:.2f}",
            f"{bandwidth.percentile(1.0):.1f}",
            result.logical_pages,
        ])
    save_report(
        "related_work_slc_mode",
        render_table(["FTL", "IOPS", "erases", "WAF",
                      "peak BW [MB/s]", "logical pages"], rows),
    )

    flex = results["flexFTL"]
    slc = results["slcFTL"]
    # slcFTL exposes only half the capacity ...
    assert slc.logical_pages < 0.6 * flex.logical_pages
    # ... reaches flexFTL-class speed (that part of [4] is real) ...
    assert slc.iops > 0.9 * flex.iops
    # ... but pays for the wasted half with several times the
    # erasures — the paper's §5 argument, quantified.
    assert slc.erases > 2.5 * flex.erases
