"""Tests for the experiment drivers (scaled-down populations)."""

import dataclasses

import pytest

from repro.experiments.ablation import (
    render_ablation,
    run_parity_ablation,
    run_quota_ablation,
)
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig8 import run_fig8
from repro.experiments.recovery import (
    reboot_overhead_report,
    run_spo_recovery,
)
from repro.experiments.runner import (
    EXPERIMENT_GEOMETRY,
    ExperimentConfig,
    build_system,
    experiment_span,
    run_workload,
)
from repro.experiments.table1 import (
    characterize,
    classify_intensity,
    render_table1,
    run_table1,
)
from repro.nand.geometry import NandGeometry
from repro.workloads.benchmarks import ProfileScenario

#: Small device so experiment-driver tests stay fast.
TEST_CONFIG = ExperimentConfig(
    geometry=NandGeometry(channels=2, chips_per_channel=2,
                          blocks_per_chip=16, pages_per_block=16,
                          page_size=2048),
    buffer_pages=64,
)


class TestRunner:
    def test_build_system_unknown_ftl(self):
        with pytest.raises(KeyError):
            build_system("nopeFTL")

    def test_build_system_all_registered(self):
        for name in ("pageFTL", "parityFTL", "rtfFTL", "flexFTL"):
            sim, array, buffer, ftl, controller = build_system(
                name, TEST_CONFIG)
            assert ftl.name == name

    def test_experiment_span_uses_smallest_ftl(self):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        smallest = min(build_system(n, TEST_CONFIG)[3].logical_pages
                       for n in ("pageFTL", "flexFTL"))
        assert span == int(0.5 * smallest)

    def test_run_workload_measured_phase_only(self):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        scenario = ProfileScenario("OLTP", span, total_ops=300, seed=1)
        result = run_workload(ftl_name="pageFTL",
                              scenario=scenario,
                              config=TEST_CONFIG)
        # Warmup wrote the whole span but is excluded from counters.
        assert result.stats.completed_requests == \
            scenario.total_ops
        assert result.counters["host_programs"] < span + 100

    def test_results_are_reproducible(self):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        scenario = ProfileScenario("Varmail", span, total_ops=300, seed=3)
        a = run_workload(ftl_name="flexFTL",
                         scenario=scenario,
                         config=TEST_CONFIG)
        b = run_workload(ftl_name="flexFTL",
                         scenario=scenario,
                         config=TEST_CONFIG)
        assert a.iops == pytest.approx(b.iops)
        assert a.erases == b.erases

    def test_default_geometry_is_scaled_paper_shape(self):
        assert EXPERIMENT_GEOMETRY.page_size == 4096
        assert EXPERIMENT_GEOMETRY.pages_per_block % 2 == 0


class TestTable1Driver:
    def test_run_table1_covers_all_workloads(self):
        characteristics = run_table1(logical_pages=2048, total_ops=2000)
        assert set(characteristics) == {
            "OLTP", "NTRX", "Webserver", "Varmail", "Fileserver"}

    def test_measured_ratios_match_configured(self):
        characteristics = run_table1(logical_pages=2048, total_ops=4000)
        assert characteristics["OLTP"].read_fraction == \
            pytest.approx(0.7, abs=0.05)
        assert characteristics["Varmail"].read_fraction == \
            pytest.approx(0.5, abs=0.05)

    def test_intensity_classes(self):
        characteristics = run_table1(logical_pages=2048, total_ops=4000)
        assert characteristics["OLTP"].intensiveness == "very high"
        assert characteristics["Webserver"].intensiveness == "moderate"
        assert characteristics["Varmail"].intensiveness == "high"
        assert characteristics["Fileserver"].intensiveness == "high"

    def test_classify_intensity_edges(self):
        assert classify_intensity(0.0, 0.0) == "very high"
        assert classify_intensity(0.01, 0.0) == "high"
        assert classify_intensity(0.01, 0.01) == "moderate"

    def test_render_contains_rows(self):
        table = render_table1(run_table1(logical_pages=1024,
                                         total_ops=1000))
        assert "Read:Write" in table
        assert "I/O intensiveness" in table

    def test_characterize_rejects_empty(self):
        with pytest.raises(ValueError):
            characterize("empty", [[]])


class TestFig4Driver:
    def test_small_population_shape(self):
        result = run_fig4(blocks=8, wordlines=16, seed=5)
        assert result.rps_matches_fps()
        fps = result.results["FPS"]
        unconstrained = result.results["unconstrained"]
        assert unconstrained.wpi.median > fps.wpi.median
        assert unconstrained.ber.median > fps.ber.median

    def test_render_mentions_panels(self):
        result = run_fig4(blocks=2, wordlines=8)
        text = result.render()
        assert "Figure 4(a)" in text
        assert "Figure 4(b)" in text
        assert "FPS" in text


class TestRecoveryDriver:
    def test_spo_recovery_succeeds(self):
        scenario = run_spo_recovery(wordlines=16, page_size=256, seed=4)
        assert scenario.success
        assert scenario.report.data_was_lost

    def test_spo_recovery_various_interrupt_points(self):
        for point in (0, 3, 15):
            scenario = run_spo_recovery(wordlines=16, page_size=128,
                                        msb_written_before_loss=point)
            assert scenario.success
            assert scenario.lost_wordline == point

    def test_invalid_interrupt_point(self):
        with pytest.raises(ValueError):
            run_spo_recovery(wordlines=8, msb_written_before_loss=8)

    def test_reboot_report_contains_paper_number(self):
        assert "81.92" in reboot_overhead_report()


class TestFig8Driver:
    @pytest.fixture(scope="class")
    def quick_result(self):
        return run_fig8(workloads=("Varmail",), config=TEST_CONFIG,
                        scale=0.05, utilization=0.6)

    def test_structure(self, quick_result):
        assert set(quick_result.runs) == {"Varmail"}
        assert set(quick_result.runs["Varmail"]) == {
            "pageFTL", "parityFTL", "rtfFTL", "flexFTL"}

    def test_normalized_iops_has_unit_baseline(self, quick_result):
        normalized = quick_result.normalized_iops()
        assert normalized["Varmail"]["pageFTL"] == pytest.approx(1.0)

    def test_render_contains_panels(self, quick_result):
        text = quick_result.render()
        assert "Figure 8(a)" in text
        assert "Figure 8(b)" in text
        assert "Figure 8(c)" in text


class TestAblationDrivers:
    def test_quota_ablation_runs(self):
        points = run_quota_ablation(fractions=(0.01, 0.05),
                                    total_ops=400, config=TEST_CONFIG,
                                    utilization=0.5)
        assert len(points) == 2
        assert all(p.iops > 0 for p in points)
        rendered = render_ablation(points)
        assert "q0=0.05" in rendered

    def test_parity_ablation_counts_backups(self):
        points = run_parity_ablation(intervals=(2, 0), total_ops=400,
                                     config=TEST_CONFIG,
                                     utilization=0.5)
        per_block = points["flexFTL (per block)"]
        fine = points["flexFTL (per 2 LSBs)"]
        parity = points["parityFTL (per 2 LSBs, FPS)"]
        assert per_block.result.counters["backup_programs"] < \
            fine.result.counters["backup_programs"]
        assert per_block.result.counters["backup_programs"] < \
            parity.result.counters["backup_programs"]
