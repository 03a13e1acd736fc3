"""Tests for the Section 6 future-write predictor."""

import dataclasses

import pytest

from repro.core.flexftl import FlexFtl
from repro.core.predictor import EwmaBurstPredictor
from repro.experiments.runner import (
    ExperimentConfig,
    experiment_span,
    run_workload,
)
from repro.nand.geometry import NandGeometry
from repro.workloads.benchmarks import ProfileScenario


class TestEwmaBurstPredictor:
    def test_initial_estimate(self):
        predictor = EwmaBurstPredictor(initial_estimate=100.0)
        assert predictor.predicted_burst_pages() == 100.0
        assert EwmaBurstPredictor().predicted_burst_pages() == 0.0

    def test_single_burst_learned(self):
        predictor = EwmaBurstPredictor(gap_threshold=0.1, alpha=1.0)
        for i in range(50):
            predictor.observe_write(i * 0.001)
        # burst ends when a large gap is observed
        predictor.observe_write(10.0)
        assert predictor.bursts_observed == 1
        assert predictor.predicted_burst_pages() == pytest.approx(50.0)

    def test_gap_query_folds_open_burst(self):
        predictor = EwmaBurstPredictor(gap_threshold=0.1, alpha=1.0)
        for i in range(20):
            predictor.observe_write(i * 0.001)
        assert predictor.in_burst_pages == 20
        assert predictor.predicted_burst_pages(now=5.0) == \
            pytest.approx(20.0)
        assert predictor.in_burst_pages == 0

    def test_ewma_smooths(self):
        predictor = EwmaBurstPredictor(gap_threshold=0.1, alpha=0.5)
        for i in range(10):
            predictor.observe_write(i * 0.001)
        predictor.observe_write(1.0)  # closes burst of 10
        for i in range(30):
            predictor.observe_write(1.0 + i * 0.001)
        predictor.predicted_burst_pages(now=5.0)  # closes burst of 31
        estimate = predictor.predicted_burst_pages()
        assert 10 < estimate < 31

    def test_multi_page_writes(self):
        predictor = EwmaBurstPredictor(gap_threshold=0.1, alpha=1.0)
        predictor.observe_write(0.0, pages=8)
        predictor.observe_write(0.001, pages=8)
        assert predictor.in_burst_pages == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaBurstPredictor(gap_threshold=0.0)
        with pytest.raises(ValueError):
            EwmaBurstPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaBurstPredictor(initial_estimate=-1.0)
        predictor = EwmaBurstPredictor()
        with pytest.raises(ValueError):
            predictor.observe_write(0.0, pages=0)


class TestFlexFtlPredictorIntegration:
    CONFIG = ExperimentConfig(
        geometry=NandGeometry(channels=2, chips_per_channel=2,
                              blocks_per_chip=24, pages_per_block=32,
                              page_size=2048),
        buffer_pages=64,
    )

    def test_predictor_observes_host_writes(self):
        from repro.experiments.runner import build_system
        config = dataclasses.replace(self.CONFIG,
                                     flex_use_predictor=True)
        _, _, _, ftl, _ = build_system("flexFTL", config)
        assert isinstance(ftl, FlexFtl)
        assert ftl.predictor is not None

    def test_predictor_triggers_extra_collection(self):
        span = experiment_span(self.CONFIG, utilization=0.45)
        scenario = ProfileScenario("Varmail", span, total_ops=4000,
                                   seed=2)
        base = run_workload(ftl_name="flexFTL",
                            scenario=scenario,
                            config=self.CONFIG)
        boosted = run_workload(
            ftl_name="flexFTL", scenario=scenario,
            config=dataclasses.replace(self.CONFIG,
                                       flex_use_predictor=True))
        # Just-in-time collection leaves the quota healthier.
        assert boosted.counters["quota"] >= base.counters["quota"]
        assert boosted.counters["gc_programs"] >= \
            base.counters["gc_programs"]

    def test_predictor_absent_means_paper_behaviour(self):
        span = experiment_span(self.CONFIG, utilization=0.45)
        scenario = ProfileScenario("Varmail", span, total_ops=2000,
                                   seed=2)
        a = run_workload(ftl_name="flexFTL",
                         scenario=scenario,
                         config=self.CONFIG)
        b = run_workload(ftl_name="flexFTL",
                         scenario=scenario,
                         config=self.CONFIG)
        assert a.counters == b.counters  # deterministic, no predictor
