"""Tests for the fault campaign: determinism, engine equivalence, and
the flexFTL-vs-pageFTL loss headline."""

import dataclasses

import pytest

from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    derive_seed,
    run_cells,
    workload_cell,
)
from repro.experiments.fault_campaign import (
    build_campaign_scenario,
    campaign_config,
    render_fault_campaign,
    run_fault_campaign,
)
from repro.experiments.runner import (
    ExperimentConfig,
    experiment_span,
    run_workload,
)
from repro.faults.plan import FaultPlan
from repro.nand.geometry import NandGeometry

TEST_CONFIG = campaign_config(ExperimentConfig(
    geometry=NandGeometry(channels=2, chips_per_channel=2,
                          blocks_per_chip=24, pages_per_block=16,
                          page_size=512),
    buffer_pages=32,
))
TEST_OPS = 600
TEST_RATE = 0.01


def _scenario(seed=1):
    span = experiment_span(TEST_CONFIG, utilization=0.6,
                          ftls=("pageFTL", "flexFTL"))
    return build_campaign_scenario(span, TEST_OPS, seed)


def _plan(seed=1):
    return FaultPlan(seed=derive_seed(seed, "rate", TEST_RATE),
                     program_fail_rate=TEST_RATE)


class TestDeterminism:
    def test_same_seed_identical_stats(self):
        results = [
            run_workload(ftl_name="flexFTL", scenario=_scenario(),
                         faults=_plan(), config=TEST_CONFIG)
            for _ in range(2)
        ]
        assert results[0].to_dict() == results[1].to_dict()
        faults = results[0].stats.faults
        assert faults is not None and faults.program_failures > 0

    def test_different_seed_different_faults(self):
        base = run_workload(ftl_name="flexFTL", scenario=_scenario(),
                            faults=_plan(1), config=TEST_CONFIG)
        other = run_workload(ftl_name="flexFTL", scenario=_scenario(),
                             faults=_plan(2), config=TEST_CONFIG)
        assert base.to_dict() != other.to_dict()

    def test_zero_rate_attaches_zeroed_fault_stats(self):
        result = run_workload(ftl_name="pageFTL", scenario=_scenario(),
                              faults=FaultPlan(), config=TEST_CONFIG)
        faults = result.stats.faults
        assert faults is not None
        assert faults.program_failures == 0
        assert faults.lost_pages == 0


class TestEngineEquivalence:
    def _cells(self):
        scenario = _scenario()
        return [
            workload_cell(ftl, scenario=scenario, config=TEST_CONFIG,
                          label=f"{ftl}@{TEST_RATE:g}", faults=_plan())
            for ftl in ("pageFTL", "flexFTL")
        ]

    def test_serial_equals_parallel(self):
        serial = run_cells(self._cells(),
                           options=EngineOptions(jobs=1))
        parallel = run_cells(self._cells(),
                             options=EngineOptions(jobs=2))
        assert [r.to_dict() for r in serial] \
            == [r.to_dict() for r in parallel]

    def test_cached_equals_fresh(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cold = run_cells(self._cells(),
                         options=EngineOptions(cache=cache))
        warm = run_cells(self._cells(),
                         options=EngineOptions(cache=cache))
        assert cache.hits == len(self._cells())
        assert [r.to_dict() for r in cold] \
            == [r.to_dict() for r in warm]


class TestCampaignHeadline:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_fault_campaign(
            rates=(TEST_RATE,), total_ops=TEST_OPS, seed=1, cuts=1,
            config=TEST_CONFIG)

    def test_flexftl_recovers_where_pageftl_loses(self, campaign):
        flex = campaign.grid[("flexFTL", TEST_RATE)].stats.faults
        page = campaign.grid[("pageFTL", TEST_RATE)].stats.faults
        assert flex.program_failures >= 1
        assert flex.lost_pages == 0
        assert page.lost_pages > 0

    def test_resume_epilogue_ran_and_lost_nothing_durable(
            self, campaign):
        assert campaign.resume_ftl == "flexFTL"
        recoveries = campaign.resume_result.recoveries
        assert recoveries
        faults = campaign.resume_result.stats.faults
        assert faults.power_cuts == len(recoveries)
        for recovery in recoveries:
            assert recovery["lost_pages"] == 0

    def test_render_mentions_the_headline(self, campaign):
        report = render_fault_campaign(campaign)
        assert "recovered all" in report
        assert "power-loss resume" in report

    def test_campaign_serialization_round_trips(self, campaign):
        data = campaign.to_dict()
        assert f"flexFTL@{TEST_RATE}" in data["grid"]
        assert "resume" in data
