"""Tests for measured multi-tenant runs (``run_workload(tenants=...)``),
the isolation experiment and perfbench."""

import json
import math

import pytest

from repro.experiments.qos_isolation import build_noisy_neighbor
from repro.experiments.registry import EXPERIMENT_REGISTRY, load_all
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    run_workload,
)
from repro.qos.host import TenantSpec
from repro.qos.slo import tenant_table_rows
from repro.sim.host import StreamOp
from repro.sim.queues import RequestKind


def small_config(geometry):
    return ExperimentConfig(geometry=geometry, buffer_pages=16)


def tiny_tenants(span):
    mixed = [StreamOp(RequestKind.WRITE, i % span, 1) for i in range(8)]
    mixed += [StreamOp(RequestKind.READ, i % span, 1) for i in range(4)]
    noisy = [StreamOp(RequestKind.WRITE, (3 * i) % span, 2)
             for i in range(12)]
    return [
        TenantSpec.make("victim", [mixed], weight=4.0,
                        write_slo=1e-9),  # any queueing delay violates
        TenantSpec.make("noisy", [noisy]),
    ]


def victim_write_p99(result):
    return float(result.tenants["victim"]["write_latency"]["p99"])


class TestRunQosWorkload:
    """``run_workload`` behind the QoS front-end."""

    @pytest.mark.parametrize("ftl_name", ["flexFTL", "pageFTL"])
    def test_measured_run_reports_per_tenant(self, small_geometry,
                                             ftl_name):
        config = small_config(small_geometry)
        result = run_workload(
            ftl_name=ftl_name, tenants=tiny_tenants(32),
            arbiter="drr", config=config, max_outstanding=2)
        assert result.ftl_name == ftl_name
        victim = result.tenants["victim"]
        assert victim["completed_writes"] == 8
        assert victim["completed_reads"] == 4
        # Writes admitted straight into the buffer complete with zero
        # latency; only delayed ones can violate the 1 ns target.
        assert 1 <= victim["write_violations"] <= 8
        assert victim["queue"]["issued"] == 12
        assert victim["weight"] == 4.0
        assert result.stats.completed_requests == 24
        assert sum(tenant["queue"]["issued"]
                   for tenant in result.tenants.values()) == 24
        assert result.stats.elapsed > 0.0
        assert result.physics is None and result.recoveries is None

    def test_warmup_excluded_from_measured_counters(self,
                                                    small_geometry):
        config = small_config(small_geometry)
        result = run_workload(
            ftl_name="pageFTL", tenants=tiny_tenants(32),
            config=config)
        # Measured host programs stay in the order of the workload's
        # own pages; the preconditioning fill is far larger.
        assert 0 < result.counters["host_programs"] < 200

    def test_write_p99_shorthand(self, small_geometry):
        config = small_config(small_geometry)
        result = run_workload(
            ftl_name="pageFTL", tenants=tiny_tenants(32),
            config=config)
        assert victim_write_p99(result) > 0.0

    def test_round_trip_through_json(self, small_geometry):
        config = small_config(small_geometry)
        result = run_workload(
            ftl_name="pageFTL", tenants=tiny_tenants(32),
            config=config)
        wire = json.loads(json.dumps(result.to_dict()))
        restored = RunResult.from_dict(wire)
        assert victim_write_p99(restored) == victim_write_p99(result)
        assert restored.tenants["victim"] == result.tenants["victim"]
        # The noisy tenant issues no reads: NaN percentiles survive
        # the round-trip (and are why dict equality cannot be used).
        assert math.isnan(
            restored.tenants["noisy"]["read_latency"]["p99"])
        assert restored.events == result.events

    def test_table_rows_cover_all_tenants(self, small_geometry):
        config = small_config(small_geometry)
        result = run_workload(
            ftl_name="pageFTL", tenants=tiny_tenants(32),
            config=config)
        rows = tenant_table_rows(result.tenants)
        assert [row[0] for row in rows] == ["victim", "noisy"]


class TestNoisyNeighborScenario:
    def test_build_is_deterministic(self):
        first = build_noisy_neighbor(256, 400, seed=7)
        second = build_noisy_neighbor(256, 400, seed=7)
        assert first == second
        assert [spec.name for spec in first] == ["victim", "noisy"]
        assert first[0].weight > first[1].weight

    def test_op_budget_split(self):
        tenants = build_noisy_neighbor(256, 400, seed=1)
        victim, noisy = tenants
        assert victim.total_ops >= 400 // 4 - 2
        assert noisy.total_ops > victim.total_ops

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            build_noisy_neighbor(256, 0, seed=1)


class TestCliIntegration:
    def test_qos_isolation_registered(self):
        load_all()
        experiment = EXPERIMENT_REGISTRY["qos_isolation"]
        assert experiment.parallel

    def test_perfbench_accepts_qos_mix(self):
        from repro.perfbench.harness import QOS_WORKLOADS, run_perfbench

        assert "qos_mix" in QOS_WORKLOADS
        with pytest.raises(KeyError):
            run_perfbench(workloads=["qos_blend"], scale=0.01)

    def test_perfbench_qos_mix_runs(self):
        from repro.perfbench.harness import run_perfbench

        result = run_perfbench(workloads=["qos_mix"], scale=0.03)
        timing = result.timings["qos_mix"]
        assert timing.events > 0
        assert timing.events_per_sec > 0
        assert not math.isnan(timing.host_ops_per_sec)
