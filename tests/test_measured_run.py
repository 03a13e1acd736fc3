"""Tests for the one measured-run pipeline, ``run_workload``.

Every optional subsystem — tracer, fault plan, physics engine, power
cuts, the multi-tenant front-end — is a keyword of the same run.  These
tests cover what only that composition can show: armed subsystems
meeting in one seeded run, the combinations the pipeline refuses, the
fleet's :class:`~repro.fleet.device.DeviceRun` landing on exactly the
run ``run_workload`` reports, and power-loss resume across the paper's
FTLs.
"""

import dataclasses
import gc
import json

import pytest

from repro.experiments.engine import workload_cell
from repro.experiments.fault_campaign import campaign_config
from repro.experiments.runner import (
    PAPER_FTLS,
    ExperimentConfig,
    build_system,
    run_workload,
)
from repro.faults.plan import FaultPlan
from repro.fleet.device import DeviceRun
from repro.fleet.service import FleetSpec, fleet_config
from repro.nand.geometry import NandGeometry
from repro.observability.tracer import Tracer
from repro.perfbench import harness
from repro.qos.host import TenantSpec
from repro.reliability.physics import PhysicsConfig
from repro.scenarios.base import OPEN
from repro.scenarios.csvio import TraceScenario, write_scenario_csv
from repro.scenarios.presets import make_preset
from repro.sim.host import StreamOp
from repro.sim.queues import RequestKind
from tests.helpers import StreamScenario

#: Power cuts inside the measured phase of a few thousand 1-page ops.
CUTS = [0.004, 0.008]

#: Each paired perfbench comparison, and how to tell a run of its arm
#: under test (B) from one of its reference arm (A) by the keywords
#: ``time_run`` receives.
PAIRED_MODES = {
    "trace": (harness.run_trace_overhead,
              lambda kwargs: kwargs.get("tracer") is not None),
    "physics": (harness.run_physics_overhead,
                lambda kwargs: kwargs.get("physics") is not None),
}

TINY_TENANTS = [TenantSpec.make("a", [[
    StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(16)]])]


def _scenario(ftl_name, config, preset="oltp", ops=2000, seed=3):
    logical = build_system(ftl_name, config)[3].logical_pages
    return make_preset(preset, int(0.5 * logical), ops, seed=seed)


class TestComposition:
    """Faults, physics, power cuts and a tracer armed in one run."""

    CONFIG = campaign_config()

    def _run(self, ftl_name, tracer=None):
        return run_workload(
            ftl_name=ftl_name,
            scenario=_scenario(ftl_name, self.CONFIG),
            config=self.CONFIG,
            faults=FaultPlan(seed=7, program_fail_rate=0.005),
            physics=PhysicsConfig(seed=5, pe_baseline=6000,
                                  retention_baseline_hours=8760.0),
            power_cuts=CUTS,
            tracer=tracer)

    @pytest.mark.parametrize("ftl_name", ["flexFTL", "pageFTL"])
    def test_same_seed_same_result(self, ftl_name):
        first = self._run(ftl_name)
        second = self._run(ftl_name)
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)
        # every subsystem actually fired
        faults = first.stats.faults
        assert faults.program_failures > 0
        assert faults.power_cuts == len(first.recoveries) == len(CUTS)
        assert first.physics["reads_sampled"] > 0
        assert first.physics["read_errors"] > 0

    @pytest.mark.parametrize("ftl_name", ["flexFTL", "pageFTL"])
    def test_traced_equals_untraced(self, ftl_name):
        plain = self._run(ftl_name).to_dict()
        tracer = Tracer()
        traced = self._run(ftl_name, tracer=tracer).to_dict()
        # the tracer's metrics registry is the one thing it adds
        assert traced["stats"].pop("metrics")
        assert json.dumps(traced, sort_keys=True) \
            == json.dumps(plain, sort_keys=True)
        assert tracer.op_count > 0

    def test_plain_run_has_no_optional_sections(self):
        result = run_workload(
            ftl_name="pageFTL",
            scenario=_scenario("pageFTL", self.CONFIG, ops=300),
            config=self.CONFIG)
        assert set(result.to_dict()) == {
            "ftl_name", "stats", "counters", "events", "logical_pages"}


class TestRefusedCombinations:
    """Unsupported combinations fail before anything is built."""

    CONFIG = ExperimentConfig()

    def test_power_cuts_need_a_closed_scenario(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_scenario_csv(_scenario("flexFTL", self.CONFIG, ops=200),
                           path)
        scenario = TraceScenario(path, mode=OPEN)
        with pytest.raises(ValueError, match="closed-mode"):
            run_workload(ftl_name="flexFTL", scenario=scenario,
                         config=self.CONFIG, power_cuts=CUTS)

    def test_physics_needs_track_history(self):
        config = ExperimentConfig(track_history=False)
        with pytest.raises(ValueError, match="track_history"):
            run_workload(ftl_name="flexFTL",
                         scenario=_scenario("flexFTL", config, ops=200),
                         config=config, physics=PhysicsConfig())

    def test_power_cuts_refuse_tenants(self):
        with pytest.raises(ValueError, match="cannot resume"):
            run_workload(ftl_name="flexFTL", tenants=TINY_TENANTS,
                         config=self.CONFIG, power_cuts=CUTS)

    def test_power_cuts_must_not_be_empty(self):
        with pytest.raises(ValueError, match="empty"):
            run_workload(ftl_name="flexFTL",
                         scenario=_scenario("flexFTL", self.CONFIG,
                                            ops=200),
                         config=self.CONFIG, power_cuts=[])


@pytest.mark.parametrize("ftl_name,preset", [
    pytest.param(ftl_name, preset, id=f"{ftl_name}-{preset}")
    for ftl_name in PAPER_FTLS for preset in ("oltp", "ntrx")])
def test_power_cut_resume_completes(ftl_name, preset):
    """Two mid-run cuts, each recovered; the workload still finishes."""
    config = ExperimentConfig()
    scenario = _scenario(ftl_name, config, preset=preset, ops=3000,
                         seed=1)
    result = run_workload(ftl_name=ftl_name, scenario=scenario,
                          config=config, power_cuts=CUTS)
    assert len(result.recoveries) == len(CUTS)
    assert result.stats.completed_requests == scenario.total_ops


#: A device small enough that a cut or a failed parity program lands
#: in a backup block that is still being filled (2 of its 24 blocks).
SMALL_DEVICE = ExperimentConfig(
    geometry=NandGeometry(channels=2, chips_per_channel=2,
                          blocks_per_chip=24, pages_per_block=16,
                          page_size=2048),
    buffer_pages=32, track_history=False)


def _churn(span=500, rounds=2):
    ops = [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(span)]
    for _ in range(rounds):
        ops.extend(StreamOp(RequestKind.WRITE, lpn, 1)
                   for lpn in range(span))
    return StreamScenario([ops], name="churn")


def _small_device(spares):
    return dataclasses.replace(SMALL_DEVICE, ftl_config=dataclasses.replace(
        SMALL_DEVICE.ftl_config, spare_blocks_per_chip=spares))


@pytest.mark.parametrize("ftl_name", PAPER_FTLS)
@pytest.mark.parametrize("spares", [0, 2])
@pytest.mark.parametrize("cuts", [[0.01], [0.002, 0.005, 0.009, 0.013]],
                         ids=["one-cut", "four-cuts"])
def test_power_cut_resume_on_a_small_device(ftl_name, spares, cuts):
    """Cuts that leave unwritten or destroyed parity slots in the
    backup block being filled: resume seals that block and finishes.
    With spares, program failures ride along (without, a failure
    leaves the device read-only)."""
    scenario = _churn()
    faults = FaultPlan(seed=3, program_fail_rate=0.002) if spares \
        else None
    result = run_workload(ftl_name=ftl_name, scenario=scenario,
                          config=_small_device(spares), power_cuts=cuts,
                          faults=faults)
    assert len(result.recoveries) == len(cuts)
    assert result.stats.completed_requests == scenario.total_ops


@pytest.mark.parametrize("ftl_name", ["parityFTL", "rtfFTL"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_failed_parity_program_is_redriven(ftl_name, seed):
    """A program failure in a backup block destroys a parity page; the
    parity programs queued behind it move to a fresh backup block."""
    scenario = _churn()
    result = run_workload(ftl_name=ftl_name, scenario=scenario,
                          config=_small_device(2),
                          faults=FaultPlan(seed=seed,
                                           program_fail_rate=0.002))
    assert result.stats.completed_requests == scenario.total_ops


class TestOnePipeline:
    def test_device_run_equals_run_workload(self):
        """A tenant-tagged fleet device, run to completion, reports
        exactly what the same spec gives through run_workload."""
        fleet = FleetSpec(devices=1, tenants=2, ops_per_device=300,
                          config=fleet_config())
        (spec,) = fleet.device_specs()
        device = DeviceRun.build(spec)
        assert device.qos
        device.run_to_completion()
        result = run_workload(ftl_name=spec.ftl_name,
                              scenario=spec.scenario, config=spec.config,
                              arbiter=spec.arbiter,
                              max_outstanding=spec.max_outstanding)
        fleet_view = device.result()
        assert fleet_view["counters"] == result.counters
        assert json.dumps(device.controller.stats.to_dict(),
                          sort_keys=True) \
            == json.dumps(result.stats.to_dict(), sort_keys=True)
        assert fleet_view["events"] == result.events
        assert set(result.tenants) == set(fleet_view["tenants"])

    def test_failed_run_detaches_its_tracer(self, monkeypatch):
        """A run that raises still detaches the tracer from the
        controller, so the tracer can be reused, and leaves the GC
        thresholds as they were."""
        from repro.experiments import runner

        def broken_warmup(*args, **kwargs):
            raise RuntimeError("warm-up failed")

        thresholds = gc.get_threshold()
        tracer = Tracer()
        monkeypatch.setattr(runner, "warmup_device", broken_warmup)
        with pytest.raises(RuntimeError, match="warm-up failed"):
            run_workload(ftl_name="pageFTL", tenants=TINY_TENANTS,
                         tracer=tracer)
        assert gc.get_threshold() == thresholds
        monkeypatch.undo()
        result = run_workload(ftl_name="pageFTL", tenants=TINY_TENANTS,
                              tracer=tracer)
        assert result.stats.metrics is tracer.metrics

    @pytest.mark.parametrize("mode", PAIRED_MODES)
    def test_trace_overhead_refuses_diverging_arms(self, monkeypatch,
                                                   mode):
        """An arm that processes a different event count than its
        partner makes the rate comparison meaningless, in every paired
        comparison perfbench makes."""
        run, in_arm_b = PAIRED_MODES[mode]
        real = harness.time_run

        def diverging(*args, **kwargs):
            timing = real(*args, **kwargs)
            if not in_arm_b(kwargs):
                return timing
            return dataclasses.replace(timing, events=timing.events + 1)

        monkeypatch.setattr(harness, "time_run", diverging)
        with pytest.raises(RuntimeError, match="arms diverged"):
            run(scale=0.02, rounds=1)

    @pytest.mark.parametrize("mode", PAIRED_MODES)
    def test_paired_arm_order_alternates(self, monkeypatch, mode):
        """Pair 0 runs arm A first, pair 1 arm B first; the two arms
        differ only in the keyword the mode compares."""
        run, in_arm_b = PAIRED_MODES[mode]
        real = harness.time_run
        order = []

        def recording(*args, **kwargs):
            order.append("B" if in_arm_b(kwargs) else "A")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "time_run", recording)
        run(scale=0.02, rounds=2)
        assert order == ["A", "B", "B", "A"]

    def test_stream_scenario_cell_spec_is_plain_data(self):
        streams = [[StreamOp(RequestKind.WRITE, lpn, 1)
                    for lpn in range(8)]]
        cell = workload_cell("pageFTL",
                             scenario=StreamScenario(streams))
        assert isinstance(cell.kwargs["scenario"], dict)
        with pytest.raises(TypeError):
            workload_cell("pageFTL", streams)  # type: ignore[misc]


class TestNoCyclicGarbage:
    """A finished device is freed by reference counting alone: nothing
    in its graph (events, controller, FTL, array, host) is left for
    the cyclic collector, on either op core."""

    @staticmethod
    def _garbage_after(run):
        """Objects the cyclic collector finds after ``run()`` returns,
        with automatic collection off so none is freed early."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    def test_finished_run_workload(self, op_core):
        config = ExperimentConfig(track_history=False)

        def run():
            run_workload(ftl_name="flexFTL", config=config,
                         scenario=_scenario("flexFTL", config, ops=500))

        assert self._garbage_after(run) == 0

    def test_finished_device_run(self, op_core):
        fleet = FleetSpec(devices=1, ops_per_device=200,
                          config=fleet_config())
        (spec,) = fleet.device_specs()

        def run():
            DeviceRun.build(spec).run_to_completion()

        assert self._garbage_after(run) == 0
