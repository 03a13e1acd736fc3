"""Tests for the TLC array, FTLs and system experiment.

The TLC FTLs are :data:`~repro.experiments.runner.FTL_REGISTRY` names:
they build through ``build_system`` and run through ``run_workload``
like every MLC FTL, so these tests drive them the same way.
"""

import json

import pytest

from repro.cli import main
from repro.core.page_allocator import QuotaTracker
from repro.core.tlc_ftl import (
    ThreePhaseBlockManager,
    TlcFlexFtl,
    TlcPageFtl,
)
from repro.experiments import runner
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    run_cells,
    workload_cell,
)
from repro.experiments.qos_isolation import build_noisy_neighbor
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    build_system,
    experiment_span,
    run_workload,
)
from repro.experiments.tlc_system import TLC_FTLS, render_tlc_comparison
from repro.faults.plan import FaultPlan
from repro.fleet.device import DeviceSpec
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.tlc import TlcPageType, TlcScheme
from repro.nand.tlc_array import TlcGeometry, TlcNandArray
from repro.observability.tracer import Tracer
from repro.reliability.physics import PhysicsConfig
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import RequestKind, WriteBuffer
from repro.workloads.benchmarks import ProfileScenario

SMALL_TLC = TlcGeometry(channels=2, chips_per_channel=1,
                        blocks_per_chip=16, pages_per_block=12,
                        page_size=512)


def small_config(**overrides):
    return ExperimentConfig(geometry=SMALL_TLC, **overrides)


def small_scenario(ftl_name, total_ops=600):
    span = experiment_span(small_config(), 0.7, ftls=[ftl_name])
    return ProfileScenario("Varmail", span, total_ops=total_ops, seed=1)


class TestTlcGeometry:
    def test_wordlines_are_a_third(self):
        assert SMALL_TLC.wordlines_per_block == 4

    def test_requires_multiple_of_six(self):
        with pytest.raises(ValueError):
            TlcGeometry(channels=1, chips_per_channel=1,
                        blocks_per_chip=4, pages_per_block=8)

    def test_address_codec_still_works(self):
        for ppn in range(SMALL_TLC.total_pages):
            assert SMALL_TLC.ppn(SMALL_TLC.address_of(ppn)) == ppn


class TestTlcArray:
    def test_program_counts_by_type(self):
        array = TlcNandArray(SMALL_TLC, scheme=TlcScheme.RPS)
        array.program(PhysicalPageAddress(0, 0, 0, 0))  # LSB(0)
        array.program(PhysicalPageAddress(0, 0, 0, 3))  # LSB(1)
        array.program(PhysicalPageAddress(0, 0, 0, 6))  # LSB(2)
        array.program(PhysicalPageAddress(0, 0, 0, 1))  # CSB(0)
        assert array.lsb_programs == 3
        assert array.csb_programs == 1
        assert array.msb_programs == 0

    def test_program_latency_by_type(self):
        array = TlcNandArray(SMALL_TLC, scheme=TlcScheme.RPS)
        lsb = array.program(PhysicalPageAddress(0, 0, 0, 0))
        array.program(PhysicalPageAddress(0, 0, 0, 3))
        csb = array.program(PhysicalPageAddress(0, 0, 0, 1))
        assert lsb == pytest.approx(500e-6)
        assert csb == pytest.approx(2000e-6)

    def test_erase_and_is_programmed(self):
        array = TlcNandArray(SMALL_TLC, scheme=TlcScheme.RPS)
        addr = PhysicalPageAddress(0, 0, 0, 0)
        assert not array.is_programmed(addr)
        array.program(addr)
        assert array.is_programmed(addr)
        assert array.erase(0, 0, 0) == pytest.approx(10e-3)
        assert not array.is_programmed(addr)


class TestThreePhaseManager:
    def test_phase_transitions(self):
        manager = ThreePhaseBlockManager(wordlines=2)
        manager.install_fast_block(5)
        assert manager.take(TlcPageType.CSB) is None
        manager.take(TlcPageType.LSB)
        block, wordline, full = manager.take(TlcPageType.LSB)
        assert (block, wordline, full) == (5, 1, False)
        # LSB phase done: CSB available now.
        assert manager.available(TlcPageType.CSB)
        manager.take(TlcPageType.CSB)
        manager.take(TlcPageType.CSB)
        assert manager.available(TlcPageType.MSB)
        manager.take(TlcPageType.MSB)
        block, wordline, full = manager.take(TlcPageType.MSB)
        assert full
        assert not manager.available(TlcPageType.MSB)

    def test_double_install_rejected(self):
        manager = ThreePhaseBlockManager(wordlines=2)
        manager.install_fast_block(1)
        with pytest.raises(RuntimeError):
            manager.install_fast_block(2)


class TestTlcFtls:
    def run_writes(self, ftl_name, count, span=None):
        sim, array, buffer, ftl, controller = build_system(
            ftl_name, small_config(buffer_pages=16))
        span = span or ftl.logical_pages
        ops = [StreamOp(RequestKind.WRITE, (i * 3) % span, 1)
               for i in range(count)]
        host = ClosedLoopHost(sim, controller, [ops])
        host.start()
        sim.run()
        return array, ftl, controller.stats

    @pytest.mark.parametrize("ftl_name,ftl_cls,scheme", [
        ("tlc-pageFTL", TlcPageFtl, TlcScheme.FPS),
        ("tlc-flexFTL", TlcFlexFtl, TlcScheme.RPS),
    ])
    def test_build_system_builds_the_tlc_device(self, ftl_name,
                                                ftl_cls, scheme):
        _, array, _, ftl, _ = build_system(ftl_name, small_config())
        assert isinstance(array, TlcNandArray)
        assert array.scheme is scheme
        assert array.geometry == SMALL_TLC
        assert type(ftl) is ftl_cls

    def test_config_round_trip_builds_the_same_device(self):
        # The engine cache hands workers a from_dict config, whose
        # geometry is a plain NandGeometry with the same fields.
        config = ExperimentConfig.from_dict(small_config().to_dict())
        assert type(config.geometry) is not TlcGeometry
        _, array, _, ftl, _ = build_system("tlc-flexFTL", config)
        assert array.geometry == SMALL_TLC
        assert array.geometry.wordlines_per_block == 4
        _, _, _, fresh, _ = build_system("tlc-flexFTL", small_config())
        assert ftl.logical_pages == fresh.logical_pages

    def test_baseline_walks_mixed_types(self):
        array, ftl, stats = self.run_writes("tlc-pageFTL", 60)
        assert stats.completed_writes == 60
        assert array.lsb_programs > 0
        assert array.csb_programs > 0
        assert array.msb_programs > 0

    @pytest.mark.parametrize("ftl_name", TLC_FTLS)
    def test_counters_count_every_page_type(self, ftl_name):
        array, ftl, _ = self.run_writes(ftl_name, 200, span=80)
        counters = ftl.counters()
        assert counters["csb_programs"] > 0
        assert counters["lsb_programs"] + counters["csb_programs"] \
            + counters["msb_programs"] == array.total_programs

    def test_mlc_counters_carry_no_csb_key(self):
        _, _, _, ftl, _ = build_system("pageFTL")
        assert "csb_programs" not in ftl.counters()

    def test_flex_blocks_are_three_phase(self):
        array, ftl, stats = self.run_writes("tlc-flexFTL", 120)
        for chip in array.chips:
            for block in chip.blocks:
                history = block.program_history
                if len(history) < 2:
                    continue
                phases = [index % 3 for index in history]
                # within a block, phases never decrease (LSB run, then
                # CSB run, then MSB run)
                assert phases == sorted(phases)

    def test_flex_rejects_fps_array(self):
        array = TlcNandArray(SMALL_TLC, scheme=TlcScheme.FPS)
        with pytest.raises(ValueError):
            TlcFlexFtl(array, WriteBuffer(8))

    def test_sustained_overwrites_gc_without_deadlock(self):
        for name in TLC_FTLS:
            array, ftl, stats = self.run_writes(name, 800, span=80)
            assert stats.completed_writes == 800
            assert array.total_erases > 0

    def test_quota_accounting(self):
        _, _, _, ftl, _ = build_system("tlc-flexFTL", small_config())
        assert isinstance(ftl.quota, QuotaTracker)
        start = ftl.quota.value
        assert start == ftl.quota.cap
        ftl._note_program(TlcPageType.LSB)
        assert ftl.quota.value == start - 2
        ftl._note_program(TlcPageType.CSB)
        ftl._note_program(TlcPageType.MSB)
        assert ftl.quota.value == start
        ftl._note_program(TlcPageType.MSB)  # saturates at the cap
        assert ftl.quota.value == start
        assert ftl.counters()["quota"] == ftl.quota.value

    def test_warmup_resets_the_quota(self):
        sim, _, _, ftl, controller = build_system("tlc-flexFTL",
                                                  small_config())
        runner.warmup_device(sim, controller, ftl, small_config(),
                             warmup_span=ftl.logical_pages)
        assert ftl.quota.value == ftl.quota.cap


class TestTlcSystemExperiment:
    def test_run_and_render(self):
        result = run_workload(ftl_name="tlc-flexFTL",
                              scenario=small_scenario("tlc-flexFTL"),
                              config=small_config())
        assert result.stats.completed_requests > 0
        text = render_tlc_comparison({"tlc-flexFTL": result})
        assert "tlc-flexFTL" in text

    def test_unknown_ftl_rejected(self):
        with pytest.raises(KeyError):
            build_system("tlc-nope")

    def test_run_counters_split_programs_by_page_type(self):
        result = run_workload(ftl_name="tlc-pageFTL",
                              scenario=small_scenario("tlc-pageFTL"),
                              config=small_config())
        counters = result.counters
        assert counters["csb_programs"] > 0
        assert counters["lsb_programs"] + counters["csb_programs"] \
            + counters["msb_programs"] == counters["host_programs"] \
            + counters["gc_programs"] + counters["backup_programs"]

    @pytest.mark.parametrize("ftl_name", TLC_FTLS)
    def test_traced_run_equals_untraced(self, ftl_name):
        scenario = small_scenario(ftl_name)
        plain = run_workload(ftl_name=ftl_name, scenario=scenario,
                             config=small_config())
        tracer = Tracer()
        traced = run_workload(ftl_name=ftl_name, scenario=scenario,
                              config=small_config(), tracer=tracer)
        assert traced.counters == plain.counters
        assert traced.iops == plain.iops
        assert traced.stats.metrics is not None
        assert tracer.op_count > 0 and tracer.alloc_count > 0

    @pytest.mark.parametrize("ftl_name", TLC_FTLS)
    def test_tenanted_run(self, ftl_name):
        config = small_config(buffer_pages=16)
        span = experiment_span(config, 0.6, ftls=[ftl_name])
        result = run_workload(ftl_name=ftl_name,
                              tenants=build_noisy_neighbor(span, 300, 1),
                              arbiter="drr", config=config)
        assert sorted(result.tenants) == ["noisy", "victim"]
        assert sum(tenant["queue"]["issued"]
                   for tenant in result.tenants.values()) \
            == result.stats.completed_requests

    @pytest.mark.parametrize("keyword,value", [
        ("physics", PhysicsConfig()),
        ("power_cuts", [0.001]),
        ("faults", FaultPlan(seed=1)),
    ])
    def test_unarmable_subsystem_refused_before_build(
            self, monkeypatch, keyword, value):
        scenario = small_scenario("tlc-flexFTL")

        def no_build(*args, **kwargs):
            raise AssertionError("built a system for a refused run")

        monkeypatch.setattr(runner, "build_system", no_build)
        with pytest.raises(ValueError, match=f"{keyword}="):
            run_workload(ftl_name="tlc-flexFTL", scenario=scenario,
                         config=small_config(), **{keyword: value})

    def test_workload_cell_round_trips_the_result_cache(self, tmp_path):
        cell = workload_cell("tlc-flexFTL",
                             scenario=small_scenario("tlc-flexFTL", 300),
                             config=small_config())
        options = EngineOptions(cache=ResultCache(tmp_path))
        (fresh,) = run_cells([cell], options=options)
        (cached,) = run_cells([cell], options=options)
        assert options.cache.stores == 1 and options.cache.hits == 1
        assert isinstance(cached, RunResult)
        assert cached == fresh
        assert RunResult.from_dict(json.loads(json.dumps(
            fresh.to_dict()))) == fresh
        assert cached.counters["quota"] == fresh.counters["quota"]


class TestTlcBoundaries:
    """A TLC name on a fixed MLC geometry (64 or 16 pages per block)
    fails at the boundary, naming ``pages_per_block``."""

    @pytest.mark.parametrize("argv", [
        ["run", "--ftl", "tlc-flexFTL", "--ops", "100"],
        ["scenario", "--preset", "oltp", "--ftl", "tlc-flexFTL",
         "--ops", "100"],
        ["scenario_grid", "--presets", "oltp", "--ftls", "tlc-pageFTL",
         "--ops", "100"],
        ["serve", "--ftl", "tlc-flexFTL", "--devices", "2",
         "--ops", "50", "--no-cache"],
        ["trace", "record", "--ftl", "tlc-flexFTL", "--out", "t.jsonl"],
    ])
    def test_cli_exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "pages_per_block" in err
        assert "Traceback" not in err

    def test_fleet_device_spec_refuses(self):
        with pytest.raises(ValueError, match="pages_per_block"):
            DeviceSpec(device_id=0, ftl_name="tlc-flexFTL",
                       scenario={}, config=ExperimentConfig())

    def test_tlc_geometry_accepted(self):
        spec = DeviceSpec(device_id=0, ftl_name="tlc-flexFTL",
                          scenario={}, config=small_config())
        assert spec.ftl_name == "tlc-flexFTL"
