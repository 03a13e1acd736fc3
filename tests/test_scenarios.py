"""Tests for the Scenario API: generator, presets, specs, runners.

Covers the PR's contract points: phase-table validation, state-
conditioned generation (sequential runs, re-reads, idle stretching),
cross-process determinism of the seeded generator, spec round-trips
through the engine's JSON encoding, the declared-vs-generated read-mix
audit of every preset, the Table-1 profile scenario
(byte-identical to the same op lists fed to the closed-loop host), and
serial == parallel == cached equivalence of the ``scenario_grid``
experiment.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.engine import EngineOptions, ResultCache
from repro.experiments.runner import (
    ExperimentConfig,
    begin_measured_phase,
    build_system,
    experiment_span,
    run_workload,
    warmup_device,
)
from repro.experiments.scenario_grid import (
    measured_read_fraction,
    run_scenario_grid,
)
from repro.nand.geometry import NandGeometry
from repro.scenarios import (
    Phase,
    PRESETS,
    Scenario,
    TenantBinding,
    WorkloadScenario,
    as_scenario,
    make_preset,
    scenario_from_spec,
    scenario_seed,
)
from repro.qos.host import TenantSpec, tenant_specs_from_scenario
from repro.sim.host import ClosedLoopHost
from repro.sim.queues import RequestKind
from repro.workloads.benchmarks import ProfileScenario
from tests.helpers import StreamScenario, profile_streams

#: Small device so scenario tests stay fast.
TEST_CONFIG = ExperimentConfig(
    geometry=NandGeometry(channels=2, chips_per_channel=2,
                          blocks_per_chip=16, pages_per_block=16,
                          page_size=2048),
    buffer_pages=64,
)


def _tiny(name="tiny", ops=60, streams=2, seed=7, **phase_kwargs):
    phase_kwargs.setdefault("read_fraction", 0.5)
    phase = Phase(name="steady", kind="steady", ops=ops,
                  **phase_kwargs)
    return WorkloadScenario(name=name, footprint=256, streams=streams,
                            phases=(phase,), seed=seed)


class TestPhaseValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Phase(name="x", kind="warp", ops=10)

    def test_probabilities_bounded(self):
        for field in ("read_fraction", "seq", "hot", "read_recent"):
            with pytest.raises(ValueError, match=field):
                Phase(name="x", ops=10, **{field: 1.5})

    def test_steady_needs_ops(self):
        with pytest.raises(ValueError, match="ops"):
            Phase(name="x", kind="steady", ops=0)

    def test_burst_needs_burst_len(self):
        with pytest.raises(ValueError, match="burst_len"):
            Phase(name="x", kind="burst", ops=10, burst_len=0)

    def test_idle_needs_duration(self):
        with pytest.raises(ValueError, match="idle"):
            Phase(name="x", kind="idle")

    def test_npages_weights_must_match(self):
        with pytest.raises(ValueError, match="npages_weights"):
            Phase(name="x", ops=10, npages=(1, 2),
                  npages_weights=(1.0,))

    @pytest.mark.parametrize("field,value", [
        ("think", -1e-3), ("think", float("nan")), ("think", float("inf")),
        ("burst_idle", -0.1), ("burst_idle", float("nan")),
        ("burst_idle", float("inf")),
        ("zipf_s", -1.0), ("zipf_s", float("nan")),
        ("zipf_s", float("inf")),
        ("idle", float("nan")), ("idle", float("inf")),
        ("idle", float("-inf")),
    ])
    def test_malformed_durations_and_skew_rejected(self, field, value):
        # Each used to get through construction: a negative think time
        # raised from the kernel's scheduler 12 frames into sim.run(),
        # a negative or NaN skew silently ran uniform.
        kind = "burst" if field == "burst_idle" else "steady"
        fields = dict(name="x", kind=kind, ops=10, burst_len=4)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            Phase(**fields)
        data = Phase(name="x", kind=kind, ops=10, burst_len=4).to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=field):
            Phase.from_dict(data)

    def test_dict_round_trip(self):
        phase = Phase(name="b", kind="burst", ops=100,
                      read_fraction=0.3, npages=(1, 4),
                      npages_weights=(3.0, 1.0), burst_len=8,
                      burst_idle=0.1, zipf_s=0.9)
        assert Phase.from_dict(phase.to_dict()) == phase


class TestWorkloadScenarioValidation:
    def test_bad_shape_rejected(self):
        phase = Phase(name="s", ops=10)
        with pytest.raises(ValueError, match="footprint"):
            WorkloadScenario("x", 0, 1, (phase,))
        with pytest.raises(ValueError, match="streams"):
            WorkloadScenario("x", 64, 0, (phase,))
        with pytest.raises(ValueError, match="phase"):
            WorkloadScenario("x", 64, 1, ())

    def test_tenant_streams_must_sum(self):
        phase = Phase(name="s", ops=10)
        with pytest.raises(ValueError, match="tenant bindings"):
            WorkloadScenario("x", 64, 4, (phase,),
                             tenants=(TenantBinding("a", 3),))


class TestGeneration:
    def test_total_ops_matches_generated_count(self):
        scenario = make_preset("varmail", 512, 300, seed=3, fill=True)
        assert sum(1 for _ in scenario.ops()) == scenario.total_ops

    def test_ops_stay_inside_footprint(self):
        scenario = make_preset("webserver", 300, 400, seed=5)
        for op in scenario.ops():
            assert 0 <= op.lpn
            assert op.lpn + op.npages <= 300

    def test_fill_phase_writes_every_page_once(self):
        phases = (Phase(name="fill", kind="fill", npages=(8,)),)
        scenario = WorkloadScenario("f", 100, 3, phases)
        written = []
        for op in scenario.ops():
            assert op.kind is RequestKind.WRITE
            written.extend(range(op.lpn, op.lpn + op.npages))
        assert sorted(written) == list(range(100))

    def test_sequential_draws_continue_previous_op(self):
        scenario = _tiny(ops=40, streams=1, seq=1.0, read_fraction=0.0,
                         npages=(4,))
        ops = list(scenario.ops())
        for prev, nxt in zip(ops, ops[1:]):
            end = prev.lpn + prev.npages
            assert nxt.lpn == (end if end + nxt.npages <= 256 else 0)

    def test_idle_phase_stretches_preceding_think_time(self):
        phases = (
            Phase(name="a", ops=2, think=0.001),
            Phase(name="gap", kind="idle", idle=0.5),
            Phase(name="b", ops=2, think=0.001),
        )
        scenario = WorkloadScenario("idle", 64, 1, phases, seed=1)
        thinks = [op.think_after for op in scenario.ops()]
        assert thinks == [0.001, pytest.approx(0.501), 0.001, 0.001]

    def test_burst_structure_sets_inter_burst_idle(self):
        phases = (Phase(name="b", kind="burst", ops=12, burst_len=4,
                        burst_idle=0.25),)
        scenario = WorkloadScenario("b", 64, 1, phases, seed=1)
        thinks = [op.think_after for op in scenario.ops()]
        assert thinks == [0.0, 0.0, 0.0, 0.25] * 3

    def test_read_recent_targets_recent_writes(self):
        phases = (Phase(name="m", ops=400, read_fraction=0.5,
                        read_recent=1.0),)
        scenario = WorkloadScenario("mail", 4096, 1, phases, seed=2)
        written = set()
        recent_hits = reads = 0
        for op in scenario.ops():
            if op.kind is RequestKind.WRITE:
                written.add(op.lpn)
            elif written:
                reads += 1
                recent_hits += op.lpn in written
        assert reads > 0 and recent_hits == reads

    def test_phase_tags_follow_schedule(self):
        scenario = make_preset("oltp", 1024, 200, seed=1)
        seen = []
        for op in scenario.ops():
            if op.phase not in seen:
                seen.append(op.phase)
        assert seen == ["ramp", "steady"]

    def test_tenant_tagging_and_grouping(self):
        phases = (Phase(name="s", ops=40, read_fraction=0.5),)
        scenario = WorkloadScenario(
            "qos", 256, 3, phases, seed=1,
            tenants=(TenantBinding("victim", 1),
                     TenantBinding("noisy", 2)))
        specs = tenant_specs_from_scenario(scenario)
        assert [spec.name for spec in specs] == ["victim", "noisy"]
        assert [len(spec.streams) for spec in specs] == [1, 2]
        total = 0
        for spec in specs:
            for stream in spec.streams:
                for op in stream:
                    assert op.tenant == spec.name
                    total += 1
        assert total == 40


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        a = make_preset("fileserver", 2048, 500, seed=9)
        b = make_preset("fileserver", 2048, 500, seed=9)
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_sequence(self):
        a = make_preset("fileserver", 2048, 500, seed=9)
        b = make_preset("fileserver", 2048, 500, seed=10)
        assert a.fingerprint() != b.fingerprint()

    def test_streams_are_seed_independent(self):
        # Stream i's sequence must not depend on how many siblings
        # exist — that is what makes per-tenant slicing stable.
        base = scenario_seed(1, "scenario", "x", 0)
        assert base == scenario_seed(1, "scenario", "x", 0)
        assert base != scenario_seed(1, "scenario", "x", 1)

    def test_fingerprint_stable_across_processes(self):
        scenario = make_preset("varmail", 1024, 300, seed=4)
        code = (
            "from repro.scenarios import make_preset\n"
            "print(make_preset('varmail', 1024, 300, seed=4)"
            ".fingerprint())\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, check=True, env=env,
        )
        assert out.stdout.strip() == scenario.fingerprint()


class TestSpecs:
    def test_workload_spec_round_trip(self):
        scenario = make_preset("oltp", 512, 200, seed=3)
        clone = scenario_from_spec(scenario.spec())
        assert clone.fingerprint() == scenario.fingerprint()

    def test_spec_survives_json(self):
        scenario = make_preset("webserver", 512, 200, seed=3)
        wire = json.loads(json.dumps(scenario.spec(), sort_keys=True))
        assert scenario_from_spec(wire).fingerprint() == \
            scenario.fingerprint()

    def test_stream_spec_round_trip(self):
        streams = profile_streams("OLTP", 256, total_ops=60, seed=1)
        scenario = StreamScenario(streams, tenant="t0")
        clone = scenario_from_spec(scenario.spec())
        assert clone.fingerprint() == scenario.fingerprint()
        assert clone.tenant == "t0"

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(KeyError, match="spec type"):
            scenario_from_spec({"type": "teleport"})
        with pytest.raises(ValueError, match="'type'"):
            scenario_from_spec({"name": "x"})

    def test_as_scenario_coercions(self):
        scenario = _tiny()
        assert as_scenario(scenario) is scenario
        clone = as_scenario(scenario.spec())
        assert isinstance(clone, Scenario)
        with pytest.raises(TypeError):
            as_scenario(42)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_generated_mix_matches_declared(self, name):
        # The acceptance criterion: declared read fraction within 2%
        # of the emitted traffic at the default op count's order.
        scenario = make_preset(name, 4096, 4000, seed=1)
        reads = total = 0
        for op in scenario.ops():
            total += 1
            reads += op.kind is RequestKind.READ
        declared = PRESETS[name].read_fraction
        assert abs(reads / total - declared) < 0.02
        assert scenario.declared_read_fraction() == \
            pytest.approx(declared)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            make_preset("bogus", 512, 100)
        with pytest.raises(ValueError):
            make_preset("oltp", 512, 0)

    def test_tiny_op_counts_still_build(self):
        for name in PRESETS:
            scenario = make_preset(name, 256, 3, seed=1)
            assert sum(1 for _ in scenario.ops()) == scenario.total_ops

    def test_phase_table_renders(self):
        table = make_preset("varmail", 512, 100).phase_table()
        assert "delivery" in table and "burst" in table


class TestRunnerIntegration:
    def _streams(self):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        return profile_streams("OLTP", span, total_ops=200, seed=1)

    def test_streams_kwarg_is_gone(self):
        with pytest.raises(TypeError, match="streams"):
            run_workload(ftl_name="pageFTL", streams=self._streams(),
                         config=TEST_CONFIG)

    def test_legacy_adapter_is_byte_identical(self):
        """A profile scenario drives the device exactly like its op
        lists fed straight to the closed-loop host."""
        streams = self._streams()
        sim, _, _, ftl, controller = build_system("pageFTL", TEST_CONFIG)
        warmup_device(sim, controller, ftl, TEST_CONFIG,
                      footprint=max(op.lpn + op.npages
                                    for stream in streams
                                    for op in stream))
        _, stats = begin_measured_phase(controller, ftl, TEST_CONFIG)
        ClosedLoopHost(sim, controller, streams).start()
        sim.run()
        modern = run_workload(
            ftl_name="pageFTL",
            scenario=ProfileScenario(
                "OLTP", experiment_span(TEST_CONFIG, utilization=0.5),
                total_ops=200, seed=1),
            config=TEST_CONFIG)
        assert json.dumps(stats.to_dict(), sort_keys=True) == \
            json.dumps(modern.stats.to_dict(), sort_keys=True)
        assert sim.processed == modern.events

    def test_exactly_one_workload_source(self):
        with pytest.raises(TypeError, match="exactly one"):
            run_workload(ftl_name="pageFTL", config=TEST_CONFIG)
        tenants = [TenantSpec.make("a", self._streams())]
        with pytest.raises(TypeError, match="exactly one"):
            run_workload(ftl_name="pageFTL", tenants=tenants,
                         scenario=_tiny(), config=TEST_CONFIG)

    def test_generator_scenario_runs_end_to_end(self):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        scenario = make_preset("varmail", span, 400, seed=2)
        result = run_workload(ftl_name="flexFTL", scenario=scenario,
                              config=TEST_CONFIG)
        completed = (result.stats.completed_reads
                     + result.stats.completed_writes)
        assert completed == scenario.total_ops

    def test_spec_dict_accepted_directly(self):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        scenario = make_preset("oltp", span, 200, seed=2)
        direct = run_workload(ftl_name="pageFTL", scenario=scenario,
                              config=TEST_CONFIG)
        via_spec = run_workload(ftl_name="pageFTL",
                                scenario=scenario.spec(),
                                config=TEST_CONFIG)
        assert direct == via_spec


class TestScenarioGrid:
    def _grid(self, engine=None):
        return run_scenario_grid(
            presets=("oltp", "varmail"), ftls=("pageFTL",),
            total_ops=200, config=TEST_CONFIG, engine=engine)

    def test_serial_parallel_cached_identical(self, tmp_path):
        serial = self._grid(EngineOptions(jobs=1))
        parallel = self._grid(EngineOptions(jobs=2))
        cache = ResultCache(root=tmp_path)
        cold = self._grid(EngineOptions(jobs=1, cache=cache))
        warm = self._grid(EngineOptions(jobs=1, cache=cache))
        assert cache.hits == 2
        dumps = [json.dumps(g.to_dict(), sort_keys=True)
                 for g in (serial, parallel, cold, warm)]
        assert len(set(dumps)) == 1

    def test_mix_audit_within_tolerance(self):
        grid = run_scenario_grid(
            presets=("fileserver",), ftls=("pageFTL",),
            total_ops=4000, config=TEST_CONFIG,
            engine=EngineOptions(jobs=1))
        assert grid.mix_error("fileserver", "pageFTL") < 0.02
        measured = measured_read_fraction(
            grid.result("fileserver", "pageFTL"))
        assert 0.0 < measured < 1.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            run_scenario_grid(presets=("bogus",), config=TEST_CONFIG)
