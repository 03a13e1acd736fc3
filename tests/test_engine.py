"""Tests for the parallel experiment engine and its serialization.

Covers the PR's contract points: deterministic per-cell seeding,
byte-identical serial vs parallel results, `RunResult`/
`ExperimentConfig` round-trips, the content-addressed result cache,
NaN metrics on empty runs, and the table-driven CLI registry.
"""

import argparse
import json
import math

import pytest

from repro.experiments import registry
from repro.experiments.engine import (
    Cell,
    EngineOptions,
    ResultCache,
    derive_seed,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    experiment_span,
    run_workload,
)
from repro.nand.geometry import NandGeometry
from repro.scenarios.base import scenario_from_spec
from repro.sim.stats import SimStats
from repro.workloads.benchmarks import ProfileScenario

#: Small device so engine tests stay fast.
TEST_CONFIG = ExperimentConfig(
    geometry=NandGeometry(channels=2, chips_per_channel=2,
                          blocks_per_chip=16, pages_per_block=16,
                          page_size=2048),
    buffer_pages=64,
)


def _small_scenario(workload="OLTP", total_ops=300, seed=1):
    span = experiment_span(TEST_CONFIG, utilization=0.5)
    return ProfileScenario(workload, span, total_ops=total_ops, seed=seed)


class TestDeriveSeed:
    def test_stable_across_processes(self):
        # Hard-coded expectation: the derivation must never change, or
        # every cache key and seeded run changes under users' feet.
        assert derive_seed(1, "fig8", "Varmail", "flexFTL") == \
            derive_seed(1, "fig8", "Varmail", "flexFTL")

    def test_sensitive_to_every_coordinate(self):
        base = derive_seed(1, "fig8", "Varmail")
        assert derive_seed(2, "fig8", "Varmail") != base
        assert derive_seed(1, "fig4", "Varmail") != base
        assert derive_seed(1, "fig8", "OLTP") != base

    def test_in_32_bit_range(self):
        seed = derive_seed(12345, "x", 7)
        assert 0 <= seed < 2 ** 32


class TestCell:
    def test_key_is_stable_and_param_order_free(self):
        a = Cell.make("workload", ftl_name="pageFTL", seed=1)
        b = Cell.make("workload", seed=1, ftl_name="pageFTL")
        assert a.key() == b.key()

    def test_key_differs_on_params(self):
        a = Cell.make("workload", ftl_name="pageFTL", seed=1)
        b = Cell.make("workload", ftl_name="pageFTL", seed=2)
        assert a.key() != b.key()

    def test_label_does_not_affect_key(self):
        a = Cell.make("workload", label="x", ftl_name="pageFTL")
        b = Cell.make("workload", label="y", ftl_name="pageFTL")
        assert a.key() == b.key()

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            Cell.make("not-a-kind", x=1)


class TestRoundTrips:
    def test_experiment_config_round_trip(self):
        config = TEST_CONFIG
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.geometry == config.geometry

    def test_legacy_config_with_dispatch_mode_still_loads(self):
        """Configs and cached results written while the controller had
        a selectable chip-dispatch mode carry a ``stepping`` key; it
        never changed an outcome, so loading ignores it."""
        legacy = dict(TEST_CONFIG.to_dict(), stepping="vector")
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(legacy)))
        assert clone == TEST_CONFIG
        assert "stepping" not in clone.to_dict()

    @pytest.mark.parametrize("kernel", ["calendar", "heap"])
    def test_legacy_config_with_kernel_still_loads(self, kernel):
        """Configs and cached results written while the event kernel
        was selectable carry a ``kernel`` key; every kernel popped
        events in the same order, so loading ignores it."""
        legacy = dict(TEST_CONFIG.to_dict(), kernel=kernel)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(legacy)))
        assert clone == TEST_CONFIG
        assert "kernel" not in clone.to_dict()

    def test_config_without_track_history_defaults_on(self):
        data = TEST_CONFIG.to_dict()
        del data["track_history"]
        assert ExperimentConfig.from_dict(data).track_history is True

    @pytest.mark.parametrize("field, value", [
        ("geometry", None),
        ("geometry", 5),
        ("geometry", {"channels": 2, "lanes": 4}),
        ("timing", "fast"),
        ("ftl_config", []),
        ("policy_config", {"no_such_knob": 1}),
        ("buffer_pages", "256"),
        ("buffer_pages", 2.5),
        ("buffer_pages", True),
        ("bandwidth_window", None),
        ("warmup", "yes"),
        ("flex_parity_interval", None),
        ("rtf_active_blocks", "8"),
        ("flex_use_predictor", 0),
        ("track_history", "no"),
        ("warmup", ...),
        ("timing", ...),
    ])
    def test_bad_config_field_names_it(self, field, value):
        """A missing (``...``) or ill-typed field raises ValueError
        naming the field, never a bare KeyError or TypeError."""
        data = TEST_CONFIG.to_dict()
        if value is ...:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ValueError, match=repr(field)):
            ExperimentConfig.from_dict(data)

    def test_run_result_round_trip(self):
        scenario = _small_scenario()
        result = run_workload(ftl_name="pageFTL",
                              scenario=scenario,
                              config=TEST_CONFIG)
        clone = RunResult.from_dict(result.to_dict())
        assert clone == result

    def test_run_result_dict_is_json_stable(self):
        scenario = _small_scenario()
        result = run_workload(ftl_name="pageFTL",
                              scenario=scenario,
                              config=TEST_CONFIG)
        payload = json.dumps(result.to_dict(), sort_keys=True)
        clone = RunResult.from_dict(json.loads(payload))
        assert clone == result


class TestNanMetrics:
    def _empty_result(self):
        return RunResult(ftl_name="pageFTL", stats=SimStats(),
                         counters={"host_programs": 0, "programs": 0},
                         events=0, logical_pages=0)

    def test_zero_host_writes_give_nan(self):
        result = self._empty_result()
        assert math.isnan(result.write_amplification)
        assert math.isnan(result.iops)

    def test_nan_survives_serialization(self):
        result = self._empty_result()
        clone = RunResult.from_dict(result.to_dict())
        assert math.isnan(clone.write_amplification)


class TestEngine:
    def _cells(self):
        cells = []
        for workload in ("OLTP", "Varmail"):
            scenario = _small_scenario(workload)
            cells.append(workload_cell(
                "pageFTL", scenario=scenario,
                config=TEST_CONFIG, label=workload))
        return cells

    def test_serial_matches_parallel_bytewise(self):
        cells = self._cells()
        serial = run_cells(cells, options=EngineOptions(jobs=1))
        parallel = run_cells(cells, options=EngineOptions(jobs=2))
        serial_json = json.dumps([r.to_dict() for r in serial],
                                 sort_keys=True)
        parallel_json = json.dumps([r.to_dict() for r in parallel],
                                   sort_keys=True)
        assert serial_json == parallel_json

    def test_results_come_back_in_submission_order(self):
        cells = self._cells()
        results = run_cells(cells, options=EngineOptions(jobs=2))
        # Distinct workloads complete distinct request counts; order
        # must follow the submitted cells, not completion time.
        expected = [scenario_from_spec(cell.kwargs["scenario"]).total_ops
                    for cell in cells]
        assert [r.stats.completed_requests for r in results] == expected

    def test_inline_run_equals_run_workload_round_trip(self):
        scenario = _small_scenario()
        cell = workload_cell(
            "pageFTL", scenario=scenario,
            config=TEST_CONFIG)
        (engine_result,) = run_cells([cell])
        direct = run_workload(ftl_name="pageFTL",
                              scenario=scenario,
                              config=TEST_CONFIG)
        assert engine_result == direct


class TestResultCache:
    def test_disk_round_trip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        scenario = _small_scenario()
        cell = workload_cell(
            "pageFTL", scenario=scenario,
            config=TEST_CONFIG)

        (cold,) = run_cells([cell], options=EngineOptions(cache=cache))
        assert cache.stores == 1 and cache.hits == 0

        (warm,) = run_cells([cell], options=EngineOptions(cache=cache))
        assert cache.hits == 1
        assert warm == cold

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = Cell.make("workload", ftl_name="pageFTL", seed=1).key()
        cache.put(key, "workload", {"x": 1})
        path = next(tmp_path.rglob("*.json"))
        path.write_text("not json")
        assert cache.get(key) is None

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        cache = ResultCache()
        key = Cell.make("workload", ftl_name="pageFTL", seed=1).key()
        cache.put(key, "workload", {"x": 1})
        assert list((tmp_path / "alt").rglob("*.json"))


class TestRegistry:
    def test_all_commands_registered_in_cli_order(self):
        names = [e.name for e in registry.all_experiments()]
        assert names == list(registry.CLI_ORDER)

    def test_every_experiment_is_complete(self):
        for experiment in registry.all_experiments():
            assert experiment.help
            parser = argparse.ArgumentParser()
            experiment.add_arguments(parser)  # must not raise
            assert callable(experiment.run)
            assert callable(experiment.render)


class TestCliFlags:
    def test_global_flags_accepted_after_subcommand(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["fig8", "--jobs", "4", "--no-cache", "--json"])
        assert args.jobs == 4
        assert args.no_cache and args.json

    def test_global_flags_accepted_before_subcommand(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["--jobs", "4", "fig8"])
        assert args.jobs == 4
