"""Fleet service: sharding, parallel determinism, kill/resume,
memoization and the ``repro serve`` CLI."""

import json

import pytest

from repro.experiments import engine
from repro.experiments.engine import ResultCache
from repro.fleet.aggregate import FleetReport
from repro.fleet.service import FleetSpec, fleet_config, run_fleet
from repro.fleet.shard import shard_of, shard_ranges, split


def small_fleet(**overrides):
    params = dict(devices=6, ops_per_device=80, seed=9,
                  config=fleet_config())
    params.update(overrides)
    return FleetSpec(**params)


class TestSharding:
    def test_ranges_cover_contiguously(self):
        for devices in (0, 1, 5, 7, 64, 100):
            for workers in (1, 2, 3, 7, 64):
                ranges = shard_ranges(devices, workers)
                flat = [i for start, stop in ranges
                        for i in range(start, stop)]
                assert flat == list(range(devices))
                assert all(stop > start for start, stop in ranges)

    def test_earlier_shards_take_remainder(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_workers_clamped_to_devices(self):
        assert shard_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert shard_ranges(0, 8) == []

    def test_shard_of_matches_ranges(self):
        for device_id in range(10):
            index = shard_of(device_id, 10, 4)
            start, stop = shard_ranges(10, 4)[index]
            assert start <= device_id < stop

    def test_split(self):
        assert split(list("abcde"), 2) == [["a", "b", "c"],
                                           ["d", "e"]]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(4, 0)


class TestFleetDeterminism:
    def test_parallel_equals_serial(self):
        fleet = small_fleet()
        serial = run_fleet(fleet, jobs=1)
        parallel = run_fleet(fleet, jobs=2)
        assert parallel.workers == 2
        assert (serial.report.fingerprint()
                == parallel.report.fingerprint())
        assert (json.dumps(serial.report.to_dict(), sort_keys=True)
                == json.dumps(parallel.report.to_dict(),
                              sort_keys=True))

    def test_kill_resume_equals_uninterrupted(self, tmp_path):
        fleet = small_fleet()
        oracle = run_fleet(fleet, jobs=1)
        assert oracle.report.completed == fleet.devices

        ckpt = tmp_path / "ckpt"
        stopped = run_fleet(fleet, jobs=1, checkpoint_dir=str(ckpt),
                            stop_after_events=300)
        assert stopped.report.checkpointed == fleet.devices
        assert stopped.checkpoints == fleet.devices
        assert len(list(ckpt.glob("*.snap"))) == fleet.devices

        resumed = run_fleet(fleet, jobs=2, checkpoint_dir=str(ckpt),
                            resume=True)
        assert resumed.resumed == fleet.devices
        assert resumed.report.completed == fleet.devices
        assert (resumed.report.fingerprint()
                == oracle.report.fingerprint())
        # Completed devices retire their stale checkpoints.
        assert list(ckpt.glob("*.snap")) == []

    def test_tenanted_kill_resume(self, tmp_path):
        fleet = small_fleet(devices=4, tenants=2)
        oracle = run_fleet(fleet, jobs=1)
        ckpt = tmp_path / "ckpt"
        run_fleet(fleet, jobs=1, checkpoint_dir=str(ckpt),
                  stop_after_events=250)
        resumed = run_fleet(fleet, jobs=1, checkpoint_dir=str(ckpt),
                            resume=True)
        assert (resumed.report.fingerprint()
                == oracle.report.fingerprint())
        assert resumed.report.per_tenant() == \
            oracle.report.per_tenant()
        assert set(resumed.report.per_tenant()) == \
            {"tenant0", "tenant1"}

    @pytest.mark.parametrize("tenants,fingerprint", [
        (0, "aa99b9cff865156626d3fe60fabddb3f"
               "71fdee41a494445a333e9f3f893d838b"),
        (2, "036d67e60b32b1eda3e01e9da75036a9"
            "e7490aa493216c65a0c9f87c7fa53dc9"),
    ], ids=["plain", "tenanted"])
    def test_kill_resume_fingerprint_on_each_core(self, op_core, tmp_path,
                                                  tenants, fingerprint):
        """Kill/resume across two workers lands on the same pinned
        fleet fingerprint on the compiled and the pure-Python op path
        (pinned from the pure-Python core before the compiled one
        existed)."""
        fleet = small_fleet(devices=4 if tenants else 6,
                            tenants=tenants)
        ckpt = tmp_path / "ckpt"
        run_fleet(fleet, jobs=2, checkpoint_dir=str(ckpt),
                  stop_after_events=300)
        resumed = run_fleet(fleet, jobs=2, checkpoint_dir=str(ckpt),
                            resume=True)
        assert resumed.resumed == fleet.devices
        assert resumed.report.fingerprint() == fingerprint

    def test_checkpoint_on_one_core_resumes_on_the_other(
            self, monkeypatch, tmp_path):
        """The compiled op cycle keeps no state of its own, so a
        snapshot written on one op path resumes on the other."""
        from repro.sim import _native
        if _native.opcycle is None:
            pytest.skip("compiled op cycle unavailable")
        fleet = small_fleet(devices=3)
        oracle = run_fleet(fleet, jobs=1).report.fingerprint()
        compiled = _native.opcycle
        for index, (first, second) in enumerate(((compiled, None),
                                                 (None, compiled))):
            ckpt = tmp_path / str(index)
            monkeypatch.setattr(_native, "opcycle", first)
            run_fleet(fleet, jobs=1, checkpoint_dir=str(ckpt),
                      stop_after_events=300)
            monkeypatch.setattr(_native, "opcycle", second)
            resumed = run_fleet(fleet, jobs=1, checkpoint_dir=str(ckpt),
                                resume=True)
            assert resumed.resumed == fleet.devices
            assert resumed.report.fingerprint() == oracle

    def test_devices_see_distinct_workloads(self):
        fleet = small_fleet(devices=3)
        result = run_fleet(fleet, jobs=1)
        prints = {r["fingerprint"]
                  for r in result.report.device_results}
        assert len(prints) == 3

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_fleet(small_fleet(), resume=True)


class TestFleetMemoization:
    def test_second_pass_hits_cache(self, tmp_path):
        fleet = small_fleet(devices=3)
        cache = ResultCache(root=tmp_path / "cache")
        first = run_fleet(fleet, jobs=1, cache=cache)
        assert first.cache_hits == 0
        second = run_fleet(fleet, jobs=1, cache=cache)
        assert second.cache_hits == 3
        assert (json.dumps(first.report.to_dict(), sort_keys=True)
                == json.dumps(second.report.to_dict(),
                              sort_keys=True))

    def test_partial_pass_skips_cache(self, tmp_path):
        fleet = small_fleet(devices=2)
        cache = ResultCache(root=tmp_path / "cache")
        run_fleet(fleet, jobs=1, cache=cache)
        partial = run_fleet(fleet, jobs=1, cache=cache,
                            checkpoint_dir=str(tmp_path / "ckpt"),
                            stop_after_events=200)
        assert partial.cache_hits == 0
        assert partial.report.checkpointed == 2

    def test_cache_rejects_foreign_version(self, tmp_path,
                                           monkeypatch):
        cache = ResultCache(root=tmp_path / "cache")
        cache.put("a" * 64, "fleet_device", {"completed": True})
        assert cache.get("a" * 64) is not None
        monkeypatch.setattr(engine, "__version__", "0.0.0-foreign")
        assert cache.get("a" * 64) is None


class TestFleetReport:
    @staticmethod
    def device(device_id, erases, iops, tenants=None):
        return {
            "device_id": device_id,
            "ftl_name": "flexFTL",
            "completed": True,
            "events": 100,
            "measured_events": 90,
            "sim_now": "0.1",
            "elapsed": 0.1,
            "completed_requests": 50,
            "iops": iops,
            "counters": {"host_programs": 40, "gc_programs": 10,
                         "erases": erases},
            "erases": erases,
            "write_amplification": 50 / 40,
            "fingerprint": f"f{device_id}",
            "tenants": tenants or {},
        }

    def test_totals_math(self):
        report = FleetReport([self.device(1, erases=4, iops=1000.0),
                              self.device(0, erases=8, iops=3000.0)])
        totals = report.totals()
        assert totals["devices"] == 2
        assert totals["completed_devices"] == 2
        assert totals["events"] == 200
        assert totals["completed_requests"] == 100
        assert totals["erases_total"] == 12
        assert totals["erases_max"] == 8
        assert totals["erases_mean"] == 6.0
        assert totals["counters"]["host_programs"] == 80
        assert totals["write_amplification"] == \
            pytest.approx(100 / 80)
        assert totals["iops_sum"] == 4000.0
        assert totals["iops_mean"] == 2000.0

    def test_results_sorted_and_fingerprint_order_free(self):
        a = [self.device(0, 1, None), self.device(1, 1, None)]
        b = list(reversed(a))
        assert (FleetReport(a).fingerprint()
                == FleetReport(b).fingerprint())
        assert [r["device_id"]
                for r in FleetReport(b).device_results] == [0, 1]

    def test_per_tenant_rollup(self):
        t0 = {"reads": 10, "writes": 5, "read_violations": 1,
              "write_violations": 0, "read_p99": 0.002,
              "write_p99": 0.004}
        t1 = {"reads": 20, "writes": 15, "read_violations": 0,
              "write_violations": 2, "read_p99": 0.001,
              "write_p99": 0.008}
        report = FleetReport([
            self.device(0, 1, None, tenants={"tenant0": t0}),
            self.device(1, 1, None, tenants={"tenant0": t1}),
        ])
        tenant = report.per_tenant()["tenant0"]
        assert tenant["devices"] == 2
        assert tenant["reads"] == 30
        assert tenant["write_violations"] == 2
        assert tenant["write_p99_max"] == 0.008
        assert tenant["write_p99_mean"] == pytest.approx(0.006)

    def test_to_metrics_publishes(self):
        report = FleetReport([self.device(0, erases=4, iops=500.0)])
        registry = report.to_metrics()
        counters = registry.to_dict()["counters"]
        assert counters["fleet.devices"] == 1
        assert counters["fleet.erases"] == 4
        assert counters["fleet.ftl{counter=host_programs}"] == 40

    def test_render_mentions_fingerprint(self):
        report = FleetReport([self.device(0, 1, None)])
        assert "fingerprint" in report.render()
        assert "devices" in report.render()


class TestServeCli:
    def test_serve_smoke(self, tmp_path, capsys):
        from repro.cli import main
        ckpt = tmp_path / "ckpt"
        args = ["serve", "--devices", "4", "--ops", "60",
                "--tenants", "2", "--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fleet report" in out
        assert "tenant0" in out

        assert main(args[:-1] + ["--no-cache", "--checkpoint-dir",
                                 str(ckpt),
                                 "--stop-after-events", "200"]) == 0
        capsys.readouterr()
        assert main(args + ["--checkpoint-dir", str(ckpt),
                            "--resume", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["completed_devices"] == 4
        assert payload["service"]["resumed_devices"] == 4
        assert payload["service"]["core"] in ("compiled", "python")

    def test_serve_rejects_unknown_ftl(self):
        from repro.cli import main
        assert main(["serve", "--ftl", "nope"]) != 0

    def test_serve_rejects_resume_without_dir(self):
        from repro.cli import main
        assert main(["serve", "--resume"]) != 0
