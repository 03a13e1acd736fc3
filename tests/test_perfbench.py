"""Tests for repro.perfbench: the core throughput benchmark."""

import json
import pstats

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.perfbench.harness import WORKLOADS, run_perfbench
from repro.sim import _native

#: Smallest meaningful run: op floors kick in, the warm-up fill still
#: dominates, each workload finishes in well under a second.
TINY = dict(scale=0.01, workloads=["fig8_write"])


class TestHarness:
    def test_all_workloads_timed(self):
        result = run_perfbench(scale=0.01)
        assert set(result.timings) == set(WORKLOADS)
        for timing in result.timings.values():
            assert timing.events > 0
            assert timing.host_ops > 0
            assert timing.wall_seconds > 0
            assert timing.events_per_sec > 0
            assert timing.host_ops_per_sec > 0

    def test_workload_subset_and_order(self):
        result = run_perfbench(scale=0.01,
                               workloads=["zipf_mix", "fig8_write"])
        assert list(result.timings) == ["zipf_mix", "fig8_write"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            run_perfbench(scale=0.01, workloads=["nope"])

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            run_perfbench(scale=0.0)

    def test_summary_and_floor(self):
        result = run_perfbench(**TINY, floor=1.0)
        assert result.passed()
        assert result.min_events_per_sec() <= result.median_events_per_sec()
        failing = run_perfbench(**TINY, floor=1e12)
        assert not failing.passed()

    def test_json_projection_schema(self):
        result = run_perfbench(**TINY, floor=1.0)
        payload = result.to_dict()
        assert payload["ftl"] == "flexFTL"
        assert payload["track_history"] is False
        assert set(payload["workloads"]) == {"fig8_write"}
        assert payload["summary"]["min_events_per_sec"] > 0
        assert payload["floor"]["passed"] is True
        assert payload["core"] == _native.active_core()
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "bench.json"
        result = run_perfbench(**TINY, output_path=str(out))
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(result.to_dict()))

    def test_profile_stats_dumped(self, tmp_path):
        prof = tmp_path / "bench.prof"
        result = run_perfbench(**TINY, profile_path=str(prof))
        assert result.profile_path == str(prof)
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0

    def test_render_mentions_every_workload(self):
        result = run_perfbench(scale=0.01)
        report = result.render()
        for name in WORKLOADS:
            assert name in report
        assert "events/s" in report

    def test_deterministic_event_counts(self):
        first = run_perfbench(**TINY)
        second = run_perfbench(**TINY)
        one, two = (r.timings["fig8_write"] for r in (first, second))
        assert one.events == two.events
        assert one.host_ops == two.host_ops


class TestCli:
    def test_registered_in_registry(self):
        assert "perfbench" in {e.name for e in registry.all_experiments()}

    def test_quick_run(self, capsys):
        assert main(["perfbench", "--quick",
                     "--workloads", "fig8_write"]) == 0
        out = capsys.readouterr().out
        assert "fig8_write" in out
        assert "events/s" in out

    def test_json_output(self, capsys):
        assert main(["perfbench", "--scale", "0.01",
                     "--workloads", "fig8_write", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == 0.01
        assert "fig8_write" in payload["workloads"]

    def test_floor_failure_exit_code(self, capsys):
        argv = ["perfbench", "--scale", "0.01",
                "--workloads", "fig8_write", "--floor"]
        assert main(argv + ["1"]) == 0
        assert main(argv + ["1000000000000"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_workload_is_a_cli_error(self, capsys):
        assert main(["perfbench", "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_full_history_flag(self, capsys):
        assert main(["perfbench", "--scale", "0.01",
                     "--workloads", "fig8_write",
                     "--full-history", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["track_history"] is True


class TestScaleSweep:
    def test_sweep_geometry_shapes(self):
        from repro.perfbench.harness import sweep_geometry

        g1, g4, g16 = (sweep_geometry(m) for m in (1, 4, 16))
        assert (g1.channels, g1.chips_per_channel) == (4, 2)
        assert (g4.channels, g4.chips_per_channel) == (8, 4)
        assert (g16.channels, g16.chips_per_channel) == (16, 8)
        # Chip count scales linearly with the multiplier.
        assert g4.channels * g4.chips_per_channel == 4 * 8
        assert g16.channels * g16.chips_per_channel == 16 * 8

    def test_non_square_multiplier_rejected(self):
        from repro.perfbench.harness import sweep_geometry

        for bad in (0, -1, 2, 3, 8):
            with pytest.raises(ValueError, match="perfect square"):
                sweep_geometry(bad)

    def test_tiny_sweep_end_to_end(self, tmp_path):
        from repro.perfbench.harness import run_scale_sweep

        out = tmp_path / "sweep.json"
        result = run_scale_sweep(scale=0.01, rounds=1,
                                 multipliers=(1, 4),
                                 output_path=str(out))
        assert [p.multiplier for p in result.points] == [1, 4]
        for point in result.points:
            assert point.events > 0
            assert len(point.new) == len(point.baseline) == 1
            assert point.speedup() > 0
        payload = result.to_dict()
        assert payload["kernel"] == "calendar"
        assert [p["multiplier"] for p in payload["points"]] == [1, 4]
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(payload))
        report = result.render()
        assert "1x" in report and "4x" in report

    def test_sweep_rejects_bad_inputs(self):
        from repro.perfbench.harness import run_scale_sweep

        with pytest.raises(KeyError):
            run_scale_sweep(workload="nope", scale=0.01, rounds=1,
                            multipliers=(1,))
        with pytest.raises(ValueError):
            run_scale_sweep(scale=0.0, rounds=1, multipliers=(1,))
        with pytest.raises(ValueError):
            run_scale_sweep(scale=0.01, rounds=0, multipliers=(1,))

    def test_cli_sweep(self, capsys):
        assert main(["perfbench", "--scale-sweep", "--scale", "0.01",
                     "--rounds", "1", "--sweep-multipliers", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["multiplier"] for p in payload["points"]] == [1]

    def test_cli_sweep_and_trace_overhead_conflict(self, capsys):
        assert main(["perfbench", "--scale-sweep",
                     "--trace-overhead"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cli_bad_multipliers(self, capsys):
        assert main(["perfbench", "--scale-sweep",
                     "--sweep-multipliers", "1,x"]) == 2
        assert "sweep-multipliers" in capsys.readouterr().err

    def test_cli_kernel_flag_reaches_result(self, capsys):
        assert main(["perfbench", "--scale", "0.01",
                     "--workloads", "fig8_write", "--kernel", "heap",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "heap"


class TestCommittedBenchGuards:
    """The committed BENCH_*.json artifacts must be self-consistent.

    A guard file that records ``passed: false``, or a trace-overhead
    file judged against a budget other than the one the CLI defaults
    to, means the committed evidence no longer backs the claims made
    in the docs and CI comments (the PR-5 file briefly had exactly
    that skew: judged at 3%, CI enforcing 30%).
    """

    def test_committed_guards_pass_their_recorded_budget(self):
        from pathlib import Path

        from repro.perfbench.harness import (
            PHYSICS_OVERHEAD_BUDGET_PCT,
            TRACE_OVERHEAD_BUDGET_PCT,
        )

        root = Path(__file__).resolve().parent.parent
        bench_files = sorted(root.glob("BENCH_*.json"))
        assert bench_files, "no committed BENCH_*.json found"
        for path in bench_files:
            payload = json.loads(path.read_text())
            summary = payload.get("summary", {})
            if "budget_pct" in summary:  # overhead artifact
                assert summary["passed"] is True, (
                    f"{path.name} records passed: false — regenerate "
                    f"it or fix the regression it documents")
                # Physics-overhead artifacts carry the stress block;
                # everything else is a trace-overhead artifact.
                enforced = (PHYSICS_OVERHEAD_BUDGET_PCT
                            if "physics" in payload
                            else TRACE_OVERHEAD_BUDGET_PCT)
                assert summary["budget_pct"] == enforced, (
                    f"{path.name} judged at {summary['budget_pct']}%, "
                    f"but the enforced default is {enforced}%")
