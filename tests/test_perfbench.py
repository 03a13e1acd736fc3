"""Tests for repro.perfbench: the core throughput benchmark."""

import dataclasses
import json
import pstats
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.perfbench.harness import (
    WORKLOADS,
    PairedResult,
    run_perfbench,
    run_physics_overhead,
    run_trace_overhead,
)
from repro.sim import _native

ROOT = Path(__file__).resolve().parent.parent

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

    def test_paired_modes_are_mutually_exclusive(self, capsys):
        assert main(["perfbench", "--trace-overhead",
                     "--physics-overhead"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_full_history_flag(self, capsys):
        assert main(["perfbench", "--scale", "0.01",
                     "--workloads", "fig8_write",
                     "--full-history", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["track_history"] is True


class TestPairedResult:
    """Estimators and projections of the one paired-comparison result."""

    RESULT = PairedResult(title="t", labels=("off", "on"),
                          a=[100.0, 80.0, 90.0], b=[75.0, 72.0, 81.0],
                          events=7, budget_pct=20.0)

    def test_estimators_on_fixed_rates(self):
        result = self.RESULT
        assert result.speedup() == pytest.approx(0.81)
        assert result.overhead_pct() == pytest.approx(19.0)
        assert result.pair_overheads_pct() == pytest.approx(
            [25.0, 10.0, 10.0])
        assert result.paired_median_pct() == pytest.approx(10.0)
        assert result.passed()
        assert not dataclasses.replace(result, budget_pct=18.9).passed()
        assert dataclasses.replace(result, budget_pct=None).passed()
        even = dataclasses.replace(result, a=[100.0, 100.0],
                                   b=[90.0, 70.0])
        assert even.paired_median_pct() == pytest.approx(20.0)

    def test_projection_without_budget_has_no_verdict(self):
        result = dataclasses.replace(self.RESULT, budget_pct=None,
                                     labels=("baseline", "new"))
        payload = result.to_dict()
        assert payload["events"] == 7
        assert set(payload["events_per_sec"]) == {"baseline", "new"}
        assert {"budget_pct", "passed"}.isdisjoint(payload["summary"])
        assert payload["summary"]["best_new"] == 81.0
        assert "PASS" not in result.render()

    @pytest.mark.parametrize("run, committed", [
        (run_trace_overhead, "BENCH_PR5.json"),
        (run_physics_overhead, "BENCH_PR10.json"),
    ])
    def test_overhead_report_matches_committed_schema(self, run,
                                                      committed):
        result = run(scale=0.02, rounds=2, budget_pct=1e9)
        payload = result.to_dict()
        reference = json.loads((ROOT / committed).read_text())
        assert set(reference) <= set(payload)
        assert set(reference["summary"]) <= set(payload["summary"])
        assert payload.get("physics") == reference.get("physics")
        assert payload["rounds"] == len(payload["pair_overheads_pct"]) == 2
        assert payload["summary"]["passed"] is True
        json.dumps(payload)
        report = result.render()
        assert report.splitlines()[0].startswith(
            "physics overhead" if "physics" in payload
            else "trace overhead")
        assert report.endswith("PASS")


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
