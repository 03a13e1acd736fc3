"""The trace summary must reconcile *exactly* with run statistics.

``repro trace summary`` is only trustworthy if its aggregates agree
with the system's independent bookkeeping — ``SimStats``, the FTL's
counters and the NAND array's totals.  These tests drive real
simulations and assert equality, not approximation: one page of
disagreement means the trace (or the summary) is lying.
"""

import json
import subprocess
import sys

from repro.core.flexftl import FlexFtl
from repro.experiments.runner import ExperimentConfig, run_workload
from repro.nand.geometry import NandGeometry
from repro.observability.summary import (summarize_jsonl,
                                         summarize_tracer)
from repro.observability.tracer import Tracer
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import RequestKind
from tests.helpers import StreamScenario

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)
SPAN = 140


def mixed_stream():
    """Writes with overwrite churn plus reads (some buffer hits)."""
    ops = [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(SPAN)]
    ops.extend(StreamOp(RequestKind.WRITE, lpn, 1)
               for lpn in range(0, SPAN, 2))
    ops.extend(StreamOp(RequestKind.READ, lpn, 1)
               for lpn in range(0, SPAN, 3))
    ops.extend(StreamOp(RequestKind.WRITE, lpn, 1)
               for lpn in range(0, SPAN, 5))
    ops.extend(StreamOp(RequestKind.READ, lpn, 1)
               for lpn in range(SPAN - 10, SPAN))
    return ops


def traced_run():
    system = build_small_system(FlexFtl, GEOMETRY, buffer_pages=16)
    sim, array, buffer, ftl, controller = system
    tracer = Tracer()
    tracer.install(controller)
    host = ClosedLoopHost(sim, controller, [mixed_stream()])
    host.start()
    sim.run()
    tracer.detach()
    assert buffer.is_empty
    return tracer, system


class TestReconciliation:
    def test_op_counts_match_every_bookkeeper(self):
        tracer, (sim, array, buffer, ftl, controller) = traced_run()
        summary = summarize_tracer(tracer)
        counters = ftl.counters()
        stats = controller.stats

        # programs: trace == array == FTL attribution
        assert summary.ops(kind="program") == array.total_programs
        assert summary.ops(kind="program", tag="host") \
            == counters["host_programs"]
        assert summary.ops(kind="program", tag="gc") \
            == counters["gc_programs"]
        assert summary.ops(kind="program", tag="backup") \
            == counters["backup_programs"]

        # erases: trace == array == FTL
        assert summary.ops(kind="erase") == array.total_erases \
            == counters["erases"]

        # reads that reached the NAND: trace == array (GC relocations
        # read via direct array access, so host reads are the total)
        assert summary.ops(kind="read") == array.total_reads \
            == summary.ops(kind="read", tag="host")

        # allocation decisions: one per host page on silicon, and the
        # LSB/MSB split sums to the total
        assert summary.allocs() == counters["host_programs"]
        assert summary.allocs(ptype="lsb") \
            + summary.allocs(ptype="msb") == summary.allocs()

        # SimStats host admission: every admitted page either coalesced
        # in the buffer or became exactly one host program; with the
        # buffer drained and distinct in-flight lpns they are equal
        assert stats.written_pages >= counters["host_programs"]

    def test_unique_lpn_stream_reconciles_with_simstats_exactly(self):
        system = build_small_system(FlexFtl, GEOMETRY, buffer_pages=16)
        sim, array, buffer, ftl, controller = system
        tracer = Tracer().install(controller)
        # distinct lpns with no rewrites: admission == host programs
        host = ClosedLoopHost(sim, controller, [
            [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(SPAN)]
        ])
        host.start()
        sim.run()
        tracer.detach()
        summary = summarize_tracer(tracer)
        assert buffer.is_empty
        assert summary.allocs() == controller.stats.written_pages
        assert summary.ops(kind="program", tag="host") \
            == controller.stats.written_pages

    def test_phase_events_match_run_result(self):
        config = ExperimentConfig(geometry=GEOMETRY, buffer_pages=16,
                                  track_history=False)
        tracer = Tracer()
        result = run_workload(
            ftl_name="flexFTL",
            scenario=StreamScenario([mixed_stream()]),
            config=config,
            tracer=tracer,
        )
        summary = summarize_tracer(tracer)
        # the profiler phases (warmup + measured) cover every kernel
        # event the run retired
        assert [phase["name"] for phase in summary.phases] \
            == ["warmup", "measured"]
        assert summary.phase_events() == result.events
        # measured-phase host programs agree with the run's counters
        assert summary.ops(phase="measured", kind="program",
                           tag="host") \
            == result.counters["host_programs"]
        assert summary.ops(phase="measured", kind="erase") \
            == result.counters["erases"]
        # the metrics registry snapshot rode along on the stats
        assert result.stats.metrics is not None
        assert "metrics" in result.stats.to_dict()


class TestSummaryCli:
    def test_cli_summary_agrees_with_library(self, tmp_path):
        tracer, _ = traced_run()
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        expected = summarize_jsonl(str(path)).to_dict()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "summary",
             str(path), "--json"],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(proc.stdout) == expected

    def test_cli_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"trace.meta","schema":999}\n')
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "summary",
             str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0