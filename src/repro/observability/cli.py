"""CLI registration of ``repro trace``.

Two actions:

* ``repro trace summary <file.jsonl>`` — digest a recorded trace:
  per-phase profiling, per-tag/kind op counts, allocation decisions,
  cold-event tallies.
* ``repro trace record --out <file.jsonl>`` — run one perfbench-style
  workload with tracing armed and write the JSONL trace (a convenient
  producer for ``summary``; library users call
  :func:`repro.experiments.runner.run_workload` with a ``tracer=``
  instead).
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Dict, Optional

from repro.experiments import registry
from repro.experiments.engine import EngineOptions
from repro.observability.summary import (
    TraceFormatError,
    TraceSummary,
    summarize_jsonl,
)
from repro.observability.tracer import Tracer


@dataclasses.dataclass
class TraceRecordResult:
    """Outcome of ``repro trace record``."""

    path: str
    events_written: int
    dropped_ops: int
    ftl: str
    workload: str

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def render(self) -> str:
        line = (f"wrote {self.events_written} events "
                f"({self.ftl}, {self.workload}) to {self.path}")
        if self.dropped_ops:
            line += f"; {self.dropped_ops} op records dropped (ring)"
        return line


def _cli_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action", choices=("summary", "record"),
        help="summary: digest a JSONL trace; record: run a traced "
             "workload and write one")
    parser.add_argument(
        "path", nargs="?", default=None,
        help="trace file to summarize (required for summary)")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output trace file (required for record)")
    parser.add_argument(
        "--workload", default="fig8_write",
        help="perfbench workload to record (default fig8_write)")
    parser.add_argument(
        "--ftl", default="flexFTL",
        help="FTL to run (default flexFTL)")
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="op-count multiplier, perfbench semantics (default 0.1)")
    parser.add_argument(
        "--capacity", type=int, default=None, metavar="OPS",
        help="ring-buffer capacity in op records (default: unbounded)")


def _record(args: argparse.Namespace) -> TraceRecordResult:
    from repro.experiments.runner import ExperimentConfig, run_workload
    from repro.perfbench.harness import WORKLOADS, bench_span

    if args.out is None:
        raise registry.CliError("trace record needs --out PATH")
    if args.workload not in WORKLOADS:
        raise registry.CliError(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}")
    config = ExperimentConfig(track_history=False)
    registry.require_ftl(args.ftl, config)
    span = bench_span(args.ftl, config)
    scenario = WORKLOADS[args.workload](span, args.scale, args.seed)
    tracer = Tracer(capacity=args.capacity)
    run_workload(ftl_name=args.ftl, scenario=scenario, config=config,
                 warmup_span=span, tracer=tracer)
    written = tracer.write_jsonl(args.out)
    return TraceRecordResult(
        path=args.out,
        events_written=written,
        dropped_ops=tracer.dropped_ops,
        ftl=args.ftl,
        workload=args.workload,
    )


def _cli_run(args: argparse.Namespace,
             engine_options: EngineOptions):
    del engine_options  # single serial run either way
    if args.action == "summary":
        if args.path is None:
            raise registry.CliError(
                "trace summary needs a trace file path")
        try:
            return summarize_jsonl(args.path)
        except FileNotFoundError as error:
            raise registry.CliError(str(error)) from error
        except TraceFormatError as error:
            raise registry.CliError(str(error)) from error
    return _record(args)


def _cli_render(result) -> str:
    return result.render()


registry.register(registry.Experiment(
    name="trace",
    help="record or summarize structured simulation traces",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda result: result.to_dict(),
))


__all__ = ["TraceRecordResult", "TraceSummary"]
