"""Table 1: I/O characteristics of the five benchmark workloads.

Regenerates the published table from the workload generators and, as a
cross-check, characterises actually-generated streams: the empirical
read fraction and the issue intensity implied by the think times.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.report import render_table
from repro.sim.host import StreamOp
from repro.sim.queues import RequestKind
from repro.workloads.benchmarks import PROFILES, ProfileScenario


@dataclasses.dataclass
class WorkloadCharacteristics:
    """Empirical characteristics of one generated workload."""

    name: str
    total_ops: int
    read_fraction: float
    mean_request_pages: float
    mean_think: float
    median_think: float
    intensiveness: str

    @property
    def read_write_ratio(self) -> str:
        """``R:W`` label, as Table 1 prints it."""
        from repro.workloads.benchmarks import format_rw_ratio
        return format_rw_ratio(self.read_fraction)


def classify_intensity(mean_think: float,
                       median_think: float = 0.0) -> str:
    """Map think-time structure onto Table 1's intensity classes.

    A near-zero *mean* means back-to-back issue throughout: very high.
    A zero *median* with a larger mean means bursts separated by idle
    gaps: high.  Everything else (steady long think times): moderate.
    """
    if mean_think < 1e-4:
        return "very high"
    if median_think < 1e-4 or mean_think < 2e-3:
        return "high"
    return "moderate"


def characterize(name: str, streams: Iterable[Iterable[StreamOp]]
                 ) -> WorkloadCharacteristics:
    """Measure a generated workload's empirical characteristics."""
    ops: List[StreamOp] = [op for stream in streams for op in stream]
    if not ops:
        raise ValueError(f"workload {name!r} generated no operations")
    reads = sum(1 for op in ops if op.kind is RequestKind.READ)
    thinks = sorted(op.think_after for op in ops)
    mean_think = sum(thinks) / len(thinks)
    median_think = thinks[len(thinks) // 2]
    mean_pages = sum(op.npages for op in ops) / len(ops)
    return WorkloadCharacteristics(
        name=name,
        total_ops=len(ops),
        read_fraction=reads / len(ops),
        mean_request_pages=mean_pages,
        mean_think=mean_think,
        median_think=median_think,
        intensiveness=classify_intensity(mean_think, median_think),
    )


def run_table1(logical_pages: int = 16384, total_ops: int = 20000,
               seed: int = 1,
               workloads: Optional[Sequence[str]] = None
               ) -> Dict[str, WorkloadCharacteristics]:
    """Generate and characterise all five workloads."""
    workloads = list(workloads or PROFILES)
    return {
        name: characterize(name, ProfileScenario(
            name, logical_pages, total_ops, seed).op_streams())
        for name in workloads
    }


def render_table1(characteristics: Dict[str, WorkloadCharacteristics]
                  ) -> str:
    """Render the Table 1 reproduction (configured + measured rows)."""
    names = list(characteristics)
    headers = [""] + names
    configured_ratio = ["Read:Write (configured)"] + [
        PROFILES[n].read_write_ratio if n in PROFILES else "-"
        for n in names
    ]
    measured_ratio = ["Read:Write (measured)"] + [
        characteristics[n].read_write_ratio for n in names
    ]
    intensity = ["I/O intensiveness"] + [
        characteristics[n].intensiveness for n in names
    ]
    think = ["mean think [ms]"] + [
        f"{characteristics[n].mean_think * 1e3:.2f}" for n in names
    ]
    return render_table(headers,
                        [configured_ratio, measured_ratio, intensity,
                         think])


# -- CLI registration --------------------------------------------------

from repro.experiments import registry  # noqa: E402
from repro.experiments.engine import EngineOptions  # noqa: E402


def _cli_arguments(parser) -> None:
    parser.add_argument("--ops", type=int, default=20000)


def _cli_run(args, engine_options: EngineOptions
             ) -> Dict[str, WorkloadCharacteristics]:
    return run_table1(total_ops=args.ops, seed=args.seed)


def _cli_render(characteristics: Dict[str, WorkloadCharacteristics]
                ) -> str:
    return ("Table 1: I/O characteristics of the five workloads\n"
            + render_table1(characteristics))


registry.register(registry.Experiment(
    name="table1",
    help="workload characteristics",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda characteristics: {
        name: dataclasses.asdict(wc)
        for name, wc in characteristics.items()
    },
))
