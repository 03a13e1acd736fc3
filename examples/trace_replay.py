#!/usr/bin/env python3
"""Replay an externally captured block trace (open-loop).

The Table 1 emulators are closed-loop; this example shows the other
evaluation mode: open-loop replay of a timestamped block trace — here
a synthetic MSR-Cambridge-style capture written to a temporary
directory (removed on exit), parsed with
:func:`repro.workloads.external.load_msr_trace`, fitted to the
simulated device, and replayed against pageFTL and flexFTL.

Usage::

    python examples/trace_replay.py [path/to/trace.csv]
"""

import random
import sys
import tempfile
from pathlib import Path

from repro.experiments import ExperimentConfig, build_system
from repro.metrics.report import render_table
from repro.sim.host import TraceReplayHost
from repro.workloads.external import fit_trace, load_msr_trace


def synthesize_msr_csv(path: Path, records: int = 4000,
                       seed: int = 7) -> None:
    """Write a small synthetic MSR-Cambridge-style capture."""
    rng = random.Random(seed)
    ticks = 0
    lines = []
    for _ in range(records):
        # bursty arrivals: mostly sub-ms gaps, occasional long idles
        ticks += rng.choice([2_000, 5_000, 10_000, 2_000_000])
        op = "Write" if rng.random() < 0.6 else "Read"
        offset = rng.randrange(0, 2 ** 30, 512)
        size = rng.choice([4096, 8192, 16384, 65536])
        lines.append(f"{ticks},host0,0,{op},{offset},{size},0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    if len(sys.argv) > 1:
        replay(Path(sys.argv[1]))
        return
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = Path(scratch) / "synthetic_msr.csv"
        synthesize_msr_csv(trace_path)
        print(f"no trace given; synthesised one at {trace_path} "
              f"(removed on exit)")
        replay(trace_path)


def replay(trace_path: Path) -> None:
    """Replay one MSR capture against pageFTL and flexFTL."""
    raw = load_msr_trace(trace_path)
    print(f"loaded {len(raw)} requests spanning "
          f"{raw[-1].time - raw[0].time:.2f} s")

    config = ExperimentConfig()
    rows = []
    for ftl_name in ("pageFTL", "flexFTL"):
        sim, array, buffer, ftl, controller = build_system(ftl_name,
                                                           config)
        fitted = fit_trace(raw, ftl.logical_pages)
        TraceReplayHost(sim, controller, fitted).start()
        sim.run()
        stats = controller.stats
        rows.append([
            ftl_name,
            stats.completed_requests,
            f"{stats.iops():.0f}",
            array.total_erases,
            f"{stats.write_bandwidth.percentile(1.0):.1f}",
        ])
    print()
    print(render_table(
        ["FTL", "requests", "IOPS", "erases", "peak BW [MB/s]"], rows))


if __name__ == "__main__":
    main()
