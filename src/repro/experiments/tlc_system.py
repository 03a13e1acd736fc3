"""System-level TLC comparison: three-phase flexFTL vs FPS baseline.

Runs the TLC FTLs of :mod:`repro.core.tlc_ftl` through the same
discrete-event controller, write buffer and closed-loop hosts as the
MLC experiments, on a Varmail-style bursty workload.  Expected shape:
the three-phase FTL absorbs bursts at LSB speed, so its IOPS and peak
write bandwidth beat the staggered FPS baseline by more than the MLC
flexFTL-vs-pageFTL gap (the asymmetry is steeper).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Optional, Tuple

from repro.core.tlc_ftl import TlcFlexFtl, TlcPageFtl
from repro.experiments import registry
from repro.experiments.engine import Cell, EngineOptions, run_cells
from repro.ftl.base import FtlConfig
from repro.metrics.report import render_table
from repro.nand.tlc import TlcScheme
from repro.nand.tlc_array import TlcGeometry, TlcNandArray, TlcTiming
from repro.sim.controller import StorageController
from repro.sim.host import ClosedLoopHost
from repro.sim.kernel import Simulator
from repro.sim.queues import WriteBuffer
from repro.sim.stats import SimStats
from repro.workloads.benchmarks import ProfileScenario
from repro.workloads.synthetic import sequential_fill

#: TLC FTL name -> (class, device scheme).
TLC_REGISTRY = {
    "tlc-pageFTL": (TlcPageFtl, TlcScheme.FPS),
    "tlc-flexFTL": (TlcFlexFtl, TlcScheme.RPS),
}

DEFAULT_TLC_GEOMETRY = TlcGeometry(
    channels=4, chips_per_channel=2, blocks_per_chip=64,
    pages_per_block=48, page_size=4096,
)


@dataclasses.dataclass
class TlcRunResult:
    """Measured-phase outcome of one TLC run."""

    ftl_name: str
    stats: SimStats
    counters: Dict[str, int]
    logical_pages: int

    @property
    def iops(self) -> float:
        """Completed host requests per second."""
        return self.stats.iops()

    @property
    def erases(self) -> int:
        """Block erasures during the measured phase."""
        return self.counters["erases"]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot, invertible via :meth:`from_dict`."""
        return {
            "ftl_name": self.ftl_name,
            "stats": self.stats.to_dict(),
            "counters": dict(self.counters),
            "logical_pages": self.logical_pages,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TlcRunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ftl_name=str(data["ftl_name"]),
            stats=SimStats.from_dict(data["stats"]),  # type: ignore[arg-type]
            counters={str(k): int(v)
                      for k, v in data["counters"].items()},  # type: ignore[union-attr]
            logical_pages=int(data["logical_pages"]),  # type: ignore[arg-type]
        )


def build_tlc_system(ftl_name: str,
                     geometry: Optional[TlcGeometry] = None,
                     buffer_pages: int = 256,
                     ftl_config: Optional[FtlConfig] = None
                     ) -> Tuple[Simulator, TlcNandArray, WriteBuffer,
                                object, StorageController]:
    """Assemble a complete TLC storage system."""
    if ftl_name not in TLC_REGISTRY:
        raise KeyError(f"unknown TLC FTL {ftl_name!r}; choose from "
                       f"{sorted(TLC_REGISTRY)}")
    ftl_cls, scheme = TLC_REGISTRY[ftl_name]
    sim = Simulator()
    array = TlcNandArray(geometry or DEFAULT_TLC_GEOMETRY,
                         TlcTiming(), scheme=scheme)
    buffer = WriteBuffer(buffer_pages)
    ftl = ftl_cls(array, buffer, ftl_config or FtlConfig())
    stats = SimStats(page_size=array.geometry.page_size)
    controller = StorageController(sim, array, ftl, buffer, stats)
    return sim, array, buffer, ftl, controller


def run_tlc_workload(ftl_name: str, workload: str = "Varmail",
                     total_ops: int = 8000, utilization: float = 0.7,
                     seed: int = 1,
                     geometry: Optional[TlcGeometry] = None
                     ) -> TlcRunResult:
    """Precondition and run one workload on one TLC FTL."""
    sim, array, buffer, ftl, controller = build_tlc_system(
        ftl_name, geometry=geometry)
    span = max(1, int(ftl.logical_pages * utilization))

    warmup = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    warmup.start()
    sim.run()
    if isinstance(ftl, TlcFlexFtl):
        ftl.quota = ftl.quota_cap  # fresh start, as in the MLC runner

    baseline = dict(ftl.counters())
    stats = SimStats(page_size=array.geometry.page_size)
    controller.stats = stats
    scenario = ProfileScenario(workload, span, total_ops=total_ops,
                               seed=seed)
    host = ClosedLoopHost(sim, controller, scenario.op_streams())
    host.start()
    sim.run()

    final = ftl.counters()
    deltas = {key: final[key] - baseline.get(key, 0) for key in final}
    return TlcRunResult(ftl_name=ftl_name, stats=stats,
                        counters=deltas,
                        logical_pages=ftl.logical_pages)


def run_tlc_system_comparison(workload: str = "Varmail",
                              total_ops: int = 8000, seed: int = 1,
                              engine: Optional[EngineOptions] = None,
                              ) -> Dict[str, TlcRunResult]:
    """Run both TLC FTLs on the same workload (one engine cell each)."""
    names = list(TLC_REGISTRY)
    cells = [Cell.make("tlc_workload", label=name, ftl_name=name,
                       workload=workload, total_ops=total_ops, seed=seed)
             for name in names]
    results = run_cells(cells, options=engine, label="tlc")
    return dict(zip(names, results))


def render_tlc_comparison(results: Dict[str, TlcRunResult]) -> str:
    """Render the TLC system comparison table."""
    rows = []
    for name, result in results.items():
        bandwidth = result.stats.write_bandwidth
        samples = bandwidth.samples_mbps()
        rows.append([
            name, f"{result.iops:.0f}", result.erases,
            f"{max(samples) if samples else 0:.1f}",
            result.counters.get("quota", "-"),
        ])
    return render_table(
        ["TLC FTL", "IOPS", "erases", "peak BW [MB/s]", "final quota"],
        rows)


# -- CLI registration --------------------------------------------------
#
# The ``tlc`` command has three modes: the constraint/aggressor order
# table, the burst-service study, and the full DES system comparison
# (the only grid-shaped one, which runs through the engine).


def _render_tlc_orders(wordlines: int, seed: int) -> str:
    from repro.nand.tlc import (
        TlcScheme as Scheme,
        fps_tlc_order,
        is_valid_tlc_order,
        random_rps_tlc_order,
        rps_tlc_full_order,
        tlc_max_aggressors,
        unconstrained_tlc_order,
    )

    rng = random.Random(seed)
    orders = {
        "FPS-TLC": fps_tlc_order(wordlines),
        "RPS-TLC full": rps_tlc_full_order(wordlines),
        "RPS-TLC random": random_rps_tlc_order(wordlines, rng),
        "unconstrained": unconstrained_tlc_order(wordlines, rng),
    }
    rows = [[name, tlc_max_aggressors(order, wordlines),
             "yes" if is_valid_tlc_order(order, wordlines, Scheme.RPS)
             else "no"]
            for name, order in orders.items()]
    return (f"TLC generalisation ({wordlines} word lines, "
            f"{3 * wordlines} pages):\n"
            + render_table(["order", "max aggressors", "RPS-legal"],
                           rows))


def _cli_arguments(parser) -> None:
    parser.add_argument("--wordlines", type=int, default=128)
    parser.add_argument("--mode", choices=("orders", "burst", "system"),
                        default="orders",
                        help="orders: constraint/aggressor table; "
                             "burst: burst-service study; system: full "
                             "DES comparison")


def _cli_run(args, engine_options: EngineOptions) -> Dict[str, object]:
    if args.mode == "burst":
        from repro.experiments.tlc_burst import (
            render_tlc_burst,
            run_tlc_burst_experiment,
        )
        result = run_tlc_burst_experiment(
            wordlines=args.wordlines,
            burst_pages=max(1, args.wordlines * 3 // 4))
        return {"mode": "burst", "report": render_tlc_burst(result)}
    if args.mode == "system":
        results = run_tlc_system_comparison(seed=args.seed,
                                            engine=engine_options)
        return {"mode": "system", "results": results,
                "report": render_tlc_comparison(results)}
    return {"mode": "orders",
            "report": _render_tlc_orders(args.wordlines, args.seed)}


def _cli_to_dict(payload: Dict[str, object]) -> Dict[str, object]:
    if payload["mode"] == "system":
        return {"mode": "system",
                "results": {name: result.to_dict()
                            for name, result
                            in payload["results"].items()}}
    return {"mode": payload["mode"], "report": payload["report"]}


registry.register(registry.Experiment(
    name="tlc",
    help="TLC generalisation of RPS",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=lambda payload: payload["report"],
    to_dict=_cli_to_dict,
    parallel=True,
))
