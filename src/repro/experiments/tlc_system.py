"""System-level TLC comparison: three-phase flexFTL vs FPS baseline.

Runs the TLC FTLs of :mod:`repro.core.tlc_ftl` (``FTL_REGISTRY``
names) through :func:`~repro.experiments.runner.run_workload`, one
``workload`` engine cell each, like the MLC experiments, on a
Varmail-style bursty workload.  Expected shape:
the three-phase FTL absorbs bursts at LSB speed, so its IOPS and peak
write bandwidth beat the staggered FPS baseline by more than the MLC
flexFTL-vs-pageFTL gap (the asymmetry is steeper).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.experiments import registry
from repro.experiments.engine import EngineOptions, run_cells, workload_cell
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    experiment_span,
)
from repro.metrics.report import render_table
from repro.nand.tlc_array import TlcGeometry
from repro.workloads.benchmarks import ProfileScenario

#: The compared TLC FTLs (:data:`~repro.experiments.runner.FTL_REGISTRY`
#: names), in report order.
TLC_FTLS = ("tlc-pageFTL", "tlc-flexFTL")

DEFAULT_TLC_GEOMETRY = TlcGeometry(
    channels=4, chips_per_channel=2, blocks_per_chip=64,
    pages_per_block=48, page_size=4096,
)


def run_tlc_system_comparison(workload: str = "Varmail",
                              total_ops: int = 8000, seed: int = 1,
                              engine: Optional[EngineOptions] = None,
                              ) -> Dict[str, RunResult]:
    """Run both TLC FTLs on the same workload (one engine cell each).

    Each FTL preconditions the whole 70% span, not only the profile's
    footprint, and measures one Varmail-style bursty run.
    """
    config = ExperimentConfig(geometry=DEFAULT_TLC_GEOMETRY)
    span = experiment_span(config, 0.7, ftls=TLC_FTLS)
    scenario = ProfileScenario(workload, span, total_ops=total_ops,
                               seed=seed)
    cells = [workload_cell(name, scenario=scenario, config=config,
                           warmup_span=span)
             for name in TLC_FTLS]
    results = run_cells(cells, options=engine, label="tlc")
    return dict(zip(TLC_FTLS, results))


def render_tlc_comparison(results: Dict[str, RunResult]) -> str:
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
