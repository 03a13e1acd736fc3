"""Noisy-neighbor isolation study across FTLs and arbitration policies.

The scenario the ROADMAP's multi-tenant north star needs first: a
latency-sensitive *victim* tenant (moderate mixed read/write load,
1-page requests, millisecond think times) shares the device with a
*noisy* tenant blasting 4-page write bursts from many worker streams.
Under FIFO arbitration — what a single shared queue does — the
victim's commands queue behind the aggressor's backlog; round-robin
and the weighted/deficit policies restore isolation by serving the
victim's submission queue out of arrival order.

The grid is ``ftl x arbiter`` (default: flexFTL and the FPS page-FTL
across fifo/rr/wrr/drr), one ``workload`` engine cell per point,
so ``--jobs``/caching behave exactly like the other experiments.  Two
paper-relevant effects are visible in the per-tenant numbers:

* arbitration: weighted/deficit policies cut the victim's p99 write
  latency well below the FIFO baseline on *both* FTLs;
* burst absorption: for any fixed arbiter the victim's tail is lower
  on flexFTL, whose LSB-first programming drains the noisy tenant's
  bursts faster than the FPS baseline can (the paper's Section 3
  mechanism, now observable per tenant).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import registry
from repro.experiments.engine import (
    Cell,
    EngineOptions,
    derive_seed,
    run_cells,
)
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    experiment_span,
)
from repro.metrics.report import render_table
from repro.qos.arbiter import ARBITERS
from repro.qos.host import TenantSpec
from repro.workloads.synthetic import burst_stream, mixed_stream

DEFAULT_FTLS: Sequence[str] = ("flexFTL", "pageFTL")
DEFAULT_ARBITERS: Sequence[str] = ("fifo", "rr", "wrr", "drr")

#: Victim tenant: latency-sensitive, lightly loaded.
VICTIM_STREAMS = 2
VICTIM_THINK = 1e-3
VICTIM_SLO = 2e-3  # 2 ms per-request latency target

#: Noisy tenant: many streams of multi-page write bursts.
NOISY_STREAMS = 12
NOISY_BURST_LEN = 40
NOISY_BURST_IDLE = 0.05
NOISY_NPAGES = 4

#: Arbitration weight of the victim (noisy tenant has weight 1).
VICTIM_WEIGHT = 4.0


def build_noisy_neighbor(span: int, total_ops: int,
                         seed: int) -> List[TenantSpec]:
    """The victim + noisy tenant pair, deterministically generated.

    The victim receives a quarter of ``total_ops`` as a steady mixed
    stream; the noisy tenant the rest as grouped write bursts.  Stream
    seeds derive from ``seed`` and the tenant/stream coordinates, so
    the workload is identical across FTLs and arbiters — only service
    order differs.
    """
    if total_ops <= 0:
        raise ValueError(f"total_ops must be positive, got {total_ops}")
    victim_ops = max(VICTIM_STREAMS, total_ops // 4)
    noisy_ops = max(NOISY_STREAMS * NOISY_BURST_LEN,
                    total_ops - victim_ops)

    victim_streams = [
        mixed_stream(
            span, max(1, victim_ops // VICTIM_STREAMS),
            read_fraction=0.5, npages=1, think=VICTIM_THINK,
            zipf_s=0.9,
            rng=np.random.default_rng(derive_seed(seed, "victim", i)),
        )
        for i in range(VICTIM_STREAMS)
    ]
    bursts = max(1, noisy_ops // (NOISY_STREAMS * NOISY_BURST_LEN))
    noisy_streams = [
        burst_stream(
            span, bursts, NOISY_BURST_LEN, idle=NOISY_BURST_IDLE,
            read_fraction=0.0, npages=NOISY_NPAGES, zipf_s=1.1,
            rng=np.random.default_rng(derive_seed(seed, "noisy", i)),
        )
        for i in range(NOISY_STREAMS)
    ]
    return [
        TenantSpec.make("victim", victim_streams, weight=VICTIM_WEIGHT,
                        read_slo=VICTIM_SLO, write_slo=VICTIM_SLO),
        TenantSpec.make("noisy", noisy_streams, weight=1.0),
    ]


def run_qos_isolation(
    ftls: Sequence[str] = DEFAULT_FTLS,
    arbiters: Sequence[str] = DEFAULT_ARBITERS,
    total_ops: int = 2400,
    utilization: float = 0.7,
    max_outstanding: int = 8,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> Dict[Tuple[str, str], RunResult]:
    """Run the grid; returns results keyed by ``(ftl, arbiter)``."""
    for name in arbiters:
        if name not in ARBITERS:
            raise KeyError(
                f"unknown arbiter {name!r}; choose from {sorted(ARBITERS)}")
    config = config or ExperimentConfig()
    span = experiment_span(config, utilization=utilization, ftls=ftls)
    tenants = build_noisy_neighbor(span, total_ops, seed)
    cells = [
        Cell.make("workload", label=f"{ftl}/{arbiter}",
                  ftl_name=ftl, tenants=tenants, arbiter=arbiter,
                  config=config, max_outstanding=max_outstanding)
        for ftl in ftls for arbiter in arbiters
    ]
    results = run_cells(cells, options=engine, label="qos_isolation")
    keys = [(ftl, arbiter) for ftl in ftls for arbiter in arbiters]
    return dict(zip(keys, results))


def _victim_write_p99(result: RunResult) -> float:
    return float(result.tenants["victim"]["write_latency"]["p99"])


def render_qos_isolation(
        results: Dict[Tuple[str, str], RunResult]) -> str:
    """The per-cell table plus a FIFO-vs-weighted isolation headline."""
    unit = 1e-3
    rows: List[List[object]] = []
    for (ftl, arbiter), result in results.items():
        victim = result.tenants["victim"]
        noisy = result.tenants["noisy"]
        rows.append([
            ftl,
            arbiter,
            f"{float(victim['write_latency']['p99']) / unit:.3f}",
            f"{float(victim['read_latency']['p99']) / unit:.3f}",
            int(victim["read_violations"]) + int(victim["write_violations"]),
            f"{float(victim['queue']['mean_depth']):.2f}",
            f"{float(noisy['write_latency']['p99']) / unit:.3f}",
            f"{result.iops:.0f}",
        ])
    table = render_table(
        ["FTL", "arbiter", "victim wp99 [ms]", "victim rp99 [ms]",
         "victim SLO viol", "victim qdepth", "noisy wp99 [ms]",
         "total IOPS"],
        rows,
    )
    lines = [table]
    for ftl in dict.fromkeys(ftl for ftl, _ in results):
        fifo = results.get((ftl, "fifo"))
        if fifo is None:
            continue
        weighted = [
            (arbiter, _victim_write_p99(results[(ftl, arbiter)]))
            for arbiter in ("wrr", "drr")
            if (ftl, arbiter) in results
        ]
        if not weighted:
            continue
        best_arbiter, best = min(weighted, key=lambda pair: pair[1])
        base = _victim_write_p99(fifo)
        if best > 0:
            lines.append(
                f"{ftl}: victim p99 write latency "
                f"{base / unit:.3f} ms (fifo) -> {best / unit:.3f} ms "
                f"({best_arbiter}), {base / best:.2f}x better")
    return "\n".join(lines)


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument(
        "--ftls", default=",".join(DEFAULT_FTLS),
        help="comma-separated FTLs to compare "
             f"(default {','.join(DEFAULT_FTLS)})")
    parser.add_argument(
        "--arbiters", default=",".join(DEFAULT_ARBITERS),
        help="comma-separated arbitration policies "
             f"(default {','.join(DEFAULT_ARBITERS)})")
    parser.add_argument(
        "--ops", type=int, default=2400,
        help="total operations across both tenants (default 2400)")
    parser.add_argument(
        "--outstanding", type=int, default=8,
        help="admission-gate in-flight command bound (default 8)")


def _cli_run(args, engine_options: EngineOptions):
    try:
        return run_qos_isolation(
            ftls=tuple(args.ftls.split(",")),
            arbiters=tuple(args.arbiters.split(",")),
            total_ops=args.ops,
            max_outstanding=args.outstanding,
            seed=args.seed,
            engine=engine_options,
        )
    except (KeyError, ValueError) as error:
        raise registry.CliError(str(error.args[0])) from error


def _cli_render(results) -> str:
    return ("noisy-neighbor isolation (per-tenant QoS):\n"
            + render_qos_isolation(results))


registry.register(registry.Experiment(
    name="qos_isolation",
    help="multi-tenant noisy-neighbor study across arbitration policies",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda results: {
        f"{ftl}/{arbiter}": result.to_dict()
        for (ftl, arbiter), result in results.items()
    },
    parallel=True,
))
