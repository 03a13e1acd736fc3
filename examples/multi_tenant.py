#!/usr/bin/env python3
"""Multi-tenant QoS quickstart: a noisy neighbor, four arbiters.

Runs the noisy-neighbor scenario — a latency-sensitive victim tenant
sharing a flexFTL device with a tenant blasting multi-page write
bursts — once per arbitration policy, and prints the victim's tail
latency under each.  Shows how weighted arbitration restores isolation
that a single shared queue (the ``fifo`` baseline) cannot provide.

Usage::

    python examples/multi_tenant.py
"""

from repro.experiments.qos_isolation import build_noisy_neighbor
from repro.experiments.runner import (
    ExperimentConfig,
    experiment_span,
    run_workload,
)
from repro.metrics.report import render_table


def main() -> None:
    config = ExperimentConfig()
    span = experiment_span(config, utilization=0.7)
    tenants = build_noisy_neighbor(span, total_ops=1600, seed=42)
    for spec in tenants:
        print(f"tenant {spec.name!r}: {spec.total_ops} ops over "
              f"{len(spec.streams)} streams, weight {spec.weight:g}")
    print()

    rows = []
    for arbiter in ("fifo", "rr", "wrr", "drr"):
        result = run_workload(ftl_name="flexFTL", tenants=tenants,
                              arbiter=arbiter, config=config,
                              max_outstanding=8)
        victim = result.tenants["victim"]
        rows.append([
            arbiter,
            f"{float(victim['write_latency']['p99']) * 1e3:.3f}",
            f"{float(victim['read_latency']['p99']) * 1e3:.3f}",
            str(int(victim["read_violations"])
                + int(victim["write_violations"])),
            f"{float(victim['queue']['mean_depth']):.2f}",
            f"{result.iops:.0f}",
        ])

    print(render_table(
        ["arbiter", "victim wp99 [ms]", "victim rp99 [ms]",
         "victim SLO viol", "victim qdepth", "total IOPS"],
        rows,
    ))
    print()
    print("fifo is what one shared queue does: the victim's commands "
          "wait behind\nthe noisy tenant's bursts.  wrr/drr serve the "
          "victim's queue out of\narrival order and cut its p99 tail.")


if __name__ == "__main__":
    main()
