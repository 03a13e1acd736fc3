#!/usr/bin/env python3
"""Physics-grounded runtime errors: emergent BER and the retry ladder.

Part 1 runs a small ``lifetime_physics`` grid — the same workload on
pageFTL (FPS order) and flexFTL (RPS order) with the physics error
engine armed at increasing P/E wear — and prints the grid table.  At
matched stress the RPS-ordered FTL shows lower cumulative BER and no
earlier ECC-failure onset, because its pages absorb fewer
post-finalisation aggressor programs: the paper's Figure-4 lifetime
argument, emergent from the live system.

Part 2 arms one heavily worn run directly through
``run_workload(physics=...)`` and unpacks the voltage-shift read-retry
ladder's activity: errors sampled, shift-rung recoveries, escalated-ECC
recoveries, and pages the whole ladder lost.

Both parts are exactly reproducible: the engine draws from one seeded
RNG stream in completion order, so reruns (and parallel or cached
reruns) match byte for byte.

Usage::

    python examples/lifetime_physics.py [seed]
"""

import sys

from repro.experiments.lifetime_physics import (
    render_lifetime_physics,
    run_lifetime_physics,
)
from repro.experiments.runner import run_workload
from repro.reliability import PhysicsConfig
from repro.scenarios.presets import make_preset


def lifetime_grid(seed: int) -> None:
    outcome = run_lifetime_physics(
        ftls=("pageFTL", "flexFTL"),
        pe_cycles=(0, 3000, 6000),
        retention_hours=(8760.0,),      # one year on the shelf
        total_ops=1500,
        seed=seed,
    )
    print(f"lifetime physics grid (seed {seed}):")
    print(render_lifetime_physics(outcome))


def ladder_walkthrough(seed: int) -> None:
    scenario = make_preset("cold_aging", footprint=1200,
                           total_ops=1500, seed=seed)
    result = run_workload(
        ftl_name="flexFTL",
        scenario=scenario,
        physics=PhysicsConfig(
            seed=seed,
            pe_baseline=6000,           # end-of-life wear
            retention_baseline_hours=8760.0,
        ),
    )
    physics = result.physics
    print("worn-device ladder activity (flexFTL, pe=6000, ret=1y):")
    print(f"  reads sampled        {physics['reads_sampled']}")
    print(f"  mean raw BER         {physics['mean_ber']:.2e}"
          f"  (max {physics['max_ber']:.2e})")
    print(f"  baseline ECC misses  {physics['read_errors']}")
    print(f"  shift retries        {physics['shift_retries']}"
          f"  -> recovered {physics['shift_recoveries']}")
    print(f"  ECC escalations      {physics['ecc_escalations']}"
          f"  -> recovered {physics['ecc_recoveries']}")
    print(f"  uncorrectable        {physics['uncorrectable']}")
    faults = result.stats.faults
    if faults is not None:
        print(f"  ladder reads charged {faults.ladder_reads}"
              f"  (itemised into read latency)")
        print(f"  parity rebuilds      {faults.parity_reconstructions}"
              f"  lost pages {faults.lost_pages}")
    first = physics["first_uncorrectable_read"]
    onset = "none" if first is None else f"sampled read #{first}"
    print(f"  first ECC failure    {onset}")


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    lifetime_grid(seed)
    print()
    ladder_walkthrough(seed)


if __name__ == "__main__":
    main()
