#!/usr/bin/env python3
"""Structured tracing: capture a run, digest it, drill into events.

Runs one flexFTL workload with a :class:`Tracer` armed, writes the
JSONL trace, prints the same digest ``repro trace summary`` renders,
then demonstrates the three things a trace answers that aggregate
statistics cannot:

1. *when* — per-phase op counts and timings;
2. *why* — each host page's allocation decision with the buffer
   occupancy ``u`` and LSB quota ``q`` the policy saw;
3. *what exactly* — the raw event stream around any moment of
   interest (here: the first garbage collection).

Finally it shows that a tracer composes with the other
``run_workload`` keywords: a second traced run arms a fault plan and a
power cut, and the trace records each injected failure next to the ops
around it.

Usage::

    python examples/tracing.py [trace.jsonl]
"""

import dataclasses
import sys

from repro.experiments.runner import ExperimentConfig, run_workload
from repro.faults.plan import FaultPlan
from repro.nand.geometry import NandGeometry
from repro.observability import events as ev
from repro.observability.summary import summarize_tracer
from repro.observability.tracer import Tracer
from repro.scenarios import Phase, WorkloadScenario


def churn(span, rounds=6):
    """A fill plus overwrite rounds — enough churn to trigger GC."""
    return WorkloadScenario(
        "churn", footprint=span, streams=1,
        phases=(Phase(name="write", kind="fill"),) * (rounds + 1))


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "trace.jsonl"
    config = ExperimentConfig(
        geometry=NandGeometry(channels=2, chips_per_channel=2,
                              blocks_per_chip=24, pages_per_block=16,
                              page_size=2048),
        buffer_pages=32,
        track_history=False,
    )

    tracer = Tracer()
    result = run_workload(
        ftl_name="flexFTL",
        scenario=churn(span=500),
        config=config,
        tracer=tracer,
    )

    lines = tracer.write_jsonl(out_path)
    print(f"wrote {lines} events to {out_path}")
    print(f"(inspect any trace with: python -m repro trace summary "
          f"{out_path})\n")

    # 1. the digest -- identical to `repro trace summary`
    summary = summarize_tracer(tracer)
    print(summary.render())

    # 2. allocation decisions: what did the 2PO policy see?
    allocs = [event for event in tracer.events()
              if event.kind == ev.ALLOC_DECISION
              and event.fields["phase"] == "measured"]
    lsb = sum(1 for a in allocs if a.fields["ptype"] == 0)
    print(f"\nmeasured-phase allocations: {len(allocs)} "
          f"({lsb} LSB / {len(allocs) - lsb} MSB)")
    for alloc in allocs[:5]:
        fields = alloc.fields
        print(f"  t={alloc.time:.6f}s chip {fields['chip']} "
              f"block {fields['block']:>3} page {fields['page']:>2} "
              f"{'LSB' if fields['ptype'] == 0 else 'MSB'} "
              f"u={fields['u_pages']:>2} q={fields['q']}")

    # 3. zoom into the first garbage collection
    gc_events = [event for event in tracer.events()
                 if event.kind == ev.GC_VICTIM]
    if gc_events:
        first = gc_events[0]
        print(f"\nfirst GC at t={first.time:.6f}s: chip "
              f"{first.fields['chip']} victim block "
              f"{first.fields['block']} with {first.fields['valid']} "
              f"live pages")
        window = [event for event in tracer.events()
                  if first.time <= event.time <= first.time + 0.002
                  and event.kind == ev.OP_ISSUE
                  and event.fields["tag"] == "gc"]
        print(f"gc-tagged ops in the following 2 ms: {len(window)}")

    # the metrics registry snapshot rode along on the run result
    metrics = result.stats.metrics
    print(f"\nmetrics: {metrics.counter_total('gc.collections')} GC "
          f"collections, {metrics.counter_total('parity.writes')} "
          f"parity writes "
          f"(serialized under stats['metrics'] in RunResult files)")

    # 4. tracing composes with fault injection and a power cut in one run
    armed = dataclasses.replace(config, ftl_config=dataclasses.replace(
        config.ftl_config, spare_blocks_per_chip=2))
    fault_tracer = Tracer()
    faulted = run_workload(
        ftl_name="flexFTL",
        scenario=churn(span=500, rounds=2),
        config=armed,
        tracer=fault_tracer,
        faults=FaultPlan(seed=3, program_fail_rate=0.002),
        power_cuts=[0.01],
    )
    injected = sum(1 for event in fault_tracer.events()
                   if event.kind == ev.FAULT_INJECT)
    faults = faulted.stats.faults
    print(f"\nwith a fault plan and a power cut armed: {injected} "
          f"injected faults traced, {faults.power_cuts} power cut "
          f"recovered, {faults.redriven_writes} writes re-driven, "
          f"{faults.reconstructed_pages} pages parity-reconstructed, "
          f"{faults.lost_pages} pages lost, "
          f"{faults.lost_inflight_writes} in-flight writes lost")


if __name__ == "__main__":
    main()
