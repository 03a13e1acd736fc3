"""Steadiness report: how much each end-to-end metric spreads.

Runs every workload repeatedly, each run in a fresh process, flipping
the workload order every round, and prints for each metric the median,
quartiles and IQR/median over all runs.  A simulated metric that is not
bit-identical across rounds of one seed is flagged.  Usage (from the
repository root)::

    python3 rpsbench/steadiness.py --seeds 1-10 --rounds 1 \\
        --seconds 30 --output rpsbench/steadiness.json

Exits 1 if any run fails, any simulated metric is not repeatable, or
(with ``--check``) any spread reaches its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    """``"1-5,9"`` -> ``[1, 2, 3, 4, 5, 9]``."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float,
             trace: int = 0) -> Dict[str, Any]:
    """One benchmark invocation in a fresh process; returns its result
    line plus the metadata line printed before it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2])["meta"]
    return result


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and IQR/median, as the acceptance check
    computes them (``statistics.quantiles(values, n=4)``)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median,
                "iqr_over_median": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0}


def layer_tables(names: List[str], seed: int, seconds: float,
                 path: str) -> int:
    """One traced run per workload; prints and records the per-layer
    tables with each layer's share of the attributed time."""
    from rpsbench.layers import LAYERS

    tables: Dict[str, Any] = {}
    for name in names:
        result = run_once(name, seed, seconds, trace=1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        shares = {layer: metrics[f"{layer}.self_s"] / attributed
                  for layer in LAYERS}
        tables[name] = {"seed": seed, "metrics": metrics,
                        "self_share_of_attributed": shares,
                        "traced_wall_s": result["meta"]["traced_wall_s"],
                        "wrapper_overhead_s":
                            result["meta"]["wrapper_overhead_s"]}
        print(f"\n{name} (traced wall "
              f"{result['meta']['traced_wall_s']:.3f} s, trace overhead "
              f"x{metrics['bench.trace_overhead_ratio']:.2f})")
        for layer in LAYERS:
            print(f"  {layer:12s} self {metrics[f'{layer}.self_s']:8.3f} s"
                  f"  {100 * shares[layer]:5.1f}% of attributed")
    payload = {"host": result["meta"]["host"], "workloads": tables}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--output", default=None)
    parser.add_argument("--check", action="store_true",
                        help="fail when a spread reaches its bound")
    parser.add_argument("--layers", default=None, metavar="PATH",
                        help="instead: one traced run per workload (first "
                             "seed), per-layer tables written to PATH")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"]
              if m["better"] == "higher"}
    seeds = parse_seeds(args.seeds)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from rpsbench.bench import SIMULATED

    if args.layers:
        return layer_tables(names, seeds[0], seconds, args.layers)

    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_index in range(args.rounds):
        for seed_index, seed in enumerate(seeds):
            order = names if (round_index + seed_index) % 2 == 0 \
                else names[::-1]
            for name in order:
                result = run_once(name, seed, seconds)
                result["round"] = round_index
                runs[name].append(result)
                print(f"round {round_index} seed {seed} {name}: "
                      f"host_ops_per_ref "
                      f"{result['metrics']['host_ops_per_ref']['value']:.1f}",
                      file=sys.stderr, flush=True)

    ok = True
    report: Dict[str, Any] = {}
    for name in names:
        rows = runs[name]
        table: Dict[str, Any] = {}
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            entry = spread(values)
            entry["unit"] = rows[0]["metrics"][metric]["unit"]
            if metric in SIMULATED:
                by_seed: Dict[int, set] = {}
                for r in rows:
                    by_seed.setdefault(r["meta"]["seed"], set()).add(
                        r["metrics"][metric]["value"])
                entry["bit_identical"] = all(len(v) == 1
                                             for v in by_seed.values())
                ok &= entry["bit_identical"]
            bound = bounds.get(metric)
            if bound is not None:
                entry["bound"] = bound
                entry["share_of_bound"] = entry["iqr_over_median"] / bound
                if args.check and metric != "setup_s" \
                        and entry["iqr_over_median"] >= bound:
                    ok = False
            if args.rounds > 1:
                # each round is one set of runs; a later set's median may
                # be worse than the first set's by at most the bound
                medians = [statistics.median(
                    r["metrics"][metric]["value"] for r in rows
                    if r["round"] == index) for index in range(args.rounds)]
                sign = -1.0 if metric in higher else 1.0
                entry["round_medians"] = medians
                entry["worst_drift"] = max(
                    sign * (m - medians[0]) / medians[0]
                    for m in medians[1:])
                if args.check and bound is not None \
                        and entry["worst_drift"] > bound:
                    ok = False
            table[metric] = entry
        fingerprints: Dict[int, set] = {}
        for r in rows:
            fingerprints.setdefault(r["meta"]["seed"], set()).add(
                r["meta"]["fingerprint"])
        identical = all(len(v) == 1 for v in fingerprints.values())
        ok &= identical
        report[name] = {
            "why": rows[0]["meta"]["why"],
            "seeds": seeds,
            "runs": len(rows),
            "failed_ops": sum(r["failed"] for r in rows),
            "attempted_ops": sum(r["attempted"] for r in rows),
            "fingerprints_identical_per_seed": identical,
            "entry_points": rows[0]["meta"]["entry_points"],
            "metrics": table,
            "runs_raw": [
                {"seed": r["meta"]["seed"],
                 "round": r["round"],
                 "reps": r["meta"]["reps"],
                 "host_ops_per_s": r["meta"]["host_ops_per_s"],
                 "reference_unit_s": r["meta"]["reference_unit_s"],
                 "rep_host_ops_per_s": r["meta"]["rep_host_ops_per_s"],
                 "rep_setup_s": r["meta"]["rep_setup_s"],
                 "metrics": {k: v["value"]
                             for k, v in r["metrics"].items()}}
                for r in rows],
        }
        print(f"\n{name}  ({len(rows)} runs, failed ops "
              f"{report[name]['failed_ops']} of "
              f"{report[name]['attempted_ops']})")
        for metric, entry in table.items():
            flag = "" if entry.get("bit_identical", True) \
                else "  NOT BIT-IDENTICAL"
            drift = (f" drift {entry['worst_drift']:+.4f}"
                     if "worst_drift" in entry else "")
            print(f"  {metric:18s} {entry['median']:14.4f} {entry['unit']:9s}"
                  f" q1 {entry['q1']:12.4f} q3 {entry['q3']:12.4f}"
                  f" iqr/med {entry['iqr_over_median']:.4f}"
                  f" bound {entry.get('bound', '-')}{drift}{flag}")

    if args.output:
        payload = {"host": runs[names[0]][0]["meta"]["host"],
                   "seconds": seconds, "rounds": args.rounds,
                   "workloads": report}
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
