"""Run one benchmark workload and print its result as JSON.

Usage (from the repository root)::

    python3 rpsbench/run.py --workload ntrx_write --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
layer-attributed traced run, prints the per-layer table and writes its
spans to ``.rpsbench/``.  The last line of standard output is the
result object; the line before it carries the run's metadata (why the
workload was chosen, seed, host, entry points).  The command exits 1
when the correctness gate fails and 2 when the simulator sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from rpsbench import bench
    from rpsbench.workloads import WORKLOADS, GateError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    meta = bench.run_meta(args.workload, args.seed, args.seconds,
                          bool(args.trace), ROOT)
    try:
        if args.trace:
            out_dir = os.path.join(ROOT, ".rpsbench")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.json")
            result = bench.measure_layers(args.workload, args.seed,
                                          spans_path=spans)
            meta["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            result = bench.measure(args.workload, args.seed, args.seconds)
    except GateError as exc:
        meta["gate_error"] = str(exc)
        print(json.dumps({"meta": meta}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    meta.update(result.meta)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
