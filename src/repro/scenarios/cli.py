"""The ``scenario`` CLI command: generate, run, export, replay.

One front door for the scenario toolkit::

    python -m repro scenario --list
    python -m repro scenario --preset varmail --ftl flexFTL --ops 8000
    python -m repro scenario --preset oltp --export oltp.csv --ops 8000
    python -m repro scenario --replay oltp.csv --ftl pageFTL

Runs execute through the engine as single ``workload`` cells, so the
result cache and ``--jobs`` behave exactly as for the figure
experiments; ``--export`` writes the scenario's canonical op sequence
as an ``operation_sequence`` CSV (see :mod:`repro.scenarios.csvio`),
and ``--replay`` streams such a file back through any registered FTL
in bounded memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

from repro.experiments import registry
from repro.experiments.engine import (
    EngineOptions,
    derive_seed,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    experiment_span,
)
from repro.metrics.report import render_table
from repro.scenarios.csvio import (
    ScenarioCsvError,
    TraceScenario,
    write_scenario_csv,
)
from repro.scenarios.presets import PRESETS, make_preset

DEFAULT_OPS = 8000


def _list_payload() -> Dict[str, Any]:
    return {
        "kind": "list",
        "presets": {
            name: {
                "read_fraction": info.read_fraction,
                "read_write_ratio": info.read_write_ratio,
                "blurb": info.blurb,
            }
            for name, info in PRESETS.items()
        },
    }


def _render_list(payload: Dict[str, Any]) -> str:
    rows = [[name, info["read_write_ratio"], info["blurb"]]
            for name, info in payload["presets"].items()]
    return render_table(["preset", "R:W", "description"], rows)


def _render_run(payload: Dict[str, Any]) -> str:
    result: RunResult = payload["result"]
    rows = [
        ["IOPS", f"{result.iops:.1f}"],
        ["block erasures", result.erases],
        ["write amplification", f"{result.write_amplification:.3f}"],
        ["completed reads", result.stats.completed_reads],
        ["completed writes", result.stats.completed_writes],
    ]
    lines = [f"{payload['ftl']} on scenario {payload['scenario']} "
             f"(footprint {payload['span']} pages)"]
    if payload.get("phase_table"):
        lines += [payload["phase_table"], ""]
    lines.append(render_table(["metric", "value"], rows))
    return "\n".join(lines)


def _render(payload: Dict[str, Any]) -> str:
    if payload["kind"] == "list":
        return _render_list(payload)
    if payload["kind"] == "export":
        return (f"wrote {payload['rows']} ops of scenario "
                f"{payload['scenario']} to {payload['path']}")
    return _render_run(payload)


def _to_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    data = dict(payload)
    if isinstance(data.get("result"), RunResult):
        data["result"] = data["result"].to_dict()
    return data


def _cli_arguments(parser) -> None:
    parser.add_argument("--list", action="store_true",
                        help="list the available presets and exit")
    parser.add_argument("--preset",
                        help="preset to generate "
                             f"(choose from {','.join(PRESETS)})")
    parser.add_argument("--ftl", default="flexFTL",
                        help="FTL to drive (default flexFTL)")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help=f"measured ops (default {DEFAULT_OPS})")
    parser.add_argument("--utilization", type=float, default=0.75,
                        help="footprint fraction of the logical space "
                             "(default 0.75)")
    parser.add_argument("--export", metavar="PATH",
                        help="write the generated scenario as an "
                             "operation_sequence CSV instead of "
                             "running it")
    parser.add_argument("--replay", metavar="PATH",
                        help="replay an operation_sequence CSV "
                             "through --ftl")


def _cli_run(args, engine_options: EngineOptions) -> Dict[str, Any]:
    if args.list:
        return _list_payload()
    if args.replay and (args.preset or args.export):
        raise registry.CliError(
            "--replay is standalone; it takes no --preset/--export")
    config = ExperimentConfig()
    registry.require_ftl(args.ftl, config)

    if args.replay:
        path = Path(args.replay)
        try:
            scenario = TraceScenario(path)
        except (FileNotFoundError, ScenarioCsvError, ValueError) as exc:
            raise registry.CliError(str(exc))
        span = experiment_span(config, utilization=args.utilization,
                               ftls=[args.ftl])
        (result,) = run_cells(
            [workload_cell(args.ftl, scenario=scenario, config=config,
                           label=f"replay/{args.ftl}")],
            options=engine_options, label="scenario")
        return {"kind": "replay", "scenario": scenario.name,
                "ftl": args.ftl, "span": scenario.footprint or span,
                "result": result}

    if not args.preset:
        raise registry.CliError(
            "pick one of --list, --preset NAME or --replay PATH")
    if args.preset not in PRESETS:
        raise registry.CliError(
            f"unknown preset {args.preset!r}; choose from "
            f"{sorted(PRESETS)}")
    span = experiment_span(config, utilization=args.utilization)
    scenario = make_preset(args.preset, span, args.ops,
                           seed=derive_seed(args.seed, args.preset))

    if args.export:
        rows = write_scenario_csv(scenario, args.export)
        return {"kind": "export", "scenario": scenario.name,
                "path": str(args.export), "rows": rows,
                "span": span}

    (result,) = run_cells(
        [workload_cell(args.ftl, scenario=scenario, config=config,
                       label=f"{args.preset}/{args.ftl}")],
        options=engine_options, label="scenario")
    return {"kind": "run", "scenario": scenario.name, "ftl": args.ftl,
            "span": span, "phase_table": scenario.phase_table(),
            "result": result}


registry.register(registry.Experiment(
    name="scenario",
    help="generate, run, export or replay one workload scenario",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_render,
    to_dict=_to_dict,
    parallel=True,
))
