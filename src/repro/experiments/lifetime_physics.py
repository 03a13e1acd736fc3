"""Lifetime physics: emergent BER across FTL x P/E x retention.

The end-to-end version of the paper's fig4 lifetime argument: instead
of comparing offline aggressor counts, the same workload runs on each
FTL with the physics-grounded error engine armed
(:mod:`repro.reliability.physics`), and errors *emerge* from each
page's actual history — the aggressor programs its word line absorbed
under the FTL's real in-block program order, the block's P/E wear, the
page's retention age and read-disturb exposure.  Because RPS orders
admit fewer post-finalisation aggressors (and flexFTL keeps hot data on
unfinalised LSB pages with SLC-like margins), RPS-ordered FTLs show
lower cumulative BER and later ECC-failure onset than FPS at matched
stress — the grid makes that a measurable, seeded, cacheable result.

Each grid point is one ``workload`` engine cell armed with a
:class:`~repro.reliability.physics.PhysicsConfig`, so
``--jobs`` parallelism and result caching behave exactly like fig8;
the physics seed at each (P/E, retention) point derives from the base
seed and the stress coordinates only, so every FTL faces the *same*
error-draw sequence at each point.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import registry
from repro.experiments.engine import (
    EngineOptions,
    derive_seed,
    run_cells,
    workload_cell,
)
from repro.experiments.runner import (
    FTL_REGISTRY,
    ExperimentConfig,
    RunResult,
    experiment_span,
)
from repro.metrics.report import render_table
from repro.nand.sequence import SequenceScheme
from repro.reliability.physics import PhysicsConfig
from repro.scenarios.presets import make_preset

DEFAULT_FTLS: Sequence[str] = ("pageFTL", "flexFTL")
DEFAULT_PE: Sequence[int] = (0, 3000)
DEFAULT_RETENTION: Sequence[float] = (0.0, 8760.0)
DEFAULT_SCENARIO = "hot_rewrite"


def _mean_ber(result: RunResult) -> float:
    """Mean rung-0 raw BER over the run's sampled host reads."""
    return float(result.physics["mean_ber"])  # type: ignore[index]


def _first_failure(result: RunResult) -> Optional[int]:
    """1-based sampled-read index of the first ECC failure, or None."""
    value = result.physics["first_uncorrectable_read"]  # type: ignore[index]
    return None if value is None else int(value)


@dataclasses.dataclass
class LifetimePhysicsResult:
    """Grid results of one lifetime-physics sweep."""

    grid: Dict[Tuple[str, int, float], RunResult]
    scenario: str = DEFAULT_SCENARIO

    def to_dict(self) -> Dict[str, object]:
        """JSON projection for ``--json``."""
        return {
            "scenario": self.scenario,
            "grid": {f"{ftl}@pe{pe:g}/ret{ret:g}": result.to_dict()
                     for (ftl, pe, ret), result in self.grid.items()},
        }

    def rps_beats_fps(self) -> bool:
        """Whether every matched grid point shows the paper's ordering.

        At each (P/E, retention) stress point with both an FPS- and an
        RPS-ordered FTL present, the RPS mean BER must not exceed the
        FPS mean BER, and an RPS ECC-failure onset must not come
        earlier than the FPS one.
        """
        points: Dict[Tuple[int, float],
                     Dict[str, RunResult]] = {}
        for (ftl, pe, ret), result in self.grid.items():
            points.setdefault((pe, ret), {})[ftl] = result
        checked = False
        for cell in points.values():
            fps = [r for ftl, r in cell.items()
                   if FTL_REGISTRY[ftl][1] is SequenceScheme.FPS]
            rps = [r for ftl, r in cell.items()
                   if FTL_REGISTRY[ftl][1] is SequenceScheme.RPS]
            if not fps or not rps:
                continue
            checked = True
            for fps_result in fps:
                for rps_result in rps:
                    if _mean_ber(rps_result) > _mean_ber(fps_result):
                        return False
                    fps_fail = _first_failure(fps_result)
                    rps_fail = _first_failure(rps_result)
                    if rps_fail is not None and (
                            fps_fail is None or rps_fail < fps_fail):
                        return False
        return checked


def run_lifetime_physics(
    ftls: Sequence[str] = DEFAULT_FTLS,
    pe_cycles: Sequence[int] = DEFAULT_PE,
    retention_hours: Sequence[float] = DEFAULT_RETENTION,
    scenario_name: str = DEFAULT_SCENARIO,
    total_ops: int = 3000,
    utilization: float = 0.6,
    retention_accel: float = 0.0,
    seed: int = 1,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[EngineOptions] = None,
) -> LifetimePhysicsResult:
    """Run the ``ftl x P/E x retention`` physics grid.

    Args:
        ftls: FTLs to compare (mix FPS- and RPS-ordered ones to get
            the headline comparison).
        pe_cycles: baseline P/E wear points.
        retention_hours: baseline retention ages (hours).
        scenario_name: scenario preset (``hot_rewrite`` stresses
            interference, ``cold_aging`` stresses retention/disturb).
        total_ops: measured operations per grid point.
        utilization: footprint fraction for the workload.
        retention_accel: retention hours accrued per simulated second
            on top of the baseline (0 freezes the clock).
        seed: base seed (workload and per-point physics RNG streams
            derive from it).
        config: system configuration override.
        engine: engine options (jobs, caching).
    """
    config = config or ExperimentConfig()
    span = experiment_span(config, utilization=utilization, ftls=ftls)
    scenario = make_preset(scenario_name, span, total_ops,
                           seed=derive_seed(seed, "scenario"))

    cells = [
        workload_cell(
            ftl,
            scenario=scenario,
            config=config,
            label=f"{ftl}@pe{pe:g}/ret{ret:g}",
            physics=PhysicsConfig(
                seed=derive_seed(seed, "physics", pe, ret),
                pe_baseline=pe,
                retention_baseline_hours=ret,
                retention_hours_per_second=retention_accel,
            ),
        )
        for ftl in ftls for pe in pe_cycles for ret in retention_hours
    ]
    results = run_cells(cells, options=engine, label="lifetime_physics")
    keys = [(ftl, int(pe), float(ret))
            for ftl in ftls for pe in pe_cycles for ret in retention_hours]
    return LifetimePhysicsResult(grid=dict(zip(keys, results)),
                                 scenario=scenario_name)


def render_lifetime_physics(outcome: LifetimePhysicsResult) -> str:
    """Grid table plus the RPS-vs-FPS headline."""
    rows: List[List[object]] = []
    for (ftl, pe, ret), result in outcome.grid.items():
        physics = result.physics
        first_fail = physics["first_uncorrectable_read"]
        rows.append([
            ftl,
            pe,
            f"{ret:g}",
            physics["reads_sampled"],
            f"{physics['mean_ber']:.2e}",
            physics["read_errors"],
            physics["shift_recoveries"],
            physics["ecc_recoveries"],
            physics["uncorrectable"],
            "-" if first_fail is None else first_fail,
        ])
    table = render_table(
        ["FTL", "P/E", "ret (h)", "reads", "mean BER", "errors",
         "shift-rec", "ecc-rec", "lost", "first-fail"],
        rows,
    )
    lines = [f"scenario: {outcome.scenario}", table]

    points: Dict[Tuple[int, float], Dict[str, RunResult]] = {}
    for (ftl, pe, ret), result in outcome.grid.items():
        points.setdefault((pe, ret), {})[ftl] = result
    for (pe, ret) in sorted(points):
        cell = points[(pe, ret)]
        fps = {ftl: r for ftl, r in cell.items()
               if FTL_REGISTRY[ftl][1] is SequenceScheme.FPS}
        rps = {ftl: r for ftl, r in cell.items()
               if FTL_REGISTRY[ftl][1] is SequenceScheme.RPS}
        if not fps or not rps:
            continue
        fps_ftl, fps_result = max(fps.items(),
                                  key=lambda item: _mean_ber(item[1]))
        rps_ftl, rps_result = min(rps.items(),
                                  key=lambda item: _mean_ber(item[1]))
        fps_ber, rps_ber = _mean_ber(fps_result), _mean_ber(rps_result)
        if fps_ber > 0 and rps_ber < fps_ber:
            ratio = fps_ber / max(rps_ber, 1e-30)
            lines.append(
                f"pe={pe} ret={ret:g}h: {rps_ftl} (RPS) mean BER "
                f"{rps_ber:.2e} vs {fps_ftl} (FPS) "
                f"{fps_ber:.2e} — {ratio:.1f}x lower under "
                f"the same error-draw seed")
    if outcome.rps_beats_fps():
        lines.append(
            "ordering holds at every matched stress point: RPS FTLs "
            "never exceed FPS BER and never fail ECC earlier")
    return "\n".join(lines)


# -- CLI registration --------------------------------------------------


def _cli_arguments(parser) -> None:
    parser.add_argument(
        "--ftls", default=",".join(DEFAULT_FTLS),
        help="comma-separated FTLs to compare "
             f"(default {','.join(DEFAULT_FTLS)})")
    parser.add_argument(
        "--pe", default=",".join(str(p) for p in DEFAULT_PE),
        help="comma-separated baseline P/E cycle counts "
             f"(default {','.join(str(p) for p in DEFAULT_PE)})")
    parser.add_argument(
        "--retention", default=",".join(f"{r:g}" for r in
                                        DEFAULT_RETENTION),
        help="comma-separated baseline retention ages in hours "
             f"(default {','.join(f'{r:g}' for r in DEFAULT_RETENTION)})")
    parser.add_argument(
        "--scenario", default=DEFAULT_SCENARIO,
        help="scenario preset: hot_rewrite stresses interference, "
             "cold_aging stresses retention/read disturb "
             f"(default {DEFAULT_SCENARIO})")
    parser.add_argument(
        "--ops", type=int, default=3000,
        help="measured operations per grid point (default 3000)")
    parser.add_argument(
        "--ret-accel", type=float, default=0.0,
        help="retention hours accrued per simulated second on top of "
             "the baseline (default 0: frozen clock)")


def _cli_run(args, engine_options: EngineOptions):
    try:
        return run_lifetime_physics(
            ftls=tuple(args.ftls.split(",")),
            pe_cycles=tuple(int(pe) for pe in args.pe.split(",")),
            retention_hours=tuple(float(r)
                                  for r in args.retention.split(",")),
            scenario_name=args.scenario,
            total_ops=args.ops,
            retention_accel=args.ret_accel,
            seed=args.seed,
            engine=engine_options,
        )
    except (KeyError, ValueError) as error:
        raise registry.CliError(str(error.args[0])) from error


def _cli_render(outcome) -> str:
    return ("lifetime physics (emergent BER across FTL x P/E x "
            "retention):\n" + render_lifetime_physics(outcome))


registry.register(registry.Experiment(
    name="lifetime_physics",
    help="emergent-BER lifetime sweep: FTL x P/E cycles x retention",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=_cli_render,
    to_dict=lambda outcome: outcome.to_dict(),
    parallel=True,
))
