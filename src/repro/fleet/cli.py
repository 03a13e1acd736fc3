"""The ``repro serve`` CLI command: fleet simulation service.

Serves a fleet of simulated devices — sharded across worker
processes, optionally fronted by per-tenant QoS queues — with
deterministic checkpoint/resume:

    repro serve --devices 1000 --jobs 4 --tenants 4
    repro serve --devices 64 --checkpoint-dir ckpt \\
                --stop-after-events 3000        # "kill" mid-run
    repro serve --devices 64 --checkpoint-dir ckpt --resume

The second and third invocations together produce a report
byte-identical (equal fleet fingerprint) to the first run without the
stop — that equality is asserted by tests and the CI fleet smoke job.

Supervised serving (``--supervise``) runs shards under the fleet
supervisor — heartbeat liveness, hang kills, deterministic-backoff
retries, poison-device quarantine — and ``--chaos`` injects a
deterministic fault plan to drill it:

    repro serve --devices 64 --jobs 2 --supervise \\
                --checkpoint-dir ckpt --checkpoint-every 500 \\
                --chaos '{"events": [{"kind": "kill", "shard": 0, \\
                                      "at": 40}]}'

Any chaos drill with a sufficient retry budget reports the same fleet
fingerprint as the undisturbed run.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import registry
from repro.experiments.engine import EngineOptions
from repro.fleet.chaos import ChaosPlan
from repro.fleet.health import SupervisionPolicy
from repro.fleet.service import (
    FleetServeResult,
    FleetSpec,
    fleet_config,
    run_fleet,
)
from repro.fleet.worker import DEFAULT_QUANTUM
from repro.qos.arbiter import ARBITERS
from repro.scenarios.presets import PRESETS


def _cli_arguments(parser) -> None:
    parser.add_argument("--devices", type=int, default=64,
                        help="simulated device count")
    parser.add_argument("--ftl", default="flexFTL",
                        help="FTL every device runs")
    parser.add_argument("--preset", default="oltp",
                        help="workload preset per device")
    parser.add_argument("--ops", type=int, default=400,
                        help="measured ops per device")
    parser.add_argument("--footprint", type=int, default=None,
                        help="logical pages per device workload "
                             "(default: 60%% of the FTL's space)")
    parser.add_argument("--tenants", type=int, default=0,
                        help="tenant count (>0 serves through the QoS "
                             "front-end)")
    parser.add_argument("--arbiter", default="wrr",
                        help="QoS arbitration policy for tenanted "
                             "fleets")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="snapshot directory (enables "
                             "checkpointing)")
    parser.add_argument("--resume", action="store_true",
                        help="resume devices from snapshots in "
                             "--checkpoint-dir")
    parser.add_argument("--stop-after-events", type=int, default=None,
                        help="checkpoint and stop each device after "
                             "this many measured events")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        help="periodic checkpoint interval in events")
    parser.add_argument("--quantum", type=int,
                        default=DEFAULT_QUANTUM,
                        help="per-device round-robin event quantum")
    parser.add_argument("--supervise", action="store_true",
                        help="run shards under the fleet supervisor "
                             "(heartbeats, retries, quarantine)")
    parser.add_argument("--heartbeat-interval", type=float,
                        default=0.25,
                        help="worker heartbeat spacing in seconds")
    parser.add_argument("--heartbeat-timeout", type=float,
                        default=30.0,
                        help="seconds without a heartbeat before a "
                             "shard is declared hung and killed")
    parser.add_argument("--shard-deadline", type=float, default=None,
                        help="per-attempt wall-clock budget in "
                             "seconds (default: none)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="per-shard failure budget")
    parser.add_argument("--device-retry-budget", type=int, default=2,
                        help="device-attributed failures before "
                             "quarantine")
    parser.add_argument("--backoff-base", type=float, default=0.25,
                        help="first-retry backoff delay in seconds")
    parser.add_argument("--backoff-cap", type=float, default=5.0,
                        help="upper bound on any backoff delay")
    parser.add_argument("--max-failures", type=int, default=None,
                        help="fleet-wide circuit breaker: total "
                             "shard failures allowed (default: "
                             "unlimited)")
    parser.add_argument("--chaos", default=None,
                        help="deterministic fault-injection plan: "
                             "inline JSON or a JSON file path "
                             "(requires --supervise)")


def _cli_run(args, engine_options: EngineOptions
             ) -> FleetServeResult:
    registry.require_ftl(args.ftl, fleet_config())
    if args.preset not in PRESETS:
        raise registry.CliError(
            f"unknown preset {args.preset!r}; choose from "
            f"{sorted(PRESETS)}")
    if args.tenants > 0 and args.arbiter not in ARBITERS:
        raise registry.CliError(
            f"unknown arbiter {args.arbiter!r}; choose from "
            f"{sorted(ARBITERS)}")
    if args.resume and args.checkpoint_dir is None:
        raise registry.CliError(
            "--resume needs --checkpoint-dir")
    if args.chaos is not None and not args.supervise:
        raise registry.CliError("--chaos needs --supervise")
    supervise = None
    if args.supervise:
        try:
            supervise = SupervisionPolicy(
                heartbeat_interval=args.heartbeat_interval,
                heartbeat_timeout=args.heartbeat_timeout,
                shard_deadline=args.shard_deadline,
                max_retries=args.max_retries,
                device_retry_budget=args.device_retry_budget,
                backoff_base=args.backoff_base,
                backoff_cap=args.backoff_cap,
                max_fleet_failures=args.max_failures,
            )
        except ValueError as exc:
            raise registry.CliError(str(exc)) from exc
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ChaosPlan.from_spec(args.chaos)
        except (OSError, ValueError) as exc:
            raise registry.CliError(
                f"bad --chaos spec: {exc}") from exc
    fleet = FleetSpec(
        devices=args.devices,
        ftl_name=args.ftl,
        preset=args.preset,
        ops_per_device=args.ops,
        footprint=args.footprint,
        tenants=args.tenants,
        arbiter=args.arbiter,
        seed=args.seed,
        config=fleet_config(),
    )
    return run_fleet(
        fleet,
        jobs=engine_options.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        stop_after_events=args.stop_after_events,
        checkpoint_every=args.checkpoint_every,
        quantum=args.quantum,
        cache=engine_options.cache,
        supervise=supervise,
        chaos=chaos,
    )


def _cli_to_dict(result: FleetServeResult) -> Dict[str, object]:
    return result.to_dict()


registry.register(registry.Experiment(
    name="serve",
    help="fleet simulation service (sharded devices, "
         "checkpoint/resume)",
    add_arguments=_cli_arguments,
    run=_cli_run,
    render=lambda result: result.render(),
    to_dict=_cli_to_dict,
    parallel=True,
))
