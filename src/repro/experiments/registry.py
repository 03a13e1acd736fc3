"""Table-driven experiment registry behind the CLI.

Each experiment module registers one :class:`Experiment` — a name, an
argparse spec, a ``run`` callable and a ``render`` callable — in
:data:`EXPERIMENT_REGISTRY`; CLI dispatch is then a single loop over
the table instead of a hand-written ``_cmd_*`` function per command.

``run`` receives the parsed CLI namespace plus the
:class:`~repro.experiments.engine.EngineOptions` for this invocation
(``--jobs``/``--no-cache``); experiments that are not grid-shaped
simply ignore the options.  ``render`` turns the result into the text
report; ``to_dict`` (optional) powers ``--json``; ``exit_code``
(optional) lets pass/fail experiments surface a process status.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.engine import EngineOptions
from repro.experiments.runner import ExperimentConfig, check_ftl


class CliError(Exception):
    """A user-input error with a CLI exit status."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def require_ftl(name: str,
                config: Optional[ExperimentConfig] = None) -> None:
    """:func:`~repro.experiments.runner.check_ftl` at the CLI boundary.

    An unknown FTL name, or one whose device cannot take
    ``config.geometry`` (a TLC FTL on an even-but-not-sextuple
    ``pages_per_block``), becomes a one-line :class:`CliError`.
    """
    try:
        check_ftl(name, config)
    except KeyError as error:
        raise CliError(str(error.args[0])) from None
    except ValueError as error:
        raise CliError(str(error)) from None


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One CLI-invocable experiment.

    Attributes:
        name: subcommand name.
        help: one-line subcommand description.
        add_arguments: installs the experiment's argparse options.
        run: executes the experiment; may raise :class:`CliError`.
        render: formats the result as the text report.
        to_dict: optional JSON projection of the result (``--json``
            falls back to wrapping the rendered report).
        exit_code: optional result-dependent process exit status.
        parallel: whether ``--jobs``/``--no-cache`` affect this
            experiment (documentation only; all experiments accept
            the flags).
    """

    name: str
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, EngineOptions], Any]
    render: Callable[[Any], str]
    to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None
    exit_code: Callable[[Any], int] = lambda result: 0
    parallel: bool = False


#: name -> Experiment, in registration order (the CLI help order).
EXPERIMENT_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add (or replace) an experiment in the registry."""
    EXPERIMENT_REGISTRY[experiment.name] = experiment
    return experiment


def get(name: str) -> Experiment:
    """Look up one experiment by subcommand name."""
    return EXPERIMENT_REGISTRY[name]


#: Canonical CLI subcommand order (the historical help order); any
#: experiment not listed appears afterwards in registration order.
CLI_ORDER = ("table1", "fig4", "fig8", "recovery", "ablation",
             "endurance", "scaling", "latency", "tlc", "qos_isolation",
             "fault_campaign", "lifetime_physics", "scenario",
             "scenario_grid", "run",
             "serve", "perfbench", "trace")


def all_experiments() -> List[Experiment]:
    """Registered experiments in canonical CLI order."""
    load_all()
    rank = {name: index for index, name in enumerate(CLI_ORDER)}
    names = sorted(EXPERIMENT_REGISTRY,
                   key=lambda name: rank.get(name, len(rank)))
    return [EXPERIMENT_REGISTRY[name] for name in names]


_LOADED = False


def load_all() -> None:
    """Import every experiment module so registrations run.

    Import order fixes the CLI subcommand order (the historical
    ``table1 .. run`` sequence).
    """
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    import repro.experiments.table1  # noqa: F401
    import repro.experiments.fig4  # noqa: F401
    import repro.experiments.fig8  # noqa: F401
    import repro.experiments.recovery  # noqa: F401
    import repro.experiments.ablation  # noqa: F401
    import repro.experiments.endurance  # noqa: F401
    import repro.experiments.scaling  # noqa: F401
    import repro.experiments.latency  # noqa: F401
    import repro.experiments.tlc_system  # noqa: F401
    import repro.experiments.qos_isolation  # noqa: F401
    import repro.experiments.fault_campaign  # noqa: F401
    import repro.experiments.lifetime_physics  # noqa: F401
    import repro.scenarios.cli  # noqa: F401
    import repro.experiments.scenario_grid  # noqa: F401
    import repro.experiments.single_run  # noqa: F401
    import repro.fleet.cli  # noqa: F401
    import repro.perfbench.cli  # noqa: F401
    import repro.observability.cli  # noqa: F401
