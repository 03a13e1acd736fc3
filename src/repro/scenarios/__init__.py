"""Unified workload scenarios: generation, replay, export.

The package's :class:`~repro.scenarios.base.Scenario` abstraction is
the single front door through which every runner consumes workloads::

    from repro.scenarios import make_preset
    from repro.experiments.runner import run_workload

    scenario = make_preset("varmail", footprint=4096, total_ops=8000)
    result = run_workload(ftl_name="flexFTL", scenario=scenario)

See ``docs/SCENARIOS.md`` for the API tour, the preset tables, the
phase-table schema and the CSV format.
"""

from repro.scenarios.base import (
    CLOSED,
    OPEN,
    Scenario,
    StreamOp,
    TenantBinding,
    as_scenario,
    register_spec_type,
    scenario_from_spec,
    scenario_seed,
)
from repro.scenarios.csvio import (
    CSV_HEADER,
    CSV_SCHEMA,
    ScenarioCsvError,
    TraceScenario,
    iter_scenario_csv,
    read_scenario_meta,
    write_scenario_csv,
)
from repro.scenarios.generator import Phase, WorkloadScenario
from repro.scenarios.presets import (
    PRESETS,
    TABLE1_PRESETS,
    PresetInfo,
    make_preset,
)

__all__ = [
    "CLOSED",
    "OPEN",
    "CSV_HEADER",
    "CSV_SCHEMA",
    "PRESETS",
    "TABLE1_PRESETS",
    "Phase",
    "PresetInfo",
    "Scenario",
    "ScenarioCsvError",
    "StreamOp",
    "TenantBinding",
    "TraceScenario",
    "WorkloadScenario",
    "as_scenario",
    "iter_scenario_csv",
    "make_preset",
    "read_scenario_meta",
    "register_spec_type",
    "scenario_from_spec",
    "scenario_seed",
    "write_scenario_csv",
]
