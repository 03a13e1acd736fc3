"""Byte-identity guard for the PR-2 core optimisations.

The optimised kernel/NAND/FTL hot paths must not change a single
simulation outcome.  The golden file was produced by the pre-PR core
via ``python -m repro fig8 --scale 0.05 --workloads Varmail,OLTP
--no-cache --json``; the same invocation must keep reproducing it
byte for byte, both with and without program-history tracking.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.engine import EngineOptions
from repro.experiments.fig8 import run_fig8
from repro.experiments.runner import ExperimentConfig

GOLDEN = Path(__file__).parent / "data" / "golden_fig8_scale005.json"


def _fig8_json(config=None) -> str:
    """The exact text the fig8 CLI prints for the golden invocation."""
    result = run_fig8(workloads=["Varmail", "OLTP"], scale=0.05,
                      utilization=0.75, seed=1, config=config,
                      engine=EngineOptions())
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.slow
def test_fig8_matches_pre_optimization_golden():
    assert _fig8_json() == GOLDEN.read_text()


@pytest.mark.slow
def test_fig8_golden_on_each_core(op_core):
    """The compiled op cycle and the pure-Python reference both
    reproduce the golden byte for byte — every IOPS, erase and LSB/MSB
    allocation count in it."""
    assert _fig8_json() == GOLDEN.read_text()


@pytest.mark.slow
def test_history_opt_out_is_outcome_invariant():
    """``track_history=False`` (the perfbench fast mode) must change
    what the device remembers, never what the simulation computes."""
    fast = ExperimentConfig(track_history=False)
    assert _fig8_json(config=fast) == GOLDEN.read_text()


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ["heap", "calendar"])
def test_kernel_modes_match_golden(kernel):
    """Both event-queue kernels reproduce the pre-calendar golden byte
    for byte — the PR-7 equivalence contract."""
    config = ExperimentConfig(kernel=kernel)
    assert _fig8_json(config=config) == GOLDEN.read_text()


@pytest.mark.slow
@pytest.mark.parametrize("multiplier", [1, 4, 16])
def test_sweep_geometries_kernel_equivalence(multiplier):
    """Calendar and heap kernels produce identical results at every
    ``--scale-sweep`` geometry (8, 32 and 128 chips).  A small fixed
    footprint keeps the 128-chip run
    test-suite-sized; the full-span version is the CI sweep job."""
    from repro.experiments.runner import run_workload
    from repro.perfbench.harness import sweep_geometry
    from repro.scenarios.presets import make_preset

    geometry = sweep_geometry(multiplier)
    scenario = make_preset("oltp", 1500, 600, seed=7)
    results = []
    for kernel in ("heap", "calendar"):
        config = ExperimentConfig(geometry=geometry,
                                  track_history=False,
                                  kernel=kernel)
        result = run_workload(ftl_name="flexFTL", scenario=scenario,
                              config=config)
        results.append(json.dumps(result.to_dict(), sort_keys=True))
    assert results[0] == results[1]
