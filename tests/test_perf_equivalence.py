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
@pytest.mark.parametrize("factor", [1, 2, 4], ids=["8", "32", "128"])
def test_op_cores_match_at_scale(factor, monkeypatch):
    """The compiled op cycle and the pure-Python path produce
    identical results at 8, 32 and 128 chips (both die axes grow by
    ``factor``).  A small fixed footprint keeps the 128-chip run
    test-suite-sized."""
    from repro.experiments.runner import run_workload
    from repro.nand.geometry import NandGeometry
    from repro.scenarios.presets import make_preset
    from repro.sim import _native

    if _native.opcycle is None:
        pytest.skip("compiled op cycle unavailable")
    config = ExperimentConfig(
        geometry=NandGeometry(channels=4 * factor,
                              chips_per_channel=2 * factor,
                              blocks_per_chip=64, pages_per_block=64,
                              page_size=4096),
        track_history=False)
    scenario = make_preset("oltp", 1500, 600, seed=7)

    def result_json():
        result = run_workload(ftl_name="flexFTL", scenario=scenario,
                              config=config)
        return json.dumps(result.to_dict(), sort_keys=True)

    compiled = result_json()
    monkeypatch.setattr(_native, "opcycle", None)
    assert result_json() == compiled
