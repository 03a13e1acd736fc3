"""scipy loads only where the ECC curve is evaluated.

:mod:`repro.reliability.ecc` imports scipy on the first
:func:`~repro.reliability.ecc.binom_sf` call, so the CLI, the fleet
service and every run without physics or read faults never pay for it
(docs/PERFORMANCE.md, "Import weight").  Each check runs in a fresh
interpreter: the test process itself has long since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: A small device and scenario, so a whole run takes a moment.
PRELUDE = """
import sys
from repro.experiments.runner import ExperimentConfig
from repro.nand.geometry import NandGeometry
from repro.scenarios.presets import make_preset

GEOMETRY = NandGeometry(channels=2, chips_per_channel=1,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=4096)
SCENARIO = make_preset("oltp", footprint=96, total_ops=300, seed=3)

def config(track_history=False):
    return ExperimentConfig(geometry=GEOMETRY,
                            track_history=track_history)
"""


def scipy_loaded(code: str) -> bool:
    """Run ``PRELUDE`` + ``code`` in a fresh interpreter; whether scipy
    is in its ``sys.modules`` at the end."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         PRELUDE + code + "\nprint('scipy' in sys.modules)\n"],
        capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("module", [
    "repro.experiments.runner",
    "repro.fleet.service",
    "repro.cli",
    "repro.experiments.registry",
])
def test_import_leaves_scipy_out(module):
    assert not scipy_loaded(f"import {module}")


def test_physics_free_run_leaves_scipy_out():
    assert not scipy_loaded("""
from repro.experiments.runner import run_workload
result = run_workload(ftl_name="flexFTL", scenario=SCENARIO,
                      config=config())
assert result.stats.completed_requests == 300
""")


def test_fault_plan_without_read_faults_leaves_scipy_out():
    assert not scipy_loaded("""
from repro.experiments.fault_campaign import campaign_config
from repro.experiments.runner import run_workload
from repro.faults.plan import FaultPlan
plan = FaultPlan(seed=7, program_fail_rate=0.02, erase_fail_rate=0.02)
result = run_workload(ftl_name="flexFTL", scenario=SCENARIO,
                      config=campaign_config(config()), faults=plan)
faults = result.stats.faults
assert faults.program_failures + faults.erase_failures > 0
""")


def test_physics_run_loads_scipy_when_its_engine_is_built():
    """The import lands in set-up: scipy is absent after the warm-up
    and present once the engine exists, before the measured
    phase simulates a single event."""
    assert scipy_loaded("""
from repro.experiments import runner
from repro.reliability.physics import PhysicsConfig

built = []
class Engine(runner.PhysicsEngine):
    def __init__(self, physics):
        built.append('scipy' in sys.modules)
        super().__init__(physics)
        built.append('scipy' in sys.modules)
runner.PhysicsEngine = Engine

run = runner.prepare_measured_run(
    ftl_name="flexFTL", scenario=SCENARIO, config=config(True),
    physics=PhysicsConfig(seed=5, pe_baseline=6000,
                          retention_baseline_hours=8760.0))
assert built == [False, True], built
assert run.stats.completed_requests == 0
""")
