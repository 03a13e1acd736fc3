"""scipy loads only where the ECC curve is evaluated, and then only
:mod:`scipy.special`.

:mod:`repro.reliability.ecc` imports scipy on the first
:func:`~repro.reliability.ecc.binom_sf` call, so the CLI, the fleet
service and every run without physics or read faults never pay for it
(docs/PERFORMANCE.md, "Import weight").  The ECC tail is scipy's
compiled binomial kernel in :mod:`scipy.special`, so runs that do
evaluate the curve never load :mod:`scipy.stats` either, unless the
installed scipy lacks that kernel and the tail falls back to
``scipy.stats.binom.sf``.  Each check runs in a fresh interpreter:
the test process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.special._ufuncs

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


#: Whether the installed scipy exposes the compiled binomial tail; if
#: not, the ECC model falls back to ``scipy.stats.binom.sf``.
HAS_BINOM_KERNEL = hasattr(scipy.special._ufuncs, "_binom_sf")


def loaded_modules(code: str) -> dict:
    """Run ``PRELUDE`` + ``code`` in a fresh interpreter; which of
    ``scipy``, ``scipy.special`` and ``scipy.stats`` are in its
    ``sys.modules`` at the end."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    names = ["scipy", "scipy.special", "scipy.stats"]
    out = subprocess.run(
        [sys.executable, "-c",
         PRELUDE + code + "\nimport json\n"
         f"print(json.dumps({{n: n in sys.modules for n in {names!r}}}))\n"],
        capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.strip().splitlines()[-1])


def scipy_loaded(code: str) -> bool:
    """Run ``PRELUDE`` + ``code`` in a fresh interpreter; whether scipy
    is in its ``sys.modules`` at the end."""
    return loaded_modules(code)["scipy"]


def assert_only_ecc_kernel_loaded(modules: dict) -> None:
    """The ECC tail's scipy module is loaded, and scipy.stats only
    when the tail had to fall back to it."""
    assert modules["scipy.special"], modules
    if HAS_BINOM_KERNEL:
        assert not modules["scipy.stats"], modules
    else:
        assert modules["scipy.stats"], modules


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
    """The import lands in set-up: no scipy module is loaded after the
    warm-up, the ECC kernel's is once the engine exists, and
    scipy.stats never is, through the end of the measured phase."""
    built = [[False, False], [True, not HAS_BINOM_KERNEL]]
    assert_only_ecc_kernel_loaded(loaded_modules(f"""
from repro.experiments import runner
from repro.reliability.physics import PhysicsConfig

def scipy_modules():
    return ['scipy.special' in sys.modules, 'scipy.stats' in sys.modules]

built = []
class Engine(runner.PhysicsEngine):
    def __init__(self, physics):
        built.append(scipy_modules())
        super().__init__(physics)
        built.append(scipy_modules())
runner.PhysicsEngine = Engine

result = runner.run_workload(
    ftl_name="flexFTL", scenario=SCENARIO, config=config(True),
    physics=PhysicsConfig(seed=5, pe_baseline=6000,
                          retention_baseline_hours=8760.0))
assert built == {built!r}, built
assert result.stats.completed_requests == 300
assert result.physics["reads_sampled"] > 0, result.physics
"""))


def test_read_fault_plan_loads_only_the_ecc_kernel():
    assert_only_ecc_kernel_loaded(loaded_modules("""
from repro.experiments.fault_campaign import campaign_config
from repro.experiments.runner import run_workload
from repro.faults.plan import FaultPlan
plan = FaultPlan(seed=7, read_fault_rate=0.2)
result = run_workload(ftl_name="flexFTL", scenario=SCENARIO,
                      config=campaign_config(config()), faults=plan)
assert result.stats.faults.read_faults > 0
"""))


def test_endurance_sweep_loads_only_the_ecc_kernel():
    assert_only_ecc_kernel_loaded(loaded_modules("""
from repro.experiments.endurance import run_endurance_sweep
sweep = run_endurance_sweep(blocks=4, wordlines=12, cycles=(0, 4000),
                            seed=9)
assert sweep.endurance["FPS"] is not None
"""))


def test_physics_overhead_bench_loads_only_the_ecc_kernel():
    assert_only_ecc_kernel_loaded(loaded_modules("""
from repro.perfbench.harness import run_physics_overhead
run_physics_overhead(scale=0.02, rounds=1)
"""))
