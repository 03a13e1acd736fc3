"""Golden-trace regression tests.

Two small, fully deterministic scenarios — a multi-tenant QoS run and
a fault-injection campaign — are traced and serialized to JSONL, then
compared byte-for-byte against checked-in golden files.  Any change
to capture order, field layout, schema version or event timing shows
up as a diff here *before* it silently breaks downstream trace
consumers.

The scenarios deliberately avoid profiling phases: ``profile.phase``
events carry wall-clock durations, which are the one nondeterministic
field in the schema.

Regenerating (after an intentional schema/capture change)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_traces.py

then review the diff and bump ``SCHEMA_VERSION`` if fields changed.
"""

import os
import pathlib

import pytest

from repro.core.flexftl import FlexFtl
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.ftl.pageftl import PageFtl
from repro.nand.geometry import NandGeometry
from repro.observability.tracer import Tracer
from repro.qos.host import MultiTenantHost, TenantSpec
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import RequestKind

from tests.helpers import build_small_system

DATA_DIR = pathlib.Path(__file__).parent / "data"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDENS"))

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=12, pages_per_block=8,
                        page_size=512)


def qos_isolation_trace(tmp_path):
    """A two-tenant noisy-neighbor run through the QoS front-end."""
    sim, _, _, _, controller = build_small_system(
        PageFtl, GEOMETRY, buffer_pages=16)
    specs = [
        TenantSpec.make("victim", [
            [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(12)]
        ]),
        TenantSpec.make("noisy", [
            [StreamOp(RequestKind.WRITE, lpn, 2)
             for lpn in range(40, 88, 2)]
        ]),
    ]
    host = MultiTenantHost(sim, controller, specs)
    tracer = Tracer().install(controller, qos_host=host)
    host.start()
    sim.run()
    tracer.detach()
    path = tmp_path / "qos_isolation.jsonl"
    tracer.write_jsonl(str(path))
    return path


def fault_campaign_trace(tmp_path):
    """A write burst with two injected program failures."""
    sim, _, _, _, controller = build_small_system(
        FlexFtl, GEOMETRY, buffer_pages=16)
    plan = FaultPlan(events=(
        FaultEvent("program_fail", chip=0, op_index=8),
        FaultEvent("program_fail", chip=1, op_index=12),
    ))
    controller.attach_fault_injector(
        FaultInjector(plan, page_size=GEOMETRY.page_size))
    tracer = Tracer().install(controller)
    host = ClosedLoopHost(sim, controller, [
        [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(96)]
        + [StreamOp(RequestKind.READ, lpn, 1) for lpn in range(0, 96, 9)]
    ])
    host.start()
    sim.run()
    tracer.detach()
    path = tmp_path / "fault_campaign.jsonl"
    tracer.write_jsonl(str(path))
    return path


SCENARIOS = {
    "qos_isolation": qos_isolation_trace,
    "fault_campaign": fault_campaign_trace,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name, tmp_path):
    produced = SCENARIOS[name](tmp_path).read_text()
    golden_path = DATA_DIR / f"golden_trace_{name}.jsonl"
    if REGEN:
        golden_path.write_text(produced)
        pytest.skip(f"regenerated {golden_path.name}")
    assert golden_path.exists(), (
        f"{golden_path} missing — generate it with "
        f"REPRO_REGEN_GOLDENS=1")
    golden = golden_path.read_text()
    assert produced == golden, (
        f"{name} trace deviates from {golden_path.name}; if the "
        f"change is intentional, regenerate with "
        f"REPRO_REGEN_GOLDENS=1 and review the diff")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden_on_each_core(name, op_core, tmp_path):
    """Capture order and timing are the same on the compiled op cycle
    and the pure-Python reference path."""
    golden = (DATA_DIR / f"golden_trace_{name}.jsonl").read_text()
    assert SCENARIOS[name](tmp_path).read_text() == golden


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_is_deterministic(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = SCENARIOS[name](tmp_path / "a").read_text()
    second = SCENARIOS[name](tmp_path / "b").read_text()
    assert first == second


def test_goldens_carry_expected_events():
    """Sanity-pin the golden content so a regen can't silently empty
    the scenarios."""
    qos = (DATA_DIR / "golden_trace_qos_isolation.jsonl").read_text()
    assert qos.count('"ev":"qos.admit"') == 36
    assert '"tenant":"noisy"' in qos and '"tenant":"victim"' in qos
    fault = (DATA_DIR / "golden_trace_fault_campaign.jsonl").read_text()
    assert fault.count('"ev":"fault.inject"') == 2
    assert '"ev":"fault.recover"' in fault
    assert '"ev":"parity.write"' in fault
