"""The compiled op cycle's loader and its agreement with the Python
op path (the byte-identity oracles themselves run per core through the
``op_core`` fixture in the golden, fleet and physics suites)."""

import json
import random
import warnings

import pytest

from repro.core.flexftl import FlexFtl
from repro.ftl.pageftl import PageFtl
from repro.nand.geometry import NandGeometry
from repro.sim import _native
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import RequestKind

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)


def test_failing_compiler_falls_back_with_one_warning(monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_native, "_compiler", lambda: ["false"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _native.load() is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "pure-Python op path" in str(caught[0].message)
    # the failed build leaves no partial file behind
    assert list(tmp_path.iterdir()) == []


def test_fresh_cache_builds_and_loads(monkeypatch, tmp_path):
    if _native.opcycle is None:
        pytest.skip("compiled op cycle unavailable")
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        module = _native.load()
    assert callable(module.run) and callable(module.pump)
    built = list(tmp_path.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_opcycle-")
    # a second load reuses the cached build
    assert _native.load() is not None
    assert list(tmp_path.iterdir()) == built


def test_active_core_follows_the_switch(op_core):
    assert _native.active_core() == op_core


@pytest.mark.parametrize("coalesce", [False, True])
@pytest.mark.parametrize("ftl_cls", [FlexFtl, PageFtl])
def test_cores_agree_on_a_workload(ftl_cls, coalesce, monkeypatch):
    """Same outcome on both op paths, through the compiled admission
    drain (no coalescing) and the Python one it defers to
    (coalescing), with reads, overwrites and GC in the mix."""
    if _native.opcycle is None:
        pytest.skip("compiled op cycle unavailable")

    def outcome():
        sim, array, buffer, ftl, controller = build_small_system(
            ftl_cls, GEOMETRY, buffer_pages=8)
        buffer.coalesce = coalesce
        rng = random.Random(5)
        streams = [[StreamOp(RequestKind.WRITE if rng.random() < 0.7
                             else RequestKind.READ,
                             rng.randrange(90), rng.randint(1, 3))
                    for _ in range(300)] for _ in range(3)]
        ClosedLoopHost(sim, controller, streams).start()
        sim.run()
        return (json.dumps(controller.stats.to_dict(), sort_keys=True),
                array.total_erases, buffer.coalesced_writes,
                sim.processed, sim.now)

    compiled = outcome()
    monkeypatch.setattr(_native, "opcycle", None)
    assert outcome() == compiled
