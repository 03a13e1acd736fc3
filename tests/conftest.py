"""Shared fixtures for the test suite."""

import pytest

from repro.nand.geometry import NandGeometry
from repro.sim import _native


@pytest.fixture(params=["compiled", "python"])
def op_core(request, monkeypatch):
    """Run the test once on the compiled op cycle and once on the
    pure-Python reference path (see :mod:`repro.sim._native`).

    The compiled variant is skipped where the extension could not be
    built; CI checks separately that it loads.
    """
    if request.param == "compiled":
        if _native.opcycle is None:
            pytest.skip("compiled op cycle unavailable")
    else:
        monkeypatch.setattr(_native, "opcycle", None)
    assert _native.active_core() == request.param
    return request.param


@pytest.fixture
def tiny_geometry():
    """2 channels x 1 chip, 8 blocks of 8 pages — for state tests."""
    return NandGeometry(channels=2, chips_per_channel=1,
                        blocks_per_chip=8, pages_per_block=8,
                        page_size=256)


@pytest.fixture
def small_geometry():
    """2x2 chips, 16 blocks of 16 pages — for small system tests."""
    return NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)


@pytest.fixture
def medium_geometry():
    """4x2 chips, 32 blocks of 32 pages — for integration runs."""
    return NandGeometry(channels=4, chips_per_channel=2,
                        blocks_per_chip=32, pages_per_block=32,
                        page_size=4096)

