"""Differential FTL invariants over seeded random workloads.

Complements ``test_ftl_consistency_property`` (which checks the
mapping against a last-write-wins oracle): here the checks are
*internal* conservation laws that must hold for every FTL after any
workload, compared across three independent bookkeepers — the FTL's
counters, the mapping, and the NAND array's own accounting:

* the logical-to-physical mapping is a bijection over live pages;
* per-block valid counts equal a recount from the forward map;
* free/full block sets are disjoint, in-range, and a block holding
  valid data is never considered free;
* erases balance: per-block erase counts, per-chip counters and the
  FTL report agree;
* programs balance: the array's page-program count equals the FTL's
  host + GC + backup attribution, split into LSB/MSB exactly.

240 seeded cases (4 FTLs x 60 seeds), each a full closed-loop
simulation with the program-sequence checker armed.
"""

import random

import pytest

from repro.core.flexftl import FlexFtl
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.nand.geometry import NandGeometry
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import RequestKind

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=12, pages_per_block=8,
                        page_size=512)
SPAN = 180


def random_stream(seed, length=120):
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        lpn = rng.randrange(SPAN - 4)
        npages = rng.randint(1, 4)
        kind = RequestKind.WRITE if rng.random() < 0.7 \
            else RequestKind.READ
        ops.append(StreamOp(kind, lpn, npages))
    return ops


@pytest.mark.parametrize("ftl_cls", [PageFtl, ParityFtl, RtfFtl,
                                     FlexFtl])
@pytest.mark.parametrize("seed", range(60))
def test_conservation_invariants(ftl_cls, seed):
    sim, array, buffer, ftl, controller = build_small_system(
        ftl_cls, GEOMETRY, buffer_pages=16)
    stream = random_stream(seed)
    host = ClosedLoopHost(sim, controller, [stream])
    host.start()
    sim.run()
    assert host.issued == len(stream) and buffer.is_empty

    # --- mapping bijectivity over live pages ---------------------------
    live = {}
    for lpn in range(SPAN):
        ppn = ftl.lookup(lpn)
        if ppn is not None:
            assert ppn not in live.values(), "ppn shared by two lpns"
            assert ftl.mapping.lpn_of(ppn) == lpn
            live[lpn] = ppn

    # --- per-block valid counts recount from the forward map ----------
    per_block = {}
    pages_per_block = GEOMETRY.pages_per_block
    for ppn in live.values():
        per_block[ppn // pages_per_block] = \
            per_block.get(ppn // pages_per_block, 0) + 1
    for gb in range(GEOMETRY.total_blocks):
        assert ftl.mapping.valid_count(gb) == per_block.get(gb, 0), \
            f"valid_count drifted for block {gb}"

    # --- free/full sets: disjoint, in-range, free means no live data --
    num_chips = GEOMETRY.channels * GEOMETRY.chips_per_channel
    for chip_id in range(num_chips):
        state = ftl.chips[chip_id]
        free = set(state.free_blocks)
        assert len(free) == len(state.free_blocks), "duplicate free block"
        assert not (free & state.full_blocks), "block both free and full"
        for block in free | state.full_blocks:
            assert 0 <= block < ftl.data_blocks_per_chip
        for block in free:
            gb = ftl.mapping.global_block_of(chip_id, block)
            assert ftl.mapping.valid_count(gb) == 0, \
                f"free block {block} on chip {chip_id} holds live data"

    # --- erase balance ------------------------------------------------
    block_erases = sum(
        blk.erase_count for chip in array.chips for blk in chip.blocks)
    chip_erases = sum(chip.erases for chip in array.chips)
    assert block_erases == chip_erases == array.total_erases \
        == ftl.counters()["erases"]

    # --- program balance ----------------------------------------------
    counters = ftl.counters()
    attributed = (counters["host_programs"] + counters["gc_programs"]
                  + counters["backup_programs"])
    assert array.total_programs == attributed
    assert array.total_programs == \
        counters["lsb_programs"] + counters["msb_programs"]
    assert counters["host_programs"] >= len(live)
