"""Property-based end-to-end consistency of the FTL stack.

Drives randomly generated closed-loop streams through each FTL on a
live simulated system and checks the invariants that make an FTL an
FTL, against an oracle (a plain dict of last-write-wins expectations):

* every logical page the host wrote resolves to exactly one physical
  page, and distinct logical pages never share one;
* total valid pages equal the oracle's live page count;
* per-block valid counters are internally consistent;
* the run terminates with all requests completed (no deadlock), with
  the device's program-sequence checker armed the whole time.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

SPAN = 180  # comfortably below any FTL's logical space on GEOMETRY

operations = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=SPAN - 4),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=120,
)


def to_stream(ops):
    return [
        StreamOp(
            RequestKind.READ if op == "read" else RequestKind.WRITE,
            lpn, npages,
        )
        for op, lpn, npages in ops
    ]


def oracle_state(ops):
    written = set()
    for op, lpn, npages in ops:
        if op == "write":
            written.update(range(lpn, lpn + npages))
    return written


@pytest.mark.parametrize("ftl_cls", [PageFtl, ParityFtl, RtfFtl,
                                     FlexFtl])
class TestFtlConsistency:
    @given(ops=operations)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mapping_matches_oracle(self, ftl_cls, ops):
        system = build_small_system(ftl_cls, GEOMETRY, buffer_pages=16)
        sim, array, buffer, ftl, controller = system
        host = ClosedLoopHost(sim, controller, [to_stream(ops)])
        host.start()
        sim.run()

        # completion: nothing stuck
        assert host.issued == len(ops)
        assert buffer.is_empty
        assert controller.stats.completed_requests == len(ops)

        expected_live = oracle_state(ops)
        seen_ppns = set()
        for lpn in range(SPAN):
            ppn = ftl.lookup(lpn)
            if lpn in expected_live:
                assert ppn is not None, f"lpn {lpn} lost"
                assert ppn not in seen_ppns, "two lpns share a ppn"
                seen_ppns.add(ppn)
                assert ftl.mapping.lpn_of(ppn) == lpn
            else:
                assert ppn is None, f"lpn {lpn} spuriously mapped"

        total_valid = sum(
            ftl.mapping.valid_count(gb)
            for gb in range(GEOMETRY.total_blocks)
        )
        assert total_valid == len(expected_live)
