"""Shared system builders and seeded generators for the test suite."""

import random

from repro.core.flexftl import FlexFtl
from repro.ftl.base import FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming
from repro.scenarios.base import CLOSED, Scenario, register_spec_type
from repro.sim.controller import StorageController
from repro.sim.host import StreamOp
from repro.sim.kernel import Simulator
from repro.sim.queues import RequestKind, WriteBuffer
from repro.sim.stats import SimStats
from repro.workloads.benchmarks import ProfileScenario

#: FTL class -> device sequence scheme it requires.
FTL_SCHEMES = {
    PageFtl: SequenceScheme.FPS,
    ParityFtl: SequenceScheme.FPS,
    RtfFtl: SequenceScheme.FPS,
    FlexFtl: SequenceScheme.RPS,
}


def random_page_walk(seed, wordlines, steps):
    """Seeded stream of arbitrary ``(wordline, ptype)`` candidates.

    Deliberately scheme-ignorant: roughly half the candidates violate
    an ordering constraint or re-target a programmed page, which is
    exactly what a differential legality test wants to see.
    """
    from repro.nand.page_types import PageType

    rng = random.Random(seed)
    return [
        (rng.randrange(wordlines),
         PageType.MSB if rng.random() < 0.5 else PageType.LSB)
        for _ in range(steps)
    ]


def random_legal_order(seed, wordlines, scheme):
    """A full in-block program order legal under ``scheme``.

    Built constraint-first: at every step one candidate is drawn
    uniformly from the pages :func:`constraint_violations` currently
    permits, so the result exercises the *whole* legal order space of
    the scheme, not just the canonical zig-zag.
    """
    from repro.nand.page_types import PageType
    from repro.nand.sequence import constraint_violations

    rng = random.Random(seed)
    programmed = set()

    def is_programmed(wordline, ptype):
        return (wordline, ptype) in programmed

    order = []
    total = 2 * wordlines
    while len(order) < total:
        candidates = [
            (wordline, ptype)
            for wordline in range(wordlines)
            for ptype in (PageType.LSB, PageType.MSB)
            if (wordline, ptype) not in programmed
            and not constraint_violations(
                is_programmed, wordlines, wordline, ptype, scheme)
        ]
        assert candidates, f"scheme {scheme} wedged after {order}"
        choice = rng.choice(candidates)
        programmed.add(choice)
        order.append(choice)
    return order


def build_small_system(ftl_cls, geometry, buffer_pages=32,
                       ftl_config=None, timing=None, **ftl_kwargs):
    """Assemble a complete simulated system for tests.

    Returns ``(sim, array, buffer, ftl, controller)``.
    """
    scheme = FTL_SCHEMES[ftl_cls]
    sim = Simulator()
    array = NandArray(geometry, timing or NandTiming(), scheme=scheme)
    buffer = WriteBuffer(buffer_pages)
    ftl = ftl_cls(array, buffer, ftl_config or FtlConfig(), **ftl_kwargs)
    stats = SimStats(page_size=geometry.page_size)
    controller = StorageController(sim, array, ftl, buffer, stats)
    return sim, array, buffer, ftl, controller


def profile_streams(workload, logical_pages, total_ops, seed=0):
    """A benchmark profile's streams as materialised op lists."""
    scenario = ProfileScenario(workload, logical_pages, total_ops, seed)
    return [list(stream) for stream in scenario.op_streams()]


_OP_CODES = {RequestKind.READ: "R", RequestKind.WRITE: "W"}
_OP_KINDS = {"R": RequestKind.READ, "W": RequestKind.WRITE}


class StreamScenario(Scenario):
    """Closed-loop scenario over hand-built op lists.

    The lists are materialised, and the spec writes every op out as a
    row, so this is for small test workloads only.  Ops are re-tagged
    with their stream index and the scenario's ``tenant``: the spec
    records only kind, lpn, npages and think time, so a wrapped op's
    own tags do not carry over.
    """

    mode = CLOSED

    def __init__(self, streams, name="streams", tenant=None):
        self.name = name
        self.tenant = tenant
        self._streams = [list(s) for s in streams]

    @property
    def footprint(self):
        touched = [op.lpn + op.npages for stream in self._streams
                   for op in stream]
        return max(touched) if touched else 1

    @property
    def stream_count(self):
        return len(self._streams)

    @property
    def total_ops(self):
        return sum(len(s) for s in self._streams)

    def _tagged(self, index):
        for op in self._streams[index]:
            yield StreamOp(kind=op.kind, lpn=op.lpn, npages=op.npages,
                           think_after=op.think_after, stream=index,
                           tenant=self.tenant)

    def op_streams(self):
        return [self._tagged(index) for index in range(len(self._streams))]

    def spec(self):
        return {
            "type": "streams",
            "name": self.name,
            "tenant": self.tenant,
            "streams": [[[_OP_CODES[op.kind], op.lpn, op.npages,
                          op.think_after] for op in stream]
                        for stream in self._streams],
        }

    @classmethod
    def from_spec(cls, spec):
        streams = [
            [StreamOp(_OP_KINDS[str(code)], int(lpn), int(npages),
                      float(think))
             for code, lpn, npages, think in stream]
            for stream in spec["streams"]
        ]
        return cls(streams, name=str(spec.get("name", "streams")),
                   tenant=spec.get("tenant"))


register_spec_type("streams", StreamScenario.from_spec)
