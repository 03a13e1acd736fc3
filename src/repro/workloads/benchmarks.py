"""Emulators of the paper's five evaluation workloads (Table 1).

Each profile matches Table 1's two published characteristics — the
read:write ratio and the I/O-intensiveness class — and adds the
structural parameters the paper describes in prose: OLTP and NTRX are
intensive database loads "with little idle times between successive
I/O requests"; Webserver is read-dominant "with large idle times";
Varmail and Fileserver are "write-intensive workloads with a fair
amount of idle times" (bursty, with inter-burst gaps that give the
background garbage collector room to work).

======================  =====  ==========  ================
workload                R:W    intensity   structure
======================  =====  ==========  ================
OLTP (Sysbench)         7:3    very high   steady, think~0
NTRX (Sysbench)         3:7    very high   steady, think~0
Webserver (Filebench)   4:1    moderate    steady, long think
Varmail (Filebench)     1:1    high        bursts + idle
Fileserver (Filebench)  1:2    high        bursts + idle
======================  =====  ==========  ================
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.scenarios.base import CLOSED, Scenario, register_spec_type
from repro.sim.host import StreamOp
from repro.workloads.synthetic import burst_stream, mixed_stream


def format_rw_ratio(read_fraction: float) -> str:
    """Render a read fraction as the closest small ``R:W`` ratio.

    Both terms are kept single-digit, as Table 1 prints them (7:3,
    1:2, ...), choosing the pair minimising the fraction error.
    """
    if read_fraction <= 0.0:
        return "0:1"
    if read_fraction >= 1.0:
        return "1:0"
    from math import gcd

    best = (1, 1)
    best_error = float("inf")
    for reads in range(1, 10):
        for writes in range(1, 10):
            if gcd(reads, writes) != 1:
                continue
            error = abs(read_fraction - reads / (reads + writes))
            if error < best_error:
                best_error = error
                best = (reads, writes)
    return f"{best[0]}:{best[1]}"


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """Shape of one emulated benchmark workload.

    Attributes:
        name: workload name as it appears in the paper.
        read_fraction: fraction of operations that are reads.
        intensiveness: Table 1 class (``"very high"``, ``"high"``,
            ``"moderate"``).
        streams: concurrent synchronous worker streams.
        npages: request size in pages.
        think: per-op think time for steady streams (seconds).
        burst_len: ops per burst (0 means a steady stream).
        burst_idle: idle gap between bursts (seconds).
        zipf_s: address-skew exponent.
        reads_recent: burst reads target the burst's own writes
            (mail-server re-read pattern, absorbed by the buffer the
            way a host page cache absorbs it).
    """

    name: str
    read_fraction: float
    intensiveness: str
    streams: int
    npages: int
    think: float = 0.0
    burst_len: int = 0
    burst_idle: float = 0.0
    zipf_s: float = 1.0
    reads_recent: bool = False

    @property
    def read_write_ratio(self) -> str:
        """The Table 1 style ``R:W`` label (e.g. ``7:3``, ``1:2``)."""
        return format_rw_ratio(self.read_fraction)

    @property
    def is_bursty(self) -> bool:
        """Whether the workload has burst/idle structure."""
        return self.burst_len > 0


#: The five Table 1 workloads.
PROFILES: Dict[str, WorkloadProfile] = {
    "OLTP": WorkloadProfile(
        name="OLTP", read_fraction=0.7, intensiveness="very high",
        streams=16, npages=4, think=0.0, zipf_s=1.1,
    ),
    "NTRX": WorkloadProfile(
        name="NTRX", read_fraction=0.3, intensiveness="very high",
        streams=16, npages=4, think=0.0, zipf_s=1.1,
    ),
    "Webserver": WorkloadProfile(
        name="Webserver", read_fraction=0.8, intensiveness="moderate",
        streams=8, npages=2, think=4e-3, zipf_s=0.9,
    ),
    "Varmail": WorkloadProfile(
        name="Varmail", read_fraction=0.5, intensiveness="high",
        streams=4, npages=1, burst_len=512, burst_idle=0.18, zipf_s=0.9,
        reads_recent=True,
    ),
    "Fileserver": WorkloadProfile(
        name="Fileserver", read_fraction=0.33, intensiveness="high",
        streams=4, npages=4, burst_len=96, burst_idle=0.30, zipf_s=0.9,
    ),
}


class ProfileScenario(Scenario):
    """One benchmark workload as a closed-loop scenario.

    Stream ``i`` is one :func:`~repro.workloads.synthetic.mixed_stream`
    (steady profiles) or :func:`~repro.workloads.synthetic.burst_stream`
    (bursty ones) drawn from ``default_rng(seeds[i])``, its ops tagged
    with the stream index.  The spec holds the profile, span, op budget
    and seeds, never the ops: every view regenerates them::

        scenario = ProfileScenario("Varmail", span, total_ops=4000)
        run_workload(ftl_name="flexFTL", scenario=scenario)

    Args:
        workload: a :data:`PROFILES` key, or an explicit profile (ablation
            sweeps, custom benchmark mixes).
        logical_pages: the address span the streams draw from.
        total_ops: operations across all streams; each stream gets
            ``total_ops // streams`` of them (bursty streams: the whole
            bursts that fit).
        seed: base seed; stream ``i`` uses ``seed * 7919 + i``.
        seeds: explicit per-stream seeds (one per profile stream),
            used instead of ``seed``.
    """

    mode = CLOSED

    def __init__(self, workload: Union[str, WorkloadProfile],
                 logical_pages: int, total_ops: int, seed: int = 0,
                 seeds: Optional[Sequence[int]] = None) -> None:
        if isinstance(workload, WorkloadProfile):
            profile = workload
        elif workload in PROFILES:
            profile = PROFILES[workload]
        else:
            raise KeyError(f"unknown workload {workload!r}; choose from "
                           f"{sorted(PROFILES)}")
        if total_ops <= 0:
            raise ValueError(
                f"total_ops must be positive, got {total_ops}")
        if seeds is None:
            seeds = [seed * 7919 + i for i in range(profile.streams)]
        if len(seeds) != profile.streams:
            raise ValueError(
                f"{profile.name} has {profile.streams} streams, got "
                f"{len(seeds)} seeds")
        self.name = profile.name
        self.profile = profile
        self.logical_pages = int(logical_pages)
        self.requested_ops = int(total_ops)
        self.seeds = tuple(int(s) for s in seeds)
        self._per_stream = max(1, self.requested_ops // profile.streams)
        if profile.is_bursty:
            self._bursts = max(1, self._per_stream // profile.burst_len)
            self._per_stream = self._bursts * profile.burst_len
        self._footprint: Optional[int] = None

    @property
    def footprint(self) -> int:
        """One past the highest page the ops touch (one generation pass,
        memoised on the instance)."""
        if self._footprint is None:
            self._footprint = max(
                op.lpn + op.npages for index in range(self.profile.streams)
                for op in self._generate(index))
        return self._footprint

    @property
    def stream_count(self) -> int:
        return self.profile.streams

    @property
    def total_ops(self) -> int:
        """Operations the streams emit (whole bursts for bursty ones)."""
        return self._per_stream * self.profile.streams

    def _generate(self, index: int) -> List[StreamOp]:
        profile = self.profile
        rng = np.random.default_rng(self.seeds[index])
        if profile.is_bursty:
            return burst_stream(
                self.logical_pages, self._bursts, profile.burst_len,
                idle=profile.burst_idle,
                read_fraction=profile.read_fraction,
                npages=profile.npages, zipf_s=profile.zipf_s,
                reads_follow_writes=profile.reads_recent, rng=rng,
            )
        return mixed_stream(
            self.logical_pages, self._per_stream,
            read_fraction=profile.read_fraction, npages=profile.npages,
            think=profile.think, zipf_s=profile.zipf_s, rng=rng,
        )

    def _stream(self, index: int) -> Iterator[StreamOp]:
        for op in self._generate(index):
            op.stream = index
            yield op

    def op_streams(self) -> List[Iterator[StreamOp]]:
        return [self._stream(index)
                for index in range(self.profile.streams)]

    def spec(self) -> Dict[str, Any]:
        return {
            "type": "profile",
            "profile": dataclasses.asdict(self.profile),
            "logical_pages": self.logical_pages,
            "total_ops": self.requested_ops,
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "ProfileScenario":
        return cls(WorkloadProfile(**spec["profile"]),
                   int(spec["logical_pages"]), int(spec["total_ops"]),
                   seeds=spec["seeds"])


register_spec_type("profile", ProfileScenario.from_spec)


def workload_table(profiles: Optional[Dict[str, WorkloadProfile]] = None
                   ) -> str:
    """Render Table 1: I/O characteristics of the five workloads."""
    profiles = profiles or PROFILES
    names = list(profiles)
    header = f"{'':18s}" + "".join(f"{n:>12s}" for n in names)
    ratio = f"{'Read:Write':18s}" + "".join(
        f"{profiles[n].read_write_ratio:>12s}" for n in names
    )
    intensity = f"{'I/O intensiveness':18s}" + "".join(
        f"{profiles[n].intensiveness:>12s}" for n in names
    )
    return "\n".join([header, ratio, intensity])
