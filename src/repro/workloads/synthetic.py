"""Synthetic workload primitives.

Building blocks the benchmark emulators compose: sequential fills (for
device preconditioning), uniform/Zipfian random writes, steady mixed
read/write streams, and bursty streams with idle gaps.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.host import StreamOp
from repro.sim.queues import RequestKind
from repro.workloads.draws import Draws
from repro.workloads.zipf import ZipfSampler


def sequential_fill(logical_pages: int, npages_per_request: int = 8
                    ) -> List[StreamOp]:
    """One stream writing the whole logical space once, sequentially.

    Used to precondition a device before measurement so every logical
    page is mapped and garbage collection is exercised realistically.
    """
    if logical_pages <= 0:
        raise ValueError("logical_pages must be positive")
    if npages_per_request <= 0:
        raise ValueError("npages_per_request must be positive")
    ops: List[StreamOp] = []
    lpn = 0
    while lpn < logical_pages:
        npages = min(npages_per_request, logical_pages - lpn)
        ops.append(StreamOp(RequestKind.WRITE, lpn, npages, 0.0))
        lpn += npages
    return ops


def uniform_random_writes(logical_pages: int, count: int,
                          npages: int = 1,
                          think: float = 0.0,
                          rng: Optional[np.random.Generator] = None
                          ) -> List[StreamOp]:
    """A stream of uniformly random single/multi-page writes."""
    draws = Draws(rng or np.random.default_rng())
    upper = max(1, logical_pages - npages + 1)
    ops = [
        StreamOp(RequestKind.WRITE, draws.integers(0, upper), npages,
                 think)
        for _ in range(count)
    ]
    draws.sync()
    return ops


def mixed_stream(logical_pages: int, count: int, read_fraction: float,
                 npages: int = 1, think: float = 0.0,
                 zipf_s: float = 1.0,
                 rng: Optional[np.random.Generator] = None
                 ) -> List[StreamOp]:
    """A steady stream mixing reads and writes with Zipfian locality."""
    if not (0.0 <= read_fraction <= 1.0):
        raise ValueError("read_fraction must be in [0, 1]")
    draws = Draws(rng or np.random.default_rng())
    span = max(1, logical_pages - npages + 1)
    sampler = ZipfSampler(span, zipf_s, draws)
    ops: List[StreamOp] = []
    for _ in range(count):
        kind = (RequestKind.READ if draws.random() < read_fraction
                else RequestKind.WRITE)
        ops.append(StreamOp(kind, sampler.sample(), npages, think))
    draws.sync()
    return ops


def burst_stream(logical_pages: int, bursts: int, burst_len: int,
                 idle: float, read_fraction: float = 0.0,
                 npages: int = 1, zipf_s: float = 1.0,
                 grouped: bool = True,
                 reads_follow_writes: bool = False,
                 rng: Optional[np.random.Generator] = None
                 ) -> List[StreamOp]:
    """Bursts of back-to-back ops separated by idle think times.

    Within a burst every op has zero think time; the burst's last op
    carries the inter-burst idle.  This is the shape that stresses the
    paper's peak-bandwidth mechanisms: a burst wants LSB-speed service,
    the idle gap is when background GC earns the quota back.

    With ``grouped=True`` (the default) each burst issues its writes
    as one run followed by its reads as one run — the fsync-storm
    shape of mail/file servers.  Ungrouped bursts interleave reads
    randomly, which throttles the stream on read latency and hides
    write-path differences.

    ``reads_follow_writes=True`` makes each burst's reads target pages
    the same burst just wrote (a mail server re-reading delivered
    mail); such reads are largely absorbed by the write buffer, like
    the host page cache absorbs them on a real system.
    """
    if burst_len <= 0 or bursts <= 0:
        raise ValueError("bursts and burst_len must be positive")
    if idle < 0:
        raise ValueError("idle must be non-negative")
    draws = Draws(rng or np.random.default_rng())
    span = max(1, logical_pages - npages + 1)
    sampler = ZipfSampler(span, zipf_s, draws)
    ops: List[StreamOp] = []
    for _ in range(bursts):
        kinds = [
            RequestKind.READ if draws.random() < read_fraction
            else RequestKind.WRITE
            for _ in range(burst_len)
        ]
        if grouped:
            kinds.sort(key=lambda kind: kind is RequestKind.READ)
        written: List[int] = []
        for position, kind in enumerate(kinds):
            think = idle if position == burst_len - 1 else 0.0
            if kind is RequestKind.READ and reads_follow_writes and written:
                lpn = written[draws.integers(0, len(written))]
            else:
                lpn = sampler.sample()
                if kind is RequestKind.WRITE:
                    written.append(lpn)
            ops.append(StreamOp(kind, lpn, npages, think))
    draws.sync()
    return ops
