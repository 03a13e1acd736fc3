"""Zipfian address sampling.

Enterprise I/O is skewed: a small set of hot pages receives most of
the writes.  :class:`ZipfSampler` draws from a Zipf(s) distribution
over ``n`` items via a precomputed CDF (O(log n) per sample), with the
item ranks shuffled so the hot set is scattered across the address
space rather than clustered at low LPNs.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Tuple, Union

import numpy as np

from repro.workloads.draws import Draws


#: Live CDFs by ``(n, s)``.  Weak: a CDF is shared by every sampler
#: that exists at once (a fleet's 1,024 streams) but not kept once the
#: last of them is gone, so it adds nothing to a run's peak memory.
_CDFS: "weakref.WeakValueDictionary[Tuple[int, float], memoryview]" = \
    weakref.WeakValueDictionary()


def zipf_cdf(n: int, s: float) -> memoryview:
    """The Zipf(s) CDF over ``n`` ranks, as a read-only memoryview of a
    float64 array (``.obj``), shared by every live sampler."""
    cdf = _CDFS.get((n, s))
    if cdf is None:
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), s)
        values = np.cumsum(weights)
        values /= values[-1]
        values.flags.writeable = False
        cdf = _CDFS[(n, s)] = memoryview(values)
    return cdf


class ZipfSampler:
    """Draw skewed indices from ``[0, n)``.

    Args:
        n: population size.
        s: skew exponent; 0 degenerates to uniform, ~1 is typical for
            storage workloads.
        rng: numpy generator, or a :class:`~repro.workloads.draws.Draws`
            over one (seeded by the caller for determinism).
        shuffle: permute ranks so hot items spread over the range.

    ``cdf`` and ``perm`` are memoryviews of the CDF and the rank
    permutation (ndarrays behind them, as ``.obj``):
    ``perm[bisect_left(cdf, u, 0, n - 1)]`` is the draw for a uniform
    ``u`` (the ``hi`` bound clamps the rank like ``min(rank, n - 1)``),
    which the generators inline.
    """

    __slots__ = ("n", "s", "rng", "cdf", "perm")

    def __init__(self, n: int, s: float = 1.0,
                 rng: Union[np.random.Generator, Draws, None] = None,
                 shuffle: bool = True) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not s >= 0:
            raise ValueError(f"s must be non-negative, got {s}")
        self.n = n
        self.s = s
        self.rng = rng or np.random.default_rng()
        self.cdf = zipf_cdf(n, s)
        self.perm = memoryview(self.rng.permutation(n) if shuffle
                               else np.arange(n))

    def sample(self) -> int:
        """Draw one index."""
        return self.perm[bisect_left(self.cdf, self.rng.random(), 0,
                                     self.n - 1)]

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` indices (vectorised)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        u = self.rng.random(count)
        ranks = np.searchsorted(self.cdf.obj, u, side="left")
        ranks = np.minimum(ranks, self.n - 1)
        return self.perm.obj[ranks]
