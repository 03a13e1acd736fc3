"""ECC capability model: from raw BER to uncorrectable page errors.

The paper's reliability argument stops at raw bit error rates; a
storage system lives or dies by what its ECC makes of them.  This
module models a BCH-style code correcting ``t`` bits per codeword and
derives, from a raw BER, the probability that a codeword (and hence a
page) is uncorrectable — which turns the Figure 4(b) measurement into
an *endurance* statement: the highest P/E cycle count at which the
device still meets an uncorrectable-error target.  Used by
:mod:`repro.experiments.endurance` to show that RPS preserves not just
the raw BER but the usable lifetime.

The binomial tail is scipy's compiled kernel
``scipy.special._ufuncs._binom_sf``, the very function
``scipy.stats.binom.sf`` evaluates inside its argument checks, so only
:mod:`scipy.special` is loaded, never :mod:`scipy.stats`.  It is
imported on the first call of :func:`binom_sf`, not with this module,
so the CLI, the fleet service and every physics-free run import
:mod:`repro` without scipy (``tests/test_import_weight.py``).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable


@functools.cache
def binom_sf() -> Callable[..., float]:
    """The binomial survival function ``sf(k, n, p)``, importing scipy on
    the first call.

    The one binomial tail of the ECC model: scipy's compiled kernel
    ``_binom_sf``, which ``stats.binom.sf`` calls once its argument
    checks pass, so its values match ``binom.sf`` bit for bit inside the
    support (:func:`codeword_failure_probability` handles ``k >= n``,
    where the kernel returns ``nan``).  The public
    ``scipy.special.bdtrc`` is a different kernel whose values differ in
    the last bits.  A scipy without the private kernel gets
    ``stats.binom.sf`` itself.  Cached, so the process pays the import
    once; :class:`repro.reliability.physics.PhysicsEngine` calls it at
    construction so the import lands in set-up, never in a measured
    phase.
    """
    try:
        from scipy.special._ufuncs import _binom_sf
    except ImportError:
        from scipy import stats
        return stats.binom.sf
    return _binom_sf


@dataclasses.dataclass(frozen=True)
class EccConfig:
    """A BCH-like code: ``correctable_bits`` per ``codeword_bytes``.

    The default — 40 bits per 1-KB codeword — is typical of the BCH
    engines shipped with 2X-nm MLC controllers.
    """

    codeword_bytes: int = 1024
    correctable_bits: int = 40

    def __post_init__(self) -> None:
        if self.codeword_bytes <= 0:
            raise ValueError("codeword_bytes must be positive")
        if self.correctable_bits < 0:
            raise ValueError("correctable_bits must be non-negative")

    @property
    def codeword_bits(self) -> int:
        """Payload bits per codeword."""
        return 8 * self.codeword_bytes


def codeword_failure_probability(raw_ber: float,
                                 config: EccConfig = EccConfig()
                                 ) -> float:
    """P[more than t bit errors in one codeword] for i.i.d. errors."""
    if not (0.0 <= raw_ber <= 1.0):
        raise ValueError(f"raw_ber must be in [0, 1], got {raw_ber}")
    if raw_ber == 0.0 or config.correctable_bits >= config.codeword_bits:
        return 0.0
    return float(binom_sf()(config.correctable_bits,
                            config.codeword_bits, raw_ber))


def page_failure_probability(raw_ber: float, page_size: int = 4096,
                             config: EccConfig = EccConfig()) -> float:
    """P[any codeword of a page is uncorrectable]."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    codewords = max(1, page_size // config.codeword_bytes)
    p_codeword = codeword_failure_probability(raw_ber, config)
    return float(1.0 - (1.0 - p_codeword) ** codewords)


def max_tolerable_ber(target_page_failure: float = 1e-12,
                      page_size: int = 4096,
                      config: EccConfig = EccConfig()) -> float:
    """Highest raw BER the ECC absorbs within a page-failure target.

    Solved by bisection; the failure probability is monotonic in the
    raw BER.
    """
    if not (0.0 < target_page_failure < 1.0):
        raise ValueError("target_page_failure must be in (0, 1)")
    low, high = 0.0, 0.5
    for _ in range(200):
        mid = (low + high) / 2.0
        if page_failure_probability(mid, page_size, config) \
                <= target_page_failure:
            low = mid
        else:
            high = mid
    return low
