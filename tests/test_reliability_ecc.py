"""Tests for the ECC capability model and the endurance sweep."""

import random
import sys

import pytest
from scipy import stats

from repro.experiments.endurance import run_endurance_sweep
from repro.reliability.ecc import (
    EccConfig,
    binom_sf,
    codeword_failure_probability,
    max_tolerable_ber,
    page_failure_probability,
)


class TestEccModel:
    def test_zero_ber_never_fails(self):
        assert codeword_failure_probability(0.0) == 0.0
        assert page_failure_probability(0.0) == 0.0

    def test_monotonic_in_ber(self):
        bers = [1e-5, 1e-4, 1e-3, 1e-2]
        probabilities = [codeword_failure_probability(b) for b in bers]
        assert probabilities == sorted(probabilities)

    def test_stronger_code_fails_less(self):
        weak = EccConfig(correctable_bits=8)
        strong = EccConfig(correctable_bits=72)
        ber = 2e-3
        assert codeword_failure_probability(ber, strong) < \
            codeword_failure_probability(ber, weak)

    def test_typical_operating_point_is_safe(self):
        # 40 bits / 1 KB against the Fig. 4(b) median (~4e-4): the
        # expected 3.3 errors per codeword are deep inside the margin.
        assert codeword_failure_probability(4e-4) < 1e-15

    def test_overwhelmed_code_fails(self):
        # 1% raw BER = ~82 errors per 1-KB codeword >> 40 correctable.
        assert codeword_failure_probability(1e-2) > 0.99

    def test_page_failure_aggregates_codewords(self):
        ber = 3e-3
        per_codeword = codeword_failure_probability(ber)
        per_page = page_failure_probability(ber, page_size=4096)
        assert per_page >= per_codeword  # 4 codewords per page
        assert per_page <= 4 * per_codeword + 1e-12

    def test_max_tolerable_ber_is_consistent(self):
        limit = max_tolerable_ber(target_page_failure=1e-9)
        assert 1e-4 < limit < 1e-2
        assert page_failure_probability(limit) <= 1e-9
        assert page_failure_probability(limit * 1.5) > 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            EccConfig(codeword_bytes=0)
        with pytest.raises(ValueError):
            EccConfig(correctable_bits=-1)
        with pytest.raises(ValueError):
            codeword_failure_probability(1.5)
        with pytest.raises(ValueError):
            page_failure_probability(1e-3, page_size=0)
        with pytest.raises(ValueError):
            max_tolerable_ber(target_page_failure=0.0)


class TestEccCurvePinned:
    """``repr``-exact points of the default curve (40 bits per 1-KB
    codeword, 4-KB pages).  The physics engine's page-failure draws
    and the endurance sweep hang on these values, so neither deferring
    the scipy import nor swapping the binomial tail may move them."""

    @pytest.mark.parametrize("ber, codeword, page", [
        (4e-4, "1.5284636693351733e-30", "0.0"),
        (3e-3, "0.0014844688362455546", "0.005924666538756895"),
        (1e-2, "0.9999998092069821", "1.0"),
    ])
    def test_failure_probabilities(self, ber, codeword, page):
        assert repr(codeword_failure_probability(ber)) == codeword
        assert repr(page_failure_probability(ber)) == page

    def test_default_max_tolerable_ber(self):
        assert repr(max_tolerable_ber()) == "0.0012363530784636856"


class TestEccKernelOracle:
    """The ECC tail is the compiled kernel ``scipy.stats.binom.sf``
    evaluates, so every probability equals ``binom.sf``'s exactly, with
    or without the fallback to ``binom.sf`` itself."""

    #: Seeded log-uniform raw BERs in [1e-7, 1].
    BERS = [10.0 ** random.Random(27).uniform(-7.0, 0.0)
            for _ in range(400)]
    CONFIGS = [EccConfig(codeword_bytes=size, correctable_bits=t)
               for size in (512, 1024) for t in (40, 72)]

    @pytest.fixture
    def fallback(self, monkeypatch):
        """Resolve :func:`binom_sf` with the private kernel's import
        failing, as on a scipy without it."""
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
        binom_sf.cache_clear()
        yield
        binom_sf.cache_clear()

    def assert_matches_binom_sf(self):
        for config in self.CONFIGS:
            t, n = config.correctable_bits, config.codeword_bits
            mismatches = [
                ber for ber in self.BERS + [0.0, 1.0]
                if codeword_failure_probability(ber, config)
                != float(stats.binom.sf(t, n, ber))]
            assert mismatches == [], (t, n, mismatches[:5])
        # t >= n never fails; the raw kernel returns nan for t > n
        for t in (8, 9):
            config = EccConfig(codeword_bytes=1, correctable_bits=t)
            for ber in (1e-3, 0.5, 1.0):
                assert codeword_failure_probability(ber, config) == 0.0 \
                    == float(stats.binom.sf(t, 8, ber))
                assert page_failure_probability(ber, 4096, config) == 0.0

    def test_kernel_is_the_one_binom_sf_evaluates(self):
        from scipy.stats import _discrete_distns
        kernel = getattr(getattr(_discrete_distns, "scu", None),
                         "_binom_sf", None)
        if kernel is not None:
            assert binom_sf() is kernel
        else:
            assert binom_sf() == stats.binom.sf

    def test_matches_binom_sf_exactly(self):
        self.assert_matches_binom_sf()

    def test_fallback_matches_binom_sf_exactly(self, fallback):
        assert binom_sf() == stats.binom.sf
        self.assert_matches_binom_sf()


class TestEnduranceSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_endurance_sweep(blocks=4, wordlines=12,
                                   cycles=(0, 2000, 4000), seed=9)

    def test_rps_tracks_fps_exactly(self, sweep):
        assert sweep.median_ber["RPSfull"] == sweep.median_ber["FPS"]
        assert sweep.endurance["RPSfull"] == sweep.endurance["FPS"]

    def test_unconstrained_is_worse(self, sweep):
        fps = sweep.endurance["FPS"]
        unconstrained = sweep.endurance["unconstrained"]
        assert fps is not None
        assert unconstrained is None or unconstrained <= fps
        assert sweep.median_ber["unconstrained"][-1] > \
            sweep.median_ber["FPS"][-1]

    def test_render_lists_cycles(self, sweep):
        text = sweep.render()
        assert "4000" in text
        assert "FPS" in text
