"""Differential tests of :class:`repro.workloads.draws.Draws`.

``Draws`` must return exactly what the same scalar calls on a numpy
``Generator`` return, in any interleaving, and hand the Generator back
in exactly the state those scalar calls leave.  Every test here runs a
script of calls twice — once on a plain Generator, once through
``Draws`` over an identically seeded one — and compares values and
final bit-generator states.
"""

import random as pyrandom
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.presets import PRESETS, make_preset
from repro.sim.host import StreamOp
from repro.sim.queues import RequestKind
from repro.workloads.draws import FIRST_CHUNK, MAX_CHUNK, Draws
from repro.workloads.synthetic import (
    burst_stream,
    mixed_stream,
    uniform_random_writes,
)

#: Range widths ``high - low`` the generators' integer draws can hit,
#: around every branch of the 32-bit Lemire draw (1 draws nothing,
#: 2**32 takes the raw half-word, wider ranges go to numpy).
WIDTHS = (1, 2, 7, 64, 1000, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 1,
          2**40)


def _call(target, step):
    """Run one scripted call; normalise numpy scalars/arrays."""
    name, args, kwargs = step
    value = getattr(target, name)(*args, **kwargs)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _differential(seed, script, bit_generator=np.random.PCG64):
    scalar = np.random.Generator(bit_generator(seed))
    wrapped = np.random.Generator(bit_generator(seed))
    draws = Draws(wrapped)
    for index, step in enumerate(script):
        expected = _call(scalar, step)
        got = _call(draws, step)
        assert got == expected, (index, step)
    assert draws.sync() is wrapped
    _assert_same_state(wrapped.bit_generator.state,
                       scalar.bit_generator.state)


def _assert_same_state(got, expected):
    """Bit-generator states are nested dicts, with arrays for some."""
    if isinstance(expected, dict):
        assert got.keys() == expected.keys()
        for key in expected:
            _assert_same_state(got[key], expected[key])
    else:
        assert np.array_equal(got, expected)


def _scalar_script(rnd, length, permutations=False):
    script = []
    for _ in range(length):
        roll = rnd.random()
        if roll < 0.4:
            script.append(("random", (), {}))
        elif roll < 0.92 or not permutations:
            low = rnd.randrange(-3, 1000)
            script.append(("integers", (low, low + rnd.choice(WIDTHS)),
                           {}))
        elif roll < 0.96:
            script.append(("permutation", (rnd.randrange(1, 40),), {}))
        else:
            script.append(("choice", (np.array([1, 2, 4, 8]),),
                           {"p": [0.1, 0.2, 0.3, 0.4]}))
    return script


class TestScalarDraws:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings_match_generator(self, seed):
        rnd = pyrandom.Random(seed)
        _differential(seed, _scalar_script(rnd, 700))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_each_range_width(self, width):
        # Alternate with random() so the cached half-word is both
        # present and absent when the integer draw starts.
        script = []
        for low in range(0, 300):
            script.append(("integers", (low, low + width), {}))
            if low % 3 == 0:
                script.append(("random", (), {}))
        _differential(width, script)

    def test_delegated_wide_range_keeps_stream_in_step(self):
        script = [("integers", (0, 7), {}), ("integers", (0, 2**40), {}),
                  ("integers", (0, 7), {}), ("random", (), {}),
                  ("integers", (5, 5 + 2**33), {}), ("random", (), {})]
        _differential(3, script * 20)

    def test_empty_range_raises_like_numpy(self):
        draws = Draws(np.random.default_rng(1))
        for low, high in ((5, 5), (5, 4)):
            with pytest.raises(ValueError):
                np.random.default_rng(1).integers(low, high)
            with pytest.raises(ValueError):
                draws.integers(low, high)
        # a refused call draws nothing
        assert draws.random() == np.random.default_rng(1).random()

    def test_array_draws_are_delegated(self):
        script = [("random", (), {}), ("random", (5,), {}),
                  ("integers", (0, 9), {}), ("random", (3,), {})]
        _differential(11, script * 10)


class TestChunkBoundaries:
    """Refills double from FIRST_CHUNK to MAX_CHUNK words; a draw that
    straddles a refill must see the same words as a scalar stream."""

    @staticmethod
    def _boundaries():
        total, chunk, edges = 0, FIRST_CHUNK, []
        while chunk <= MAX_CHUNK:
            total += chunk
            edges.append(total)
            chunk *= 2
        edges += [total + MAX_CHUNK, total + 2 * MAX_CHUNK]
        return edges

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_random_across_every_refill(self, offset):
        for edge in self._boundaries():
            script = [("random", (), {})] * (edge + offset)
            _differential(edge, script + [("integers", (0, 7), {})])

    def test_half_word_cached_across_refill(self):
        # An odd number of 32-bit draws leaves the upper half of the
        # chunk's last word cached when the next chunk is fetched.
        for edge in self._boundaries():
            script = ([("random", (), {})] * (edge - 1)
                      + [("integers", (0, 1000), {})] * 3
                      + [("random", (), {})] * 2)
            _differential(edge, script)

    def test_sync_mid_chunk_and_at_boundaries(self):
        rng = np.random.default_rng(4)
        scalar = np.random.default_rng(4)
        draws = Draws(rng)
        for count in (0, 1, FIRST_CHUNK - 1, FIRST_CHUNK, 37, 300):
            for _ in range(count):
                assert draws.random() == scalar.random()
            draws.sync()
            assert rng.bit_generator.state == scalar.bit_generator.state
        # a synced replay continues where it stood
        assert draws.integers(0, 100) == scalar.integers(0, 100)


class TestDelegatedDraws:
    def test_permutation_and_choice_mid_stream(self):
        rnd = pyrandom.Random(99)
        _differential(99, _scalar_script(rnd, 800, permutations=True))

    def test_generator_is_usable_directly_after_sync(self):
        rng = np.random.default_rng(8)
        scalar = np.random.default_rng(8)
        draws = Draws(rng)
        for _ in range(13):
            draws.integers(0, 5)
            scalar.integers(0, 5)
        draws.sync()
        assert rng.permutation(50).tolist() == \
            scalar.permutation(50).tolist()

    @pytest.mark.parametrize("bit_generator",
                             [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_are_delegated(self, bit_generator):
        rnd = pyrandom.Random(5)
        _differential(5, _scalar_script(rnd, 300, permutations=True),
                      bit_generator=bit_generator)


# ----------------------------------------------------------------------
# the synthetic primitives hand the caller's Generator back


def _scalar_mixed(logical_pages, count, read_fraction, npages, think,
                  zipf_s, rng):
    """The per-op numpy-scalar formulation of ``mixed_stream``."""
    span = max(1, logical_pages - npages + 1)
    cdf = np.cumsum(1.0 / np.power(np.arange(1, span + 1, dtype=float),
                                   zipf_s))
    cdf /= cdf[-1]
    perm = rng.permutation(span)
    ops = []
    for _ in range(count):
        kind = (RequestKind.READ if rng.random() < read_fraction
                else RequestKind.WRITE)
        rank = int(np.searchsorted(cdf, rng.random(), side="left"))
        ops.append(StreamOp(kind, int(perm[min(rank, span - 1)]), npages,
                            think))
    return ops


def _scalar_burst(logical_pages, bursts, burst_len, idle, read_fraction,
                  npages, zipf_s, rng):
    """The per-op numpy-scalar formulation of a grouped
    ``burst_stream`` with reads following writes."""
    span = max(1, logical_pages - npages + 1)
    cdf = np.cumsum(1.0 / np.power(np.arange(1, span + 1, dtype=float),
                                   zipf_s))
    cdf /= cdf[-1]
    perm = rng.permutation(span)
    ops = []
    for _ in range(bursts):
        kinds = sorted((RequestKind.READ if rng.random() < read_fraction
                        else RequestKind.WRITE for _ in range(burst_len)),
                       key=lambda kind: kind is RequestKind.READ)
        written = []
        for position, kind in enumerate(kinds):
            think = idle if position == burst_len - 1 else 0.0
            if kind is RequestKind.READ and written:
                lpn = written[int(rng.integers(0, len(written)))]
            else:
                rank = int(np.searchsorted(cdf, rng.random(), side="left"))
                lpn = int(perm[min(rank, span - 1)])
                if kind is RequestKind.WRITE:
                    written.append(lpn)
            ops.append(StreamOp(kind, lpn, npages, think))
    return ops


class TestHandBack:
    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_mixed_stream(self, seed):
        rng, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        ops = mixed_stream(3000, 257, 0.6, npages=2, think=1e-4,
                           zipf_s=1.1, rng=rng)
        assert ops == _scalar_mixed(3000, 257, 0.6, 2, 1e-4, 1.1, scalar)
        assert rng.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_burst_stream(self, seed):
        rng, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        ops = burst_stream(2000, 5, 33, idle=0.1, read_fraction=0.5,
                           zipf_s=0.9, reads_follow_writes=True, rng=rng)
        assert ops == _scalar_burst(2000, 5, 33, 0.1, 0.5, 1, 0.9, scalar)
        assert rng.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_uniform_random_writes(self, seed):
        rng, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        ops = uniform_random_writes(5000, 101, npages=3, rng=rng)
        expected = [StreamOp(RequestKind.WRITE,
                             int(scalar.integers(0, 4998)), 3, 0.0)
                    for _ in range(101)]
        assert ops == expected
        assert rng.bit_generator.state == scalar.bit_generator.state

    def test_caller_keeps_drawing_in_step(self):
        rng, scalar = np.random.default_rng(3), np.random.default_rng(3)
        mixed_stream(500, 10, 0.5, rng=rng)
        _scalar_mixed(500, 10, 0.5, 1, 0.0, 1.0, scalar)
        assert rng.random() == scalar.random()
        assert rng.integers(0, 9) == scalar.integers(0, 9)


# ----------------------------------------------------------------------
# one draw path


class _CountingGenerator:
    """Forwards to a real Generator and counts the calls it receives;
    ``Draws`` reaches the bit generator directly, so only delegated
    draws show up here."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.bit_generator = self._rng.bit_generator
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


class TestOneDrawPath:
    def test_synthetic_primitives_make_no_scalar_calls(self):
        for build in (
                lambda rng: mixed_stream(1000, 400, 0.5, rng=rng),
                lambda rng: burst_stream(1000, 4, 100, idle=0.1,
                                         read_fraction=0.5,
                                         reads_follow_writes=True, rng=rng),
                lambda rng: uniform_random_writes(1000, 400, rng=rng)):
            rng = _CountingGenerator(2)
            ops = build(rng)
            assert len(ops) == 400
            assert rng.calls in ([], ["permutation"])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_streams_make_no_scalar_calls(self, name, monkeypatch):
        import repro.scenarios.generator as generator

        made = []

        def fake_default_rng(seed):
            made.append(_CountingGenerator(seed))
            return made[-1]
        monkeypatch.setattr(generator.np.random, "default_rng",
                            fake_default_rng)
        scenario = make_preset(name, 4000, 2000, seed=1)
        assert sum(1 for _ in scenario.ops()) == scenario.total_ops
        zipf_phases = sum(1 for p in scenario.phases if p.zipf_s > 0)
        for rng in made:
            # at most one rank permutation per Zipf phase, nothing else
            assert set(rng.calls) <= {"permutation"}
            assert len(rng.calls) <= zipf_phases


# ----------------------------------------------------------------------
# property: any call script


_steps = st.one_of(
    st.just(("random", (), {})),
    st.tuples(st.integers(-2**40, 2**40),
              st.sampled_from(WIDTHS)).map(
        lambda pair: ("integers", (pair[0], pair[0] + pair[1]), {})),
    st.integers(1, 30).map(lambda n: ("permutation", (n,), {})),
    st.integers(1, 3).map(lambda n: ("random", (n,), {})),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       script=st.lists(_steps, max_size=120),
       padding=st.integers(0, 600))
def test_any_call_script_matches_generator(seed, script, padding):
    # ``padding`` leading random() calls move the script across chunk
    # boundaries and growth steps.
    _differential(seed, [("random", (), {})] * padding + script)


def test_zipf_rank_search_matches_searchsorted():
    from repro.workloads.zipf import zipf_cdf
    view = zipf_cdf(5000, 1.1)
    cdf = view.obj
    rng = np.random.default_rng(0)
    for u in list(rng.random(2000)) + [0.0, float(cdf[0]), float(cdf[10]),
                                       float(cdf[-2]), 1.0 - 2**-53]:
        assert bisect_left(view, u) == int(np.searchsorted(cdf, u,
                                                            side="left"))


def test_zipf_cdf_is_shared_while_live_and_then_dropped():
    import gc

    from repro.workloads.zipf import ZipfSampler, _CDFS
    first = ZipfSampler(777, 0.9, np.random.default_rng(1))
    second = ZipfSampler(777, 0.9, np.random.default_rng(2))
    assert first.cdf is second.cdf
    assert not first.cdf.obj.flags.writeable
    del first, second
    gc.collect()
    assert (777, 0.9) not in _CDFS
