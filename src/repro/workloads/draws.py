"""Bit-exact bulk draws for the workload generators.

The generators draw a handful of random numbers per op.  Each numpy
scalar call (``Generator.random()``, ``Generator.integers(lo, hi)``)
costs about a microsecond of argument parsing and scalar boxing, which
made op supply a visible share of every measured run.  :class:`Draws`
wraps a seeded :class:`numpy.random.Generator` and answers the same
four calls the generators make — ``random``, ``integers``,
``permutation`` and ``choice`` — with *the values numpy would have
returned*, in the same order, while paying numpy once per chunk of raw
output words instead of once per draw.

How it stays bit-exact with a ``PCG64`` generator:

* raw 64-bit output words are fetched in bulk with
  ``bit_generator.random_raw``; chunks start small (a stream that draws
  a few dozen values fetches a few dozen words) and double up to
  :data:`MAX_CHUNK`;
* ``random()`` is numpy's ``next_double``: ``(w >> 11) * 2**-53``;
* ``integers(lo, hi)`` with ``hi - lo <= 2**32`` is numpy's 32-bit
  Lemire draw over ``next_uint32``, including PCG64's cached upper
  half-word (the bit generator's ``has_uint32``/``uinteger`` state);
* everything else — ``permutation``, ``choice``, wider integer ranges,
  array-valued draws and generators other than ``PCG64`` — first puts
  the wrapped Generator exactly where the replay stands, calls numpy,
  and resumes the replay from the Generator's new state.  The
  Generator runs ahead of the replay by exactly the fetched words not
  yet consumed, so putting it back is ``advance`` by minus that count
  (PCG64 advances modulo its period) plus restoring the half-word
  cache through ``state``.

:meth:`Draws.sync` performs the same hand-over explicitly: a function
that borrows a caller's Generator calls it before returning, so the
caller sees its Generator in the state the scalar calls would have
left.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Sequence

import numpy as np

#: Words fetched by a stream's first refill; each refill doubles it.
FIRST_CHUNK = 8
#: Largest refill, in 64-bit words.
MAX_CHUNK = 256

_MASK32 = 0xFFFFFFFF
_UNIT = 2.0 ** -53


class Draws:
    """Replays a numpy ``Generator``'s scalar draws from bulk output.

    Args:
        rng: the Generator to draw from.  The replay runs ahead of it
            between :meth:`sync` calls; anything else that draws from
            it in the meantime breaks the replay's exactness.
    """

    __slots__ = ("_gen", "_bit", "_limit", "_chunk", "_words", "_pos",
                 "_has", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        self._gen = rng
        self._bit = rng.bit_generator
        # The replay knows PCG64's output words and half-word cache; a
        # range above ``_limit`` (every range, for other bit
        # generators) is drawn by numpy itself.
        self._limit = (_MASK32 if type(self._bit) is np.random.PCG64
                       else -1)
        self._chunk = FIRST_CHUNK
        self._words: Sequence[int] = ()
        self._pos = 0
        self._has = 0
        self._half = 0
        if self._limit > 0:
            self._rebase()

    # -- scalar draws --------------------------------------------------

    def random(self, size: Any = None) -> Any:
        """A float in ``[0, 1)`` (``Generator.random()``)."""
        if size is None:
            pos = self._pos
            try:
                word = self._words[pos]
            except IndexError:
                if self._limit < 0:
                    return self._gen.random()
                word = self._refill()
            else:
                self._pos = pos + 1
            return (word >> 11) * _UNIT
        return self._delegate(self._gen.random, size)

    def integers(self, low: int, high: int) -> int:
        """An int in ``[low, high)`` (``Generator.integers(low, high)``)."""
        span = high - low - 1
        if span > self._limit or span < 0:
            return self._delegate(self._gen.integers, low, high)
        if span == 0:
            return low
        if span == _MASK32:
            return low + self._next32()
        excl = span + 1
        if self._has:
            self._has = 0
            m = self._half * excl
        else:
            m = self._next32() * excl
        leftover = m & _MASK32
        if leftover < excl:
            threshold = (_MASK32 - span) % excl
            while leftover < threshold:
                m = self._next32() * excl
                leftover = m & _MASK32
        return low + (m >> 32)

    # -- delegated draws -----------------------------------------------

    def permutation(self, x: Any) -> np.ndarray:
        """``Generator.permutation(x)``, drawn by numpy."""
        return self._delegate(self._gen.permutation, x)

    def choice(self, *args: Any, **kwargs: Any) -> Any:
        """``Generator.choice(...)``, drawn by numpy."""
        return self._delegate(self._gen.choice, *args, **kwargs)

    def sync(self) -> np.random.Generator:
        """Move the wrapped Generator to where the replay stands.

        Afterwards the Generator's ``bit_generator.state`` equals what
        the same sequence of scalar calls on it would have left, and
        the replay continues from there.  Returns the Generator.
        """
        if self._limit < 0:
            return self._gen
        bit = self._bit
        ahead = len(self._words) - self._pos
        if ahead:
            bit.advance(-ahead)
        state = bit.state
        state["has_uint32"] = self._has
        state["uinteger"] = self._half
        bit.state = state
        self._words = ()
        self._pos = 0
        return self._gen

    # -- internals -----------------------------------------------------

    def _rebase(self) -> None:
        """Restart the replay from the Generator's current state."""
        state = self._bit.state
        self._words = ()
        self._pos = 0
        self._has = state["has_uint32"]
        self._half = state["uinteger"]

    def _refill(self) -> int:
        """Fetch the next chunk and consume its first word."""
        chunk = self._chunk
        if chunk < MAX_CHUNK:
            self._chunk = chunk * 2
        # 8 bytes a word: a list would keep a 40-byte int per word
        # alive, an ndarray would box a numpy scalar per index
        words = array("Q", self._bit.random_raw(chunk).tobytes())
        self._words = words
        self._pos = 1
        return words[0]

    def _next32(self) -> int:
        """numpy's ``next_uint32`` for PCG64: the cached upper half of
        the last word split, else the lower half of a fresh word."""
        if self._has:
            self._has = 0
            return self._half
        pos = self._pos
        try:
            word = self._words[pos]
        except IndexError:
            word = self._refill()
        else:
            self._pos = pos + 1
        self._has = 1
        self._half = word >> 32
        return word & _MASK32

    def _delegate(self, method: Callable[..., Any], *args: Any,
                  **kwargs: Any) -> Any:
        if self._limit < 0:
            return method(*args, **kwargs)
        self.sync()
        try:
            return method(*args, **kwargs)
        finally:
            self._rebase()
