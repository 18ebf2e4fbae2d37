"""Deterministic randomness helpers.

All stochastic behaviour in the package flows through
:class:`numpy.random.Generator` objects.  Functions accept either a seed, a
generator, or ``None`` and normalise via :func:`as_generator`, following the
scientific-python convention that experiments must be replayable from a
single integer seed.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_WORD = 1 << 32


def as_generator(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an ``int``, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so that callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed, n: int) -> list[np.random.Generator]:
    """Split ``seed`` into ``n`` independent child generators.

    Used by multi-seed experiment sweeps so each trial gets a statistically
    independent stream while remaining reproducible.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(n)]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def lemire(words, n) -> tuple:
    """numpy's Lemire step for ``rng.integers(low, low + n)`` on raw
    32-bit ``words``, vectorized: ``(offsets, rejected)``.

    ``words`` is a uint64 array of words ``rng.integers(0, 2**32,
    size=...)`` returned; ``n`` is a range in ``1..2**32-1``, a scalar or
    a uint64 array broadcasting against ``words``.  ``offsets`` (int64)
    is the high half of ``w * n``; ``rejected`` marks the words numpy
    would discard and replace by the next word (the low half below
    ``2**32 % n``).  A range of 1 yields offset 0 and never rejects,
    though a scalar draw of it takes no word.
    """
    m = words * n
    return (m >> 32).view(np.int64), (m & 0xFFFFFFFF) < _WORD % n


@contextmanager
def bounded_draws(rng: np.random.Generator, words: int):
    """Yield ``draw(low, high)``, equal to ``int(rng.integers(low, high))``.

    numpy draws an int range ``2 <= n < 2**32`` by Lemire's method: one
    32-bit word ``w`` per attempt, accepted when the low half of ``w * n``
    is at least ``2**32 % n``; a range of 1 takes no word.  ``draw`` does
    the same on blocks of ``rng.integers(0, 2**32, size=min(4096, words))``,
    which are those words.  Before any other range goes to ``rng.integers``,
    and on exit, the generator is settled: reset to its state before the
    block and advanced by the words used.
    """
    bitgen = rng.bit_generator
    size = max(1, min(4096, words))
    block, used, saved = [], 0, None

    def settle():
        nonlocal block, used, saved
        if saved is not None:
            bitgen.state = saved
            rng.integers(0, _WORD, size=used)
            block, used, saved = [], 0, None

    def draw(low, high):
        nonlocal block, used, saved
        n = high - low
        if type(n) is int:
            if 1 < n < _WORD:
                try:
                    m = block[used] * n
                except IndexError:
                    saved = bitgen.state
                    block = rng.integers(0, _WORD, size=size).tolist()
                    used = 0
                    return draw(low, high)
                used += 1
                leftover = m & 0xFFFFFFFF
                if leftover >= n or leftover >= _WORD % n:
                    return low + (m >> 32)
                return draw(low, high)
            if n == 1:
                return low
        settle()
        return int(rng.integers(low, high))

    try:
        yield draw
    finally:
        settle()
