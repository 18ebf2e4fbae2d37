"""Tests for repro.util.rng: the raw-word stream against numpy's own draws.

:func:`~repro.util.rng.bounded_draws` reproduces ``rng.integers`` from
blocks of raw 32-bit words, so every value it serves and the generator's
state when it settles must equal those of scalar ``rng.integers`` calls,
on every bit generator numpy ships.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import bounded_draws

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)

#: no word; the smallest range of numpy's 32-bit path, a power of two
#: (never rejects), 2**31 + 1 (rejects about half its words) and the
#: largest; two ranges of its 64-bit path
EDGE_RANGES = (1, 2, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 5)


def same_state(a, b) -> bool:
    """Equality of bit-generator states, which may hold arrays (MT19937)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def twin_generators(bit_generator, seed):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


calls = st.lists(st.tuples(
    st.integers(-3, 3),
    st.sampled_from(EDGE_RANGES) | st.integers(1, 100)), max_size=40)


class TestBoundedDraws:
    @settings(max_examples=200, deadline=None)
    @given(bit_generator=st.sampled_from(BIT_GENERATORS),
           seed=st.integers(0, 2**32 - 1),
           skip=st.integers(0, 3),
           calls=calls,
           words=st.integers(0, 70))
    def test_matches_scalar_integers(self, bit_generator, seed, skip, calls,
                                     words):
        # ``skip`` scalar words first: an odd count leaves PCG64 and
        # SFC64 holding a spare half-word; blocks of ``words`` (clamped
        # to at least 1) make refills frequent
        want_rng, got_rng = twin_generators(bit_generator, seed)
        for rng in (want_rng, got_rng):
            rng.integers(0, 2**32, size=skip)
        want = [int(want_rng.integers(low, low + n)) for low, n in calls]
        with bounded_draws(got_rng, words) as draw:
            got = [draw(low, low + n) for low, n in calls]
        assert got == want
        assert all(type(value) is int for value in got)
        assert same_state(got_rng.bit_generator.state,
                          want_rng.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_no_word_leaves_generator_alone(self, bit_generator):
        rng = np.random.Generator(bit_generator(5))
        before = rng.bit_generator.state
        with bounded_draws(rng, 100) as draw:
            assert [draw(3, 4) for _ in range(10)] == [3] * 10
        assert same_state(rng.bit_generator.state, before)

    def test_empty_range_raises_like_numpy(self):
        want_rng, got_rng = twin_generators(np.random.PCG64, 3)
        want_rng.integers(0, 5)
        with pytest.raises(ValueError):
            want_rng.integers(4, 4)
        with pytest.raises(ValueError):
            with bounded_draws(got_rng, 8) as draw:
                draw(0, 5)
                draw(4, 4)
        assert same_state(got_rng.bit_generator.state,
                          want_rng.bit_generator.state)

    def test_settles_when_the_caller_raises(self):
        want_rng, got_rng = twin_generators(np.random.PCG64, 11)
        want = [int(want_rng.integers(0, 10)) for _ in range(3)]
        with pytest.raises(RuntimeError):
            with bounded_draws(got_rng, 100) as draw:
                assert [draw(0, 10) for _ in range(3)] == want
                raise RuntimeError("caller failure")
        assert same_state(got_rng.bit_generator.state,
                          want_rng.bit_generator.state)
