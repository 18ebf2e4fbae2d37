"""Tests for the step kernel, :mod:`repro.network.kernel`.

Every array engine resolves its ticks through this module, so this suite
pins it against an oracle that shares none of its code:

* :func:`~repro.network.kernel.grouped_rank` and
  :func:`~repro.network.kernel.admit` equal a pure-Python oracle -- a
  per-group ``sorted`` over ``(key tuple, row)`` -- on hypothesis draws
  (0-300 rows, 1-4 keys with ties, scalar and per-row ``B`` and ``c``)
  and on fixed seeded cases, on both sorts: the same draws run with
  ``PACKED_SORT_ROWS`` patched to 0 (every call packs) and to a huge
  value (every call takes ``np.lexsort``);
* the packed key itself: negative and narrow-dtype keys pack, float,
  uint64 and too-wide keys (EDD's ``NO_DEADLINE`` beside finite
  deadlines) fall back to ``np.lexsort``, ties keep row order, and the
  63-bit width limit holds on both sides;
* the shared injection-order helper (arrival time, stable by request
  position) that the engines used to duplicate.

Engine-level bit-identity (reference == fast == batch), also with the
kernel swapped for these oracles, is fuzzed in
``tests/test_differential.py``.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import kernel
from repro.network.engine import NO_DEADLINE

# -- the oracle: plain Python sorting, no numpy ordering ------------------


def _sorted_rows(rows, columns):
    """``rows`` in key order, most significant column first, ties by row."""
    return sorted(rows, key=lambda r: (tuple(col[r] for col in columns), r))


def oracle_rank(gid, keys):
    """Rank of each row inside its ``gid`` group, as a list."""
    columns = [[int(v) for v in key] for key in keys]
    groups = {}
    for row, g in enumerate(gid):
        groups.setdefault(int(g), []).append(row)
    rank = [0] * len(gid)
    for rows in groups.values():
        for position, row in enumerate(_sorted_rows(rows, columns)):
            rank[row] = position
    return rank


def oracle_admit(node_id, axis, keys, B, c):
    """Top ``c`` per (node, axis) link forward, top ``B`` leftovers per
    node store; ``B``/``c`` are scalars or per-row arrays.  Lists out."""
    n = len(node_id)
    B_rows = np.broadcast_to(B, (n,)).tolist()
    c_rows = np.broadcast_to(c, (n,)).tolist()
    columns = [[int(v) for v in key] for key in keys]
    links, nodes = {}, {}
    for row in range(n):
        links.setdefault((int(node_id[row]), int(axis[row])), []).append(row)
    fwd = [False] * n
    for rows in links.values():
        for position, row in enumerate(_sorted_rows(rows, columns)):
            fwd[row] = position < c_rows[row]
    for row in range(n):
        if not fwd[row]:
            nodes.setdefault(int(node_id[row]), []).append(row)
    store = [False] * n
    for rows in nodes.values():
        for position, row in enumerate(_sorted_rows(rows, columns)):
            store[row] = position < B_rows[row]
    return fwd, store


@st.composite
def ticks(draw):
    """One tick's candidates: ``(node_id, axis, d, keys, B, c)``.

    Small key ranges force ties; ``B`` and ``c`` are each a scalar or a
    per-row array, ``B`` including 0.
    """
    n = draw(st.integers(0, 300))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node_id = rng.integers(0, draw(st.integers(1, 12)), size=n)
    axis = rng.integers(0, d, size=n)
    spread = draw(st.integers(1, 6))
    keys = tuple(rng.integers(-spread, spread, size=n)
                 for _ in range(draw(st.integers(1, 4))))
    B = rng.integers(0, 4, size=n) if draw(st.booleans()) \
        else draw(st.integers(0, 3))
    c = rng.integers(1, 4, size=n) if draw(st.booleans()) \
        else draw(st.integers(1, 3))
    return node_id, axis, d, keys, B, c


def random_case(rng, n, num_keys=3, groups=7):
    gid = rng.integers(0, groups, size=n).astype(np.int64)
    # last key unique, like every caller's rid tie-break
    keys = tuple(rng.integers(0, 5, size=n).astype(np.int64)
                 for _ in range(num_keys - 1))
    keys += (rng.permutation(n).astype(np.int64),)
    return gid, keys


#: ``PACKED_SORT_ROWS`` values that put every call on one sort: 0 packs
#: every call the packing accepts, a huge value keeps all on lexsort
ALL_PACKED, ALL_LEXSORT = 0, 2**62


@contextlib.contextmanager
def packed_calls():
    """Record, per call of the packed sort, whether it packed (``True``)
    or refused and left the call to ``np.lexsort`` (``False``)."""
    taken = []
    real = kernel._packed_order

    def spy(gid, keys):
        order = real(gid, keys)
        taken.append(order is not None)
        return order

    with mock.patch.object(kernel, "_packed_order", spy):
        yield taken


class TestGroupedRankParity:
    @staticmethod
    def _check(tick, threshold):
        node_id, axis, d, keys, _, _ = tick
        gid = node_id * d + axis
        with mock.patch.object(kernel, "PACKED_SORT_ROWS", threshold):
            assert kernel.grouped_rank(gid, keys).tolist() \
                == oracle_rank(gid, keys)

    @settings(max_examples=200)
    @given(ticks())
    def test_matches_sorted_oracle(self, tick):
        self._check(tick, ALL_LEXSORT)

    @settings(max_examples=200)
    @given(ticks())
    def test_matches_sorted_oracle_packed(self, tick):
        self._check(tick, ALL_PACKED)

    def test_ties_keep_row_order(self):
        # equal keys within a group rank by row position (stability)
        gid = np.zeros(5, dtype=np.int64)
        keys = (np.zeros(5, dtype=np.int64),)
        assert np.array_equal(kernel.grouped_rank(gid, keys),
                              np.arange(5))

    def test_single_key_and_many_groups(self):
        rng = np.random.default_rng(3)
        gid = rng.integers(0, 50, size=120).astype(np.int64)
        keys = (rng.permutation(120).astype(np.int64),)
        assert kernel.grouped_rank(gid, keys).tolist() \
            == oracle_rank(gid, keys)


class TestPackedKey:
    """The packed sort of calls with at least ``PACKED_SORT_ROWS`` rows
    (unpatched here): which keys it packs, and that it ranks as the
    oracle does."""

    N = 2 * kernel.PACKED_SORT_ROWS

    def test_negative_keys(self):
        # lifo's keys: (-arrival, -rid)
        rng = np.random.default_rng(21)
        gid = rng.integers(0, 40, size=self.N)
        arrival = rng.integers(0, 30, size=self.N)
        rid = rng.permutation(self.N)
        keys = (-arrival, -rid)
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, keys)
        assert taken == [True]
        assert rank.tolist() == oracle_rank(gid, keys)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.bool_])
    def test_narrow_integer_keys_pack(self, dtype):
        rng = np.random.default_rng(22)
        high = 2 if dtype is np.bool_ else 200
        gid = rng.integers(0, 30, size=self.N).astype(dtype)
        keys = (rng.integers(0, high, size=self.N).astype(dtype),
                rng.integers(0, high, size=self.N).astype(dtype))
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, keys)
        assert taken == [True]
        assert rank.tolist() == oracle_rank(gid, keys)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    def test_float_and_uint64_keys_take_lexsort(self, dtype):
        rng = np.random.default_rng(23)
        gid = rng.integers(0, 30, size=self.N)
        doubled = rng.integers(0, 40, size=self.N)
        if dtype is np.float64:  # halves: order kept by doubling
            key = doubled / 2
        else:  # values past int64's range
            key = doubled.astype(np.uint64) + np.uint64(2**63)
        rid = rng.permutation(self.N)
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, (key, rid))
        assert taken == [False]
        assert rank.tolist() == oracle_rank(gid, (doubled, rid))

    def test_ties_in_every_key_keep_row_order(self):
        rng = np.random.default_rng(24)
        gid = rng.integers(0, 3, size=self.N)
        keys = (np.full(self.N, -7), np.zeros(self.N, dtype=np.int64))
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, keys)
        assert taken == [True]
        assert rank.tolist() == oracle_rank(gid, keys)
        one_group = np.zeros(self.N, dtype=np.int64)
        assert kernel.grouped_rank(one_group, keys).tolist() \
            == list(range(self.N))

    @pytest.mark.parametrize("span,packs", [
        (2**63 // 512, True),  # rows * span == 2**63: the top key fits
        (2**63 // 512 + 1, False),  # one value more: past 63 bits
    ], ids=["fits", "one-over"])
    def test_width_limit(self, span, packs):
        # 512 rows and one group leave the key 2**54 values of room
        rng = np.random.default_rng(25)
        low = -2**60
        key = low + rng.integers(0, span, size=512)
        key[:2] = low, low + span - 1  # the whole span
        gid = np.zeros(512, dtype=np.int64)
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, (key,))
        assert taken == [packs]
        assert rank.tolist() == oracle_rank(gid, (key,))

    def test_no_deadline_beside_finite_deadlines_takes_lexsort(self):
        # EDD's keys: NO_DEADLINE next to deadlines from 0 span 2**63
        rng = np.random.default_rng(26)
        gid = rng.integers(0, 30, size=self.N)
        deadline = rng.integers(0, 50, size=self.N)
        deadline[::3] = NO_DEADLINE
        keys = (deadline, rng.integers(0, 20, size=self.N),
                rng.permutation(self.N))
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, keys)
        assert taken == [False]
        assert rank.tolist() == oracle_rank(gid, keys)

    def test_small_calls_never_pack(self):
        rng = np.random.default_rng(27)
        n = kernel.PACKED_SORT_ROWS - 1
        gid, keys = random_case(rng, n)
        with packed_calls() as taken:
            rank = kernel.grouped_rank(gid, keys)
        assert taken == []
        assert rank.tolist() == oracle_rank(gid, keys)


class TestAdmitParity:
    @staticmethod
    def _check(tick, threshold):
        node_id, axis, d, keys, B, c = tick
        with mock.patch.object(kernel, "PACKED_SORT_ROWS", threshold):
            fwd, store = kernel.admit(node_id, axis, d, keys, B, c)
        assert (fwd.tolist(), store.tolist()) \
            == oracle_admit(node_id, axis, keys, B, c)

    @settings(max_examples=200)
    @given(ticks())
    def test_matches_sorted_oracle(self, tick):
        self._check(tick, ALL_LEXSORT)

    @settings(max_examples=200)
    @given(ticks())
    def test_matches_sorted_oracle_packed(self, tick):
        self._check(tick, ALL_PACKED)

    @pytest.mark.parametrize("B,c", [(0, 1), (1, 1), (2, 1), (1, 3)])
    def test_scalar_capacities(self, B, c):
        rng = np.random.default_rng(7)
        for n in (0, 1, 33, 250):
            node_id = rng.integers(0, 9, size=n).astype(np.int64)
            axis = rng.integers(0, 2, size=n).astype(np.int64)
            _, keys = random_case(rng, n)
            fwd, store = kernel.admit(node_id, axis, 2, keys, B, c)
            assert (fwd.tolist(), store.tolist()) \
                == oracle_admit(node_id, axis, keys, B, c)

    def test_per_row_capacities(self):
        # the stacked batch facade passes per-row B/c arrays
        rng = np.random.default_rng(11)
        n = 180
        node_id = rng.integers(0, 6, size=n).astype(np.int64)
        axis = rng.integers(0, 2, size=n).astype(np.int64)
        _, keys = random_case(rng, n)
        B = rng.integers(0, 3, size=n).astype(np.int64)
        c = rng.integers(1, 3, size=n).astype(np.int64)
        fwd, store = kernel.admit(node_id, axis, 2, keys, B, c)
        assert (fwd.tolist(), store.tolist()) \
            == oracle_admit(node_id, axis, keys, B, c)

    def test_forward_and_store_are_disjoint_and_bounded(self):
        rng = np.random.default_rng(13)
        n = 300
        node_id = rng.integers(0, 8, size=n).astype(np.int64)
        axis = rng.integers(0, 2, size=n).astype(np.int64)
        _, keys = random_case(rng, n)
        fwd, store = kernel.admit(node_id, axis, 2, keys, 2, 1)
        assert not np.any(fwd & store)
        gid = node_id * 2 + axis
        assert max(np.bincount(gid[fwd], minlength=1)) <= 1
        assert max(np.bincount(node_id[store], minlength=1)) <= 2


class TestInjectionOrder:
    def test_regression_pin(self):
        # arrival time first, ties broken by request position -- the exact
        # order every engine's status accounting assumes
        order = kernel.injection_order(np.array([2, 0, 1, 0, 2]))
        assert order.tolist() == [1, 3, 2, 0, 4]

    def test_equal_arrivals_keep_request_order(self):
        assert kernel.injection_order([5, 5, 5, 5]).tolist() == [0, 1, 2, 3]

    def test_empty(self):
        assert kernel.injection_order(np.array([], dtype=np.int64)).size == 0
