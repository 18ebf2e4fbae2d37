"""Step kernel: the per-tick contention resolve as one unit.

Every engine tick of the bounded-buffer grid model ends in the same hot
loop: rank the candidate packets inside each contention group under the
policy's total priority order, admit the top ``c`` per (node, axis) link
onto the links, admit the top ``B`` leftovers per node into the buffers,
and scatter the forward/store outcomes back over the packet rows.

A ranking sorts the rows by ``(group, *keys, row)``.  From
:data:`PACKED_SORT_ROWS` rows on, it sorts one int64 key that packs the
whole tuple, if the columns are integers and fit in 63 bits; smaller
calls and the rest use ``np.lexsort``.  Both sorts give the same order.

This module owns that loop for every array engine: they all run the one
array loop of :mod:`repro.network.fast_batch_engine`, whose greedy
programs rank and admit through
:func:`~repro.network.fast_engine.greedy_masks` and whose Model 2
program (:class:`~repro.network.node_models.FastModel2Engine`) ranks
through :func:`grouped_rank` -- so there is exactly one implementation
of the bit-identity-critical ranking logic.
"""

from __future__ import annotations

import numpy as np


#: Rows from which :func:`grouped_rank` sorts one packed int64 key
#: instead of calling ``np.lexsort``.  Measured per call on the ranks of
#: a perfbench large_grid round (numpy 2.4.6, 2 vCPU, fastest of 11):
#: lexsort 43 us against 71 us packed at 128-255 rows, 62 against 45 at
#: 384-511, 83 against 52 at 512-639 and 445 against 135 at 2600-2799.
#: The two cross between 256 and 512 rows.  The ranks of bound_sweep
#: (at most 81 rows) and queue_sweep (at most 19) stay on lexsort.
PACKED_SORT_ROWS = 512


def _packed_order(gid, keys):
    """The ``np.lexsort`` order of ``(gid, *keys, row)`` from one
    ``argsort`` of a mixed-radix int64 key, or ``None`` when a column is
    not an integer array or the packed key would not fit in 63 bits.

    Each column is cast to int64 and shifted by its minimum; the row
    index is the least significant digit, so every packed key is unique
    and any sort gives the stable order.  The width is checked in Python
    integers before any array arithmetic, so the packing cannot wrap.
    """
    columns = [np.asarray(col) for col in (gid,) + tuple(keys)]
    if any(col.dtype.kind not in "biu" or col.dtype == np.uint64
           for col in columns):
        return None
    n = len(gid)
    columns = [col.astype(np.int64, copy=False) for col in columns]
    lows, spans = [], []
    width = n
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        width *= span
        if width > 2**63:  # the largest key, width - 1, must fit in int64
            return None
        lows.append(lo)
        spans.append(span)
    packed = columns[0] - lows[0]
    for col, lo, span in zip(columns[1:], lows[1:], spans[1:]):
        packed *= span
        packed += col - lo
    packed *= n
    packed += np.arange(n)
    return packed.argsort()


def grouped_rank(gid, keys) -> np.ndarray:
    """Rank of each element within its ``gid`` group under ``keys``.

    ``keys`` is a tuple of integer arrays, most significant first, and
    equal keys keep row order; every caller's key tuple ends in the
    unique ``rid``, so the order is total.  ``rank[i]`` is row ``i``'s
    0-based position inside its group sorted by ``keys``.  Calls of at
    least :data:`PACKED_SORT_ROWS` rows sort one packed key
    (:func:`_packed_order`); smaller ones, and any the packing refuses,
    use ``np.lexsort``.
    """
    n = len(gid)
    rank = np.empty(n, np.int64)
    if n == 0:
        return rank
    order = _packed_order(gid, keys) if n >= PACKED_SORT_ROWS else None
    if order is None:
        order = np.lexsort(tuple(reversed(keys)) + (gid,))
    g = gid[order]
    new_group = np.empty(n, bool)
    new_group[0] = True
    new_group[1:] = g[1:] != g[:-1]
    starts = np.flatnonzero(new_group)
    rank[order] = np.arange(n) - starts[np.cumsum(new_group) - 1]
    return rank


# admit ranks through this private name, so wrapping the public
# ``grouped_rank`` (perfbench's tracer does) counts only outside calls
_rank = grouped_rank


def admit(node_id, axis, d: int, keys, B, c):
    """Resolve one tick's contention: ``(forward_mask, store_mask)``.

    Top ``c`` per (node, axis) forward, top ``B`` leftovers per node
    store -- the single hot loop of every array engine.  Both rankings
    go through :func:`grouped_rank`, so each picks its own sort by its
    row count.  ``B``/``c`` may be scalars (per-scenario networks) or
    per-row arrays (the stacked batch facade).
    """
    fwd = _rank(node_id * d + axis, keys) < c
    store = np.zeros(fwd.shape[0], bool)
    left = np.flatnonzero(~fwd)
    if left.size:
        B_left = B[left] if isinstance(B, np.ndarray) else B
        if np.any(B_left > 0):
            lrank = _rank(node_id[left], tuple(key[left] for key in keys))
            store[left[lrank < B_left]] = True
    return fwd, store


def injection_order(arrival) -> np.ndarray:
    """Stable injection order: arrival time, ties by request position.

    The one shared definition of the stable-argsort injection idiom of
    the array loop (behind ``FastEngine``, ``FastBatchEngine`` and
    ``FastModel2Engine``).  Stability is load-bearing: requests revealed
    at the same step must enter the live set in request order, which
    the loop's status accounting assumes (pinned by
    ``tests/test_kernel.py``).
    """
    return np.argsort(np.asarray(arrival), kind="stable")


def active_kernel() -> str:
    """Always ``"numpy"``: there is one kernel.

    Kept only because the benchmark's provenance line
    (``perfbench/run.py``) records it.
    """
    return "numpy"


def numba_available() -> bool:
    """True when numba imports in this process.

    No kernel uses numba; this is kept only because the benchmark's
    provenance line (``perfbench/run.py``) records it.
    """
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True
