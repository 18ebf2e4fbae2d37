"""Uniform random request generation.

The requests, their rids and the generator's final state equal those of
one ``rng.integers`` call per coordinate (``deadline`` and
``congestion-mix`` keep drawing from the generator).  Every draw is
numpy's Lemire step on a raw 32-bit word.  A call of at least
:data:`VECTOR_MIN` requests draws blocks of those words: numpy computes,
for every word position of a window, the attempt that would start there,
and a Python walk picks the positions where requests start.  Smaller
calls, ranges of ``2**32`` or more, and everything from the first Lemire
rejection the walk meets on, draw one coordinate at a time through
:func:`~repro.util.rng.bounded_draws`.  Either way the result is a
:class:`~repro.network.packet.RequestTable` that builds its request
objects on first use.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_workload
from repro.network.packet import NO_DEADLINE, RequestTable, reserve_rids
from repro.network.topology import Network
from repro.util.errors import ValidationError
from repro.util.rng import as_generator, bounded_draws, lemire

#: attempts at a source and destination ``min_distance`` apart before a
#: request falls back to the far corner
ATTEMPTS = 64

#: calls below this many requests draw one coordinate at a time.  Per
#: call on 4x4, 6x6 and 10x10 grids and the 32-line (fastest of 200, 2
#: vCPU, numpy 2.4.6), one at a time against the windows: 16 requests
#: 79-97 us against 91-116 us, 24 requests 99-128 against 94-123, 32
#: requests 118-159 against 98-132
VECTOR_MIN = 24

#: most candidate attempt starts one window evaluates
WINDOW = 4096

_WORD = 1 << 32


def _check_num(num) -> int:
    """``num`` as an int; a negative, non-integer or bool ``num`` is a
    :class:`ValidationError` before anything is drawn."""
    if isinstance(num, bool) or not isinstance(num, (int, np.integer)) \
            or num < 0:
        raise ValidationError(f"num must be an integer >= 0, got {num!r}")
    return int(num)


@register_workload(
    "uniform",
    description="num requests with uniform source, dominating destination, "
    "and arrival in [0, horizon - 1] (0 when horizon <= 1)",
)
def uniform_requests(network: Network, num: int, horizon: int, rng=None,
                     min_distance: int = 1) -> RequestTable:
    """``num`` requests with uniformly random source, destination
    (dominating the source by at least ``min_distance`` hops in total) and
    arrival time in ``[0, horizon - 1]`` (0 when ``horizon <= 1``), as a
    :class:`~repro.network.packet.RequestTable` with consecutive rids.

    Sources/destinations are drawn by sampling the source uniformly, then
    each destination coordinate uniformly from ``[source_i, l_i)``;
    degenerate draws below ``min_distance`` are resampled (bounded retries,
    then the farthest corner is used).
    """
    num = _check_num(num)
    rng = as_generator(rng)
    dims = network.dims
    top = max(1, horizon)
    rid = reserve_rids(num)
    chunks: list = []  # (source, dest, arrival) columns, in request order
    done = 0
    if num >= VECTOR_MIN and type(top) is int and top < _WORD \
            and max(dims) < _WORD:
        done = _windowed(rng, dims, top, min_distance, num, chunks)
    if done < num or not chunks:
        chunks.append(_one_at_a_time(rng, dims, top, min_distance,
                                     num - done))
    source, dest, arrival = chunks[0] if len(chunks) == 1 else (
        np.concatenate(column) for column in zip(*chunks))
    return RequestTable(source, dest, arrival,
                        np.full(num, NO_DEADLINE, dtype=np.int64), rid)


def _one_at_a_time(rng, dims, top, min_distance, count) -> tuple:
    """The columns of ``count`` requests drawn one coordinate at a time."""
    zeros = (0,) * len(dims)
    corner = tuple(l - 1 for l in dims)
    sources, dests, arrivals = [], [], []
    with bounded_draws(rng, count * (2 * len(dims) + 1) + 32) as draw:
        for _ in range(count):
            for _attempt in range(ATTEMPTS):
                src = tuple(map(draw, zeros, dims))
                dst = tuple(map(draw, src, dims))
                if sum(dst) - sum(src) >= min_distance:
                    break
            else:
                src, dst = zeros, corner
            sources.append(src)
            dests.append(dst)
            arrivals.append(draw(0, top))
    shape = (count, len(dims))
    return (np.array(sources, dtype=np.int64).reshape(shape),
            np.array(dests, dtype=np.int64).reshape(shape),
            np.array(arrivals, dtype=np.int64))


def _attempts(words, size, dims, top, min_distance) -> tuple:
    """The attempt that would start at each of the first ``size``
    positions of ``words`` (uint64), assuming no word is rejected.

    Returns ``(source, dest, kind, step, arrival, arrival_rejected)``:
    per-axis lists of int64 coordinates; ``kind`` 0 for a success, 1 for
    a failure (closer than ``min_distance``), 2 when one of its words
    (its arrival's, for a success) is rejected; ``step`` the words to
    the next attempt start (after the arrival, for a success); and the
    arrival drawn at every position of ``words`` with its rejections.
    A range of 1 takes no word: one-node axes draw no source, and a
    source on an axis' last node no destination.
    """
    first = np.arange(size)
    rejected = np.zeros(size, dtype=bool)
    source = []
    at = 0
    for side in dims:
        if side > 1:
            value, bad = lemire(words[at:at + size], side)
            rejected |= bad
            at += 1
        else:
            value = np.zeros(size, dtype=np.int64)
        source.append(value)
    at = first + at  # where each attempt reads its next word
    dest = []
    for side, src in zip(dims, source):
        n = (side - src).view(np.uint64)
        value, bad = lemire(words[at], n)
        rejected |= bad
        dest.append(src + value)
        at += n > 1
    ok = sum(dest) - sum(source) >= min_distance
    if top > 1:
        arrival, arrival_rejected = lemire(words, top)
        rejected |= ok & arrival_rejected[at]
        at += ok
    else:
        arrival = np.zeros(words.size, dtype=np.int64)
        arrival_rejected = np.zeros(words.size, dtype=bool)
    kind = np.where(rejected, 2, np.where(ok, 0, 1))
    return source, dest, kind, at - first, arrival, arrival_rejected


def _windowed(rng, dims, top, min_distance, num, chunks) -> int:
    """Draw requests from windows of raw words until ``num`` are done or
    the walk meets a rejection; append their columns to ``chunks``,
    leave the generator after the words they used, and return how many
    are done.

    A window evaluates :func:`_attempts` at up to :data:`WINDOW` starts
    (fewer when few requests are left) over the words it may read, and
    the walk follows ``step`` from the current start.  An attempt the
    window cannot finish is evaluated again in the next one, whose words
    continue where the walk stopped.
    """
    d = len(dims)
    reach = 2 * d + 1  # words an attempt and its arrival read at most
    arrival_words = int(top > 1)
    corner = np.asarray(dims, dtype=np.int64) - 1
    state = rng.bit_generator.state
    words = np.zeros(0, dtype=np.uint64)
    base = 0  # words before words[0]
    done = attempts = first = 0  # first: where a failing request began
    while done < num:
        size = min(WINDOW, (num - done) * reach)
        if words.size < size + reach:
            more = rng.integers(0, _WORD, size=size + reach - words.size)
            words = np.concatenate((words, more.view(np.uint64)))
        window = words[:size + reach]
        source, dest, kind, step, arrival, arrival_rejected = _attempts(
            window, size, dims, top, min_distance)
        kind, steps = kind.tolist(), step.tolist()
        picks = []  # attempt starts of done requests; ~q: a corner, arrival at q
        p, stop = 0, False
        while p < size and done < num:
            c = kind[p]
            if c == 0:
                picks.append(p)
                p += steps[p]
                done += 1
                attempts = 0
            elif c == 1:
                if attempts == 0:
                    first = base + p
                p += steps[p]
                attempts += 1
                if attempts == ATTEMPTS:
                    if arrival_rejected[p]:
                        stop = True
                        break
                    picks.append(~p)
                    p += arrival_words
                    done += 1
                    attempts = 0
            else:
                stop = True
                break
        if picks:
            picks = np.array(picks)
            corners = picks < 0
            rows = np.where(corners, 0, picks)
            src = np.stack([column[rows] for column in source], axis=1)
            dst = np.stack([column[rows] for column in dest], axis=1)
            at = np.where(corners, ~picks,
                          rows + step[rows] - arrival_words)
            if corners.any():
                src[corners] = 0
                dst[corners] = corner
            chunks.append((src, dst, arrival[at]))
        if stop:
            used = first if attempts else base + p
            break
        words = words[p:]
        base += p
    else:
        used = base
    rng.bit_generator.state = state
    if used:
        rng.integers(0, _WORD, size=used)
    return done
