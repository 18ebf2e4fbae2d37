"""Compiled step kernel: the per-tick contention resolve as one unit.

Every engine tick of the bounded-buffer grid model ends in the same hot
loop: rank the candidate packets inside each contention group under the
policy's total priority order, admit the top ``c`` per (node, axis) link
onto the links, admit the top ``B`` leftovers per node into the buffers,
and scatter the forward/store outcomes back over the packet rows.  This
module owns that loop for *all* array engines --
:class:`~repro.network.fast_engine.FastEngine`,
:class:`~repro.network.fast_batch_engine.FastBatchEngine` (through the
shared :func:`~repro.network.fast_engine.greedy_masks`), and the Model 2
:class:`~repro.network.node_models.FastModel2Engine` -- so there is
exactly one implementation of the bit-identity-critical ranking logic.

Two interchangeable backends execute the *same function bodies*
(:func:`_rank_impl` / :func:`_admit_impl`, written in the
numba-compilable subset of numpy):

* ``"numba"`` -- the bodies compiled with ``numba.njit(cache=True)``;
  one native call per tick, no Python-level temporaries between the sort
  passes.
* ``"numpy"`` -- the very same bodies executed as plain vectorized
  numpy; this is the always-available fallback and is performance-neutral
  with the pre-kernel ``lexsort`` implementation (stable-argsort
  composition is exactly what ``lexsort`` does internally).

Because both backends run the same body, parity is structural, not
coincidental; ``tests/test_kernel.py`` still enforces it end to end
(byte-identical :class:`~repro.network.simulator.SimulationResult`
objects on the seed scenarios) and ``tests/test_differential.py``
fuzzes the kernel dimension against the reference engine.

Selection mirrors engine selection: an explicit argument beats the
``REPRO_KERNEL`` environment variable (``auto`` | ``numba`` | ``numpy``)
beats the default ``auto``.  ``auto`` resolves to ``numba`` when numba
imports (and its compiled kernels pass a self-check) and to ``numpy``
otherwise; an *explicit* ``numba`` with no working numba raises
:class:`~repro.util.errors.ValidationError` -- never a silent fallback,
mirroring the PR-4 adapter contract.  The active kernel is recorded in
every ``RunReport.meta["kernel"]`` and shown by ``repro list``.

Sort-order contract
-------------------
:func:`grouped_rank` must rank exactly like the historical
``np.lexsort(tuple(reversed(keys)) + (gid,))``: ``gid`` is the primary
key, then ``keys[0]``, ``keys[1]``, ... with ties broken stably by row
position.  The bodies realize this as a composition of stable
(``mergesort``) argsorts from the least significant key upward -- the
textbook LSD construction ``lexsort`` itself uses -- so the permutation
is identical, not merely equivalent.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

import numpy as np

from repro.util.errors import ValidationError

#: environment variable consulted when no explicit kernel is given
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: the valid selector values (``auto`` resolves to a concrete backend)
KERNEL_NAMES = ("auto", "numba", "numpy")

_numba_checked = False
_numba_ok = False
_numba_error: str | None = None


def numba_available() -> bool:
    """True when numba imports in this process (memoized)."""
    global _numba_checked, _numba_ok, _numba_error
    if not _numba_checked:
        _numba_checked = True
        try:
            import numba  # noqa: F401

            _numba_ok = True
        except Exception as exc:  # pragma: no cover - environment-specific
            _numba_ok = False
            _numba_error = f"{type(exc).__name__}: {exc}"
    return _numba_ok


# -- the kernel bodies ----------------------------------------------------
#
# Written once, in the numba-compilable subset of numpy (stable argsort,
# flatnonzero, cumsum, fancy gather/scatter), and dispatched either as
# plain numpy or through ``njit(cache=True)``.  ``_admit_impl`` calls the
# ranking body through the module global ``_RANK`` so that, under numba,
# the compiled admit kernel binds the compiled rank kernel (numba
# resolves globals at compile time; :func:`_activate` installs the
# matched pair before either can compile).


def _rank_impl(gid, keys):
    """Rank of each row within its ``gid`` group under ``keys``.

    ``keys`` is ``(n, k)`` int64, most significant column first;
    ``rank[i]`` is row ``i``'s 0-based position inside its group sorted
    by the key columns (stably, so equal keys keep row order).
    """
    n = gid.shape[0]
    rank = np.empty(n, np.int64)
    if n == 0:
        return rank
    # LSD stable-sort composition == lexsort(reversed(keys) + (gid,))
    order = np.arange(n)
    for j in range(keys.shape[1] - 1, -1, -1):
        col = keys[:, j]
        order = order[np.argsort(col[order], kind="mergesort")]
    order = order[np.argsort(gid[order], kind="mergesort")]
    g = gid[order]
    new_group = np.empty(n, np.bool_)
    new_group[0] = True
    new_group[1:] = g[1:] != g[:-1]
    starts = np.flatnonzero(new_group)
    gnum = np.cumsum(new_group.astype(np.int64)) - 1
    rank_sorted = np.arange(n) - starts[gnum]
    rank[order] = rank_sorted
    return rank


def _admit_impl(node_id, axis, d, keys, B, c):
    """The per-tick admission resolve: one call, both capacity checks.

    Per (node, axis) link the top ``c[i]`` rows under ``keys`` are
    forwarded; per node the top ``B[i]`` leftovers are stored; everything
    else is left for the engine to delete.  ``B``/``c`` are per-row int64
    arrays (scalar networks broadcast before the call), which is what
    lets the stacked batch engine reuse the identical body.
    """
    n = node_id.shape[0]
    store = np.zeros(n, np.bool_)
    if n == 0:
        return np.zeros(n, np.bool_), store
    gid = node_id * d + axis
    fwd = _RANK(gid, keys) < c
    left = np.flatnonzero(~fwd)
    if left.size > 0:
        B_left = B[left]
        if np.any(B_left > 0):
            lrank = _RANK(node_id[left], keys[left])
            store[left[lrank < B_left]] = True
    return fwd, store


# -- dispatch -------------------------------------------------------------

_RANK = _rank_impl
_ADMIT = _admit_impl
_active = "numpy"
_compiled: dict = {}  # backend name -> (rank, admit) pair, built once


def _numba_pair():
    """Compile (once per process) and self-check the numba kernels."""
    if "numba" not in _compiled:
        from numba import njit

        rank = njit(cache=True)(_rank_impl)
        # bind the compiled rank before admit can compile: numba freezes
        # the _RANK global reference at admit's first compilation
        global _RANK
        previous = _RANK
        _RANK = rank
        try:
            admit = njit(cache=True)(_admit_impl)
            _self_check(rank, admit)
        finally:
            _RANK = previous
        _compiled["numba"] = (rank, admit)
    return _compiled["numba"]


def _self_check(rank, admit) -> None:
    """Run the candidate kernels on a fixed case against the plain bodies.

    A compiled kernel that cannot reproduce the numpy bodies exactly must
    never be activated -- bit-identity is the whole contract.
    """
    gid = np.array([2, 0, 2, 0, 1, 2], dtype=np.int64)
    keys = np.array(
        [[3, 0], [1, 5], [3, 1], [1, 2], [0, 0], [2, 9]], dtype=np.int64)
    axis = np.array([0, 1, 0, 1, 0, 0], dtype=np.int64)
    B = np.full(6, 1, dtype=np.int64)
    c = np.full(6, 1, dtype=np.int64)
    if not np.array_equal(rank(gid, keys), _rank_impl(gid, keys)):
        raise ValidationError("compiled grouped-rank kernel diverges from "
                              "the numpy body")
    # call with production argument types: this first call is what
    # triggers (and therefore pins) the lazy numba compilation
    got = admit(gid, axis, np.int64(2), keys, B, c)
    want = _admit_impl(gid, axis, np.int64(2), keys, B, c)
    if not (np.array_equal(got[0], want[0])
            and np.array_equal(got[1], want[1])):
        raise ValidationError("compiled admission kernel diverges from "
                              "the numpy body")


def resolve_kernel_name(name: str | None = None) -> str:
    """Resolve ``name`` > ``REPRO_KERNEL`` > ``auto`` to a concrete
    backend (``"numba"`` or ``"numpy"``).

    Unknown selectors raise; an explicit ``"numba"`` without a working
    numba raises too (the no-silent-fallback contract).  ``"auto"``
    degrades to ``"numpy"`` -- with a warning when numba imports but its
    kernels fail to compile or self-check.
    """
    raw = name if name is not None else \
        (os.environ.get(KERNEL_ENV_VAR) or "auto")
    if raw not in KERNEL_NAMES:
        raise ValidationError(
            f"unknown kernel {raw!r}; choose from {sorted(KERNEL_NAMES)}")
    if raw == "numpy":
        return "numpy"
    if not numba_available():
        if raw == "numba":
            raise ValidationError(
                "kernel 'numba' requested (REPRO_KERNEL or explicit) but "
                f"numba is not importable ({_numba_error}); install numba "
                "or select kernel 'numpy'")
        return "numpy"
    try:
        _numba_pair()
    except ValidationError:
        raise
    except Exception as exc:
        if raw == "numba":
            raise ValidationError(
                f"kernel 'numba' requested but the compiled kernels are "
                f"unusable ({type(exc).__name__}: {exc})") from exc
        warnings.warn(
            f"REPRO_KERNEL=auto: numba imports but its kernels failed to "
            f"compile ({type(exc).__name__}: {exc}); falling back to the "
            f"numpy kernel", RuntimeWarning, stacklevel=2)
        return "numpy"
    return "numba"


def activate(name: str | None = None) -> str:
    """Dispatch the kernel entry points to the resolved backend.

    Called once at import with the environment's choice; callable again
    (tests, :func:`using`) to re-dispatch at runtime.  Returns the
    concrete active name.
    """
    global _RANK, _ADMIT, _active
    concrete = resolve_kernel_name(name)
    if concrete == "numba":
        _RANK, _ADMIT = _numba_pair()
    else:
        _RANK, _ADMIT = _rank_impl, _admit_impl
    _active = concrete
    return concrete


def active_kernel() -> str:
    """The concrete backend currently serving the kernel entry points."""
    return _active


@contextmanager
def using(name: str):
    """Temporarily dispatch to ``name`` (``auto``/``numba``/``numpy``).

    Pooled ``run_batch`` workers re-activate from the kernel name the
    parent threads through the chunk args, so the context extends across
    the process pool; external workers (queue service, multi-host
    shards) are separate processes and read ``REPRO_KERNEL`` themselves.
    """
    previous = _active
    activate(name)
    try:
        yield _active
    finally:
        activate(previous)


# -- public entry points --------------------------------------------------


def _stack_keys(keys, n: int) -> np.ndarray:
    """Pack a key tuple (most significant first) into ``(n, k)`` int64."""
    out = np.empty((n, len(keys)), dtype=np.int64)
    for j, key in enumerate(keys):
        out[:, j] = key
    return out


def grouped_rank(gid, keys) -> np.ndarray:
    """Rank of each element within its ``gid`` group under ``keys``.

    ``keys`` is a tuple of int64 arrays, most significant first; every
    caller's key tuple ends in the unique ``rid``, so the order is total
    and the rank is deterministic.  Replaces the historical per-engine
    ``lexsort`` idiom with the selected kernel backend.
    """
    gid = np.ascontiguousarray(gid, dtype=np.int64)
    return _RANK(gid, _stack_keys(keys, gid.shape[0]))


def admit(node_id, axis, d: int, keys, B, c):
    """Resolve one tick's contention: ``(forward_mask, store_mask)``.

    Top ``c`` per (node, axis) forward, top ``B`` leftovers per node
    store -- the single hot loop of every array engine.  ``B``/``c`` may
    be scalars (per-scenario networks) or per-row arrays (the stacked
    batch facade); scalars are broadcast here so the kernel body is
    uniform.
    """
    node_id = np.ascontiguousarray(node_id, dtype=np.int64)
    axis = np.ascontiguousarray(axis, dtype=np.int64)
    n = node_id.shape[0]
    keys2d = _stack_keys(keys, n)
    B_rows = np.ascontiguousarray(B, dtype=np.int64) \
        if isinstance(B, np.ndarray) else np.full(n, B, dtype=np.int64)
    c_rows = np.ascontiguousarray(c, dtype=np.int64) \
        if isinstance(c, np.ndarray) else np.full(n, c, dtype=np.int64)
    return _ADMIT(node_id, axis, np.int64(d), keys2d, B_rows, c_rows)


def injection_order(arrival) -> np.ndarray:
    """Stable injection order: arrival time, ties by request position.

    The one shared definition of the stable-argsort injection idiom of
    the array loops (the stacked Model 1 loop behind ``FastEngine`` and
    ``FastBatchEngine``, and ``FastModel2Engine.run``).  Stability
    is load-bearing: requests revealed at the same step must enter the
    live set in request order, which every engine's status accounting
    assumes (pinned by ``tests/test_kernel.py``).
    """
    return np.argsort(np.asarray(arrival), kind="stable")


# import-time dispatch from the environment: a bad explicit selector
# fails loudly here, before any engine can run on the wrong kernel
activate()
