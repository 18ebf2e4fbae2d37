"""Elastic sweep service: a filesystem-backed pull queue with leases.

:mod:`repro.api.dispatch` plans shards *ahead of time*; a straggler host
or a mid-run crash parks its whole shard until a human reruns it.  This
module is the elastic layer above the same primitives: a batch is
enqueued once as digest-ordered scenario **chunks** (each chunk is
literally a PR 5 shard manifest, so every downstream format is shared),
and any number of workers -- started at any time, on any host sharing
the queue directory -- *pull* chunks, execute them via ``run_batch``,
and append merge-compatible JSONL results.  Dead workers lose their
lease and their chunks are requeued automatically; the sweep finishes as
long as one worker survives.

Layout (everything under one queue directory)::

    queue.json                     immutable batch header (digest, size,
                                   chunking)
    pending/chunk_N.json           chunk manifests awaiting a worker
    claimed/chunk_N.<worker>.json  the lease: a manifest owned by
                                   <worker>, its mtime the last heartbeat
    results/chunk_N.jsonl          completed chunks (shard-result JSONL)

The claim protocol is a single ``os.rename(pending/X.json,
claimed/X.<worker>.json)``: atomic on POSIX, so exactly one of any number
of racing workers owns the chunk and the losers see ``FileNotFoundError``
and move on.  The claimed file is the whole lease.  Its name carries the
owner; its mtime, stamped with ``os.utime`` at the claim and again on a
heartbeat cadence, carries the liveness.  A heartbeat names the owner's
own file, so it fails once the chunk was requeued or reclaimed.  Any
process (typically an idle worker) may call :meth:`WorkQueue.
requeue_expired`, which renames claims whose mtime is older than the TTL
back into ``pending/``.  Completion is one atomic ``os.replace`` of the
result file followed by removing the claim -- a crash at *any* point
leaves either no result (the chunk is requeued and rerun) or a complete
one (the chunk is done).

Why duplicated execution is safe -- the invariant this service inherits
from PR 5 and ``tests/test_queue.py`` chaos-fuzzes: scenario reports are
pure functions of the scenario (bit-identical engines, self-seeded
randomness), so a false lease expiry (slow worker, not dead) at worst
runs a chunk twice and the last atomic result write wins with
equivalent content.  **Any execution history -- any worker count, any
crash/requeue interleaving -- merges bit-identical to the serial
``run_batch``.**  With a shared ``REPRO_CACHE`` the rerun of a
half-finished chunk replays its completed scenarios as cache hits, so
crashes cost at most one chunk's partial work.

Liveness caveat (deliberate): a chunk that *deterministically* raises
(e.g. a scenario too large for the stacked engine's size guard)
will fail on every worker that pulls it and bounce back to ``pending``
forever -- the queue never converts an error into a silent skip.
``enqueue``'s capability pre-check (mirroring ``sweep --shards``) is
the place broken scenarios are meant to be caught.

Command-line wiring: ``repro enqueue`` / ``repro work`` / ``repro
status`` / ``repro collect``; the multi-host recipe lives in
``benchmarks/README.md`` next to the static shard recipe.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import socket
import time
from dataclasses import dataclass, field

from repro.api.cache import CacheStats
from repro.api.dispatch import (
    _coerce_scenarios,
    load_manifest,
    plan_shards,
    write_manifest,
    write_shard_result,
)
from repro.api.run import BatchResult, _stacks
from repro.util import atomic_write
from repro.util.errors import ValidationError

QUEUE_KIND = "repro-queue"

#: layout version of a queue directory; 2 made the claimed file the lease
QUEUE_SCHEMA = 2

#: default lease TTL (seconds without a heartbeat before a chunk is
#: considered abandoned) and the matching heartbeat cadence divisor
DEFAULT_TTL = 60.0

#: scenarios per chunk when :meth:`WorkQueue.create` is given no chunk
#: size and some scenario runs per scenario: small enough that a crash
#: loses little and that several workers share a short sweep
DEFAULT_CHUNK_SIZE = 8

#: scenarios per chunk when :meth:`WorkQueue.create` is given no chunk
#: size and every scenario runs on the stacked engine, which runs a chunk
#: as one stack.  On one ``queue_sweep`` round (1000 small grids, cache
#: off) ``run_batch`` took 1.27-1.45 s in stacks of 8, 0.78-0.90 s in 16,
#: 0.50-0.56 s in 32, 0.40-0.43 s in 64 and 0.27 s in 250: 64 takes most
#: of the gain, and a sweep of S scenarios still keeps ceil(S / 64)
#: workers busy
STACKED_CHUNK_SIZE = 64


class QueueError(ValidationError):
    """A queue directory is malformed, incomplete, or already in use."""


def _chunk_name(index: int) -> str:
    return f"chunk_{index:05d}"


@dataclass
class QueueStatus:
    """Live snapshot of a queue: progress, leases, and cache accounting.

    ``chunks_active``/``chunks_expired`` split the claimed chunks by
    lease freshness against the given TTL; ``cache_stats`` aggregates
    the footers of every completed chunk (report hits/misses *and* the
    offline-bound tier), so ``repro status`` shows how much of the
    remaining work is real computation versus replay.
    """

    batch_digest: str
    batch_size: int
    n_chunks: int
    chunks_pending: int = 0
    chunks_active: int = 0
    chunks_expired: int = 0
    chunks_done: int = 0
    scenarios_done: int = 0
    workers: list = field(default_factory=list)  # (worker, chunk, hb age s)
    cache_stats: CacheStats | None = None

    @property
    def done(self) -> bool:
        return self.chunks_done == self.n_chunks

    def lines(self) -> list:
        """Stable, grep-friendly status lines (CI asserts on them)."""
        out = [
            f"batch {self.batch_digest}: {self.batch_size} scenario(s) in "
            f"{self.n_chunks} chunk(s)",
            f"chunks: total={self.n_chunks} pending={self.chunks_pending} "
            f"leased={self.chunks_active} expired={self.chunks_expired} "
            f"done={self.chunks_done}",
            f"scenarios: done={self.scenarios_done}/{self.batch_size}",
        ]
        for worker, chunk, age in self.workers:
            out.append(f"lease: {chunk} held by {worker} "
                       f"(heartbeat {age:.1f}s ago)")
        if self.cache_stats is not None:
            out.append(self.cache_stats.summary())
        return out


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkQueue:
    """One queue directory; every method is safe to call from any number
    of processes/hosts sharing the directory (atomicity via rename)."""

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.pending_dir = self.root / "pending"
        self.claimed_dir = self.root / "claimed"
        self.results_dir = self.root / "results"
        self._header: dict | None = None

    # -- creation and loading --------------------------------------------

    @classmethod
    def create(cls, root, scenarios, *, chunk_size: int | None = None,
               clock=time.time) -> "WorkQueue":
        """Enqueue a batch: plan digest-ordered chunks and populate the
        queue directory.

        Without a ``chunk_size`` the chunks hold :data:`STACKED_CHUNK_SIZE`
        scenarios when every scenario runs on the stacked engine (as
        ``run_batch`` decides it, ``REPRO_ENGINE`` of this process
        included), and :data:`DEFAULT_CHUNK_SIZE` otherwise.  Chunks come
        from :func:`repro.api.dispatch.plan_shards` with
        ``n_shards = ceil(len(scenarios) / chunk_size)`` -- so chunk
        manifests *are* shard manifests, chunk results *are* shard result
        files, and ``collect`` is a plain :func:`~repro.api.dispatch.
        merge` over the results directory.  Duplicate scenarios are
        rejected exactly like ``plan_shards`` does (``run_batch``
        deduplicates; deduplicate before enqueueing).

        Refuses to reuse a directory that already holds a queue (finished
        or not): requeueing is a new directory, never a silent overwrite.
        """
        if chunk_size is not None and chunk_size < 1:
            raise QueueError(f"chunk_size must be >= 1, got {chunk_size}")
        queue = cls(root)
        if queue.header_path.exists():
            raise QueueError(
                f"{queue.root} already holds a queue (batch "
                f"{queue.header().get('batch_digest')}); enqueue into a "
                "fresh directory")
        scenarios = _coerce_scenarios(scenarios)
        if chunk_size is None:
            chunk_size = STACKED_CHUNK_SIZE if all(_stacks(scenarios)) \
                else DEFAULT_CHUNK_SIZE
        n_chunks = max(1, math.ceil(len(scenarios) / chunk_size))
        manifests = plan_shards(scenarios, n_chunks)  # validates the batch
        for directory in (queue.pending_dir, queue.claimed_dir,
                          queue.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        sizes = {}
        for manifest in manifests:
            name = _chunk_name(manifest["shard_index"])
            sizes[name] = len(manifest["scenarios"])
            write_manifest(manifest, queue.pending_dir / f"{name}.json")
        header = {
            "kind": QUEUE_KIND,
            "schema": QUEUE_SCHEMA,
            "batch_digest": manifests[0]["batch_digest"],
            "batch_size": len(scenarios),
            "n_chunks": n_chunks,
            "chunk_size": chunk_size,
            "chunk_sizes": sizes,
            "created_at": float(clock()),
        }
        # the header is written last: its presence marks a fully enqueued
        # queue, so a crash mid-enqueue leaves a directory workers reject
        atomic_write(queue.header_path,
                     json.dumps(header, sort_keys=True) + "\n")
        queue._header = header
        return queue

    @property
    def header_path(self) -> pathlib.Path:
        return self.root / "queue.json"

    def header(self) -> dict:
        """The immutable batch header (cached after the first read)."""
        if self._header is None:
            try:
                header = json.loads(self.header_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise QueueError(
                    f"{self.root} is not a work queue (cannot read "
                    f"queue.json: {exc})") from None
            if not isinstance(header, dict) \
                    or header.get("kind") != QUEUE_KIND:
                raise QueueError(
                    f"{self.header_path} is not a queue header (expected "
                    f"kind={QUEUE_KIND!r})")
            if header.get("schema") != QUEUE_SCHEMA:
                raise QueueError(
                    f"{self.root} uses queue schema "
                    f"{header.get('schema')!r}; this version reads schema "
                    f"{QUEUE_SCHEMA}")
            self._header = header
        return self._header

    # -- claim / heartbeat / complete ------------------------------------

    def claim(self, worker: str, *, clock=time.time):
        """Atomically claim the next pending chunk; ``None`` when empty.

        The claim is one ``os.rename`` to ``claimed/<chunk>.<worker>.json``
        -- of any number of racing workers exactly one wins each chunk;
        losers skip to the next.  The winner then stamps the file's mtime
        with ``clock`` (refresh it with :meth:`heartbeat` while executing).
        Until the stamp lands the file keeps the manifest's older mtime
        (its enqueue, or its last heartbeat before a release or requeue),
        so a crash in that window leaves a claim that expires no later
        than one stamped just before the crash, and a sweep that read that
        mtime may requeue the chunk under the claimer, which then moves on
        to the next one.  ``worker`` names the file, so it must be
        non-empty and free of path separators.
        """
        if not worker or "/" in worker or os.sep in worker:
            raise QueueError(
                f"worker id {worker!r} must be non-empty and contain no "
                "path separator (it names the claimed chunk file)")
        self.header()  # reject non-queue directories before touching them
        for path in sorted(self.pending_dir.glob("chunk_*.json")):
            target = self._claim_path(path.stem, worker)
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another worker won this chunk
            try:
                self._stamp(target, clock)
                return load_manifest(target)
            except Exception:
                # never strand a chunk behind a stamp or reader error: put
                # it back before propagating (a corrupt manifest then fails
                # loudly on every worker rather than vanishing).  A file
                # already gone was requeued by a sweep: move on.
                if self._unclaim(target, path.stem):
                    raise
        return None

    def heartbeat(self, chunk: str, worker: str, *, clock=time.time) -> bool:
        """Refresh ``worker``'s lease on ``chunk``: stamp the mtime of its
        claimed file with ``clock``.

        Returns ``True`` when the lease was refreshed.  Once this worker's
        claim was falsely expired and requeued -- and possibly reclaimed,
        under another worker's file name -- its own file name is gone, the
        stamp fails, and the call returns ``False`` having touched nothing.
        A heartbeat thread should stand down for good on ``False`` (see
        :meth:`repro.api.service.QueueWorker._start_heartbeat`).
        """
        try:
            self._stamp(self._claim_path(chunk, worker), clock)
        except FileNotFoundError:
            return False
        return True

    def complete(self, manifest: dict, reports, worker: str) -> pathlib.Path:
        """Record ``worker``'s finished chunk: atomic result write, then
        removal of its claimed file.

        The result file lands with one ``os.replace`` *before* the claim is
        removed, so every crash window is safe: no result yet means the
        chunk will be requeued and rerun; a result present means the chunk
        is done and the stale claim is swept by the next
        :meth:`requeue_expired`.  Rewriting an existing result (duplicated
        execution after a false lease expiry) is harmless by bit-identity,
        and a worker that lost its claim removes nothing of the new
        owner's.
        """
        chunk = _chunk_name(manifest["shard_index"])
        path = write_shard_result(manifest, reports, self.result_path(chunk))
        self._remove(self._claim_path(chunk, worker))
        return path

    def release(self, chunk: str, worker: str) -> None:
        """Voluntarily return ``worker``'s claimed chunk to ``pending`` (a
        worker hitting an execution error calls this so the chunk is
        retried immediately instead of idling out a full TTL)."""
        self._unclaim(self._claim_path(chunk, worker), chunk)

    def requeue_expired(self, ttl: float = DEFAULT_TTL, *,
                        clock=time.time) -> list:
        """Requeue claimed chunks whose lease (claim mtime) is stale.

        Returns the chunk names moved back to ``pending/``.  A claimed
        chunk whose result file already exists is *finalized* instead
        (its owner died between the result write and the cleanup).
        Requeueing a live worker's chunk is safe, merely wasteful (see the
        module docstring), so every doubtful lease counts as expired (see
        :meth:`_claims`).
        """
        requeued = []
        for chunk, _, path, age in self._claims(ttl, clock):
            if self.result_path(chunk).exists():
                self._remove(path)
            elif age is None and self._unclaim(path, chunk):
                requeued.append(chunk)
        return requeued

    # -- progress --------------------------------------------------------

    def result_path(self, chunk: str) -> pathlib.Path:
        return self.results_dir / f"{chunk}.jsonl"

    def done_chunks(self) -> list:
        """Chunk names with a (complete-by-construction) result file."""
        return sorted(p.stem for p in self.results_dir.glob("chunk_*.jsonl"))

    def is_drained(self) -> bool:
        """True once every chunk has a result file (writes are atomic,
        so presence is completeness)."""
        return len(self.done_chunks()) == self.header()["n_chunks"]

    def status(self, ttl: float = DEFAULT_TTL, *,
               clock=time.time) -> QueueStatus:
        """Cheap live snapshot: counts directory entries and reads only
        each result file's footer (tail line), never the report bodies."""
        header = self.header()
        sizes = header.get("chunk_sizes", {})
        status = QueueStatus(
            batch_digest=header["batch_digest"],
            batch_size=header["batch_size"],
            n_chunks=header["n_chunks"],
        )
        done = self.done_chunks()
        status.chunks_done = len(done)
        status.scenarios_done = sum(sizes.get(chunk, 0) for chunk in done)
        status.chunks_pending = len(list(self.pending_dir.glob(
            "chunk_*.json")))
        for chunk, worker, _, age in self._claims(ttl, clock):
            if chunk in done:
                continue  # finished, cleanup pending
            if age is None:
                status.chunks_expired += 1
            else:
                status.chunks_active += 1
                status.workers.append((worker, chunk, age))
        totals: CacheStats | None = None
        for chunk in done:
            stats = self._result_footer_stats(chunk)
            if stats is not None:
                if totals is None:
                    totals = CacheStats()
                totals.add(stats)
        status.cache_stats = totals
        return status

    def collect(self) -> BatchResult:
        """Merge the completed chunks into the batch result.

        Raises :class:`QueueError` naming the unfinished chunks when the
        queue is not drained (run more workers, or wait), and inherits
        :class:`~repro.api.dispatch.ShardError`'s loudness for anything
        wrong with the result files themselves.  The merge streams each
        file (see :func:`~repro.api.dispatch.merge`).
        """
        from repro.api.dispatch import merge

        header = self.header()
        done = set(self.done_chunks())
        missing = [_chunk_name(i) for i in range(header["n_chunks"])
                   if _chunk_name(i) not in done]
        if missing:
            raise QueueError(
                f"queue {self.root} is not drained: chunk(s) "
                f"{', '.join(missing)} have no result yet (pending or "
                "leased); run 'repro work' until 'repro status' shows "
                "done=" + str(header["n_chunks"]))
        return merge(self.results_dir)

    # -- internals -------------------------------------------------------

    def _claim_path(self, chunk: str, worker: str) -> pathlib.Path:
        return self.claimed_dir / f"{chunk}.{worker}.json"

    def _claims(self, ttl: float, clock):
        """Yield ``(chunk, worker, path, age)`` for every claimed chunk in
        chunk order.

        ``age`` is the seconds since the claim's last stamp, or ``None``
        when the lease is expired: older than ``ttl``, or future-dated (the
        clock stepped backwards since the stamp; trusting it would hold a
        dead worker's lease alive past any TTL).  The clock is read after
        each stat, so a claim or heartbeat that lands during the scan is
        not future-dated.  Both readings are integer nanoseconds, so a
        stamp read back at the same clock reading has age 0, never a
        rounding error's worth of future.
        """
        for path in sorted(self.claimed_dir.glob("chunk_*.json")):
            chunk, _, worker = path.name[:-len(".json")].partition(".")
            try:
                stamp = path.stat().st_mtime_ns
            except FileNotFoundError:
                continue  # completed, released or requeued since the listing
            age = round(clock() * 1e9) - stamp
            yield chunk, worker, path, (age / 1e9 if 0 <= age <= ttl * 1e9
                                        else None)

    @staticmethod
    def _stamp(path: pathlib.Path, clock) -> None:
        now = round(clock() * 1e9)
        os.utime(path, ns=(now, now))

    def _unclaim(self, path: pathlib.Path, chunk: str) -> bool:
        """Rename a claimed file back to ``pending/``; ``False`` when it is
        already gone (completed, released or requeued meanwhile)."""
        try:
            os.rename(path, self.pending_dir / f"{chunk}.json")
        except FileNotFoundError:
            return False
        return True

    def _result_footer_stats(self, chunk: str) -> CacheStats | None:
        """Parse only the footer (tail line) of one result file."""
        try:
            with open(self.result_path(chunk), "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - 65536))
                tail = handle.read().decode("utf-8", "replace")
        except OSError:
            return None
        lines = [line for line in tail.splitlines() if line.strip()]
        if not lines:
            return None
        try:
            footer = json.loads(lines[-1])
        except json.JSONDecodeError:
            return None
        stats = footer.get("cache_stats") if isinstance(footer, dict) else None
        if not isinstance(stats, dict):
            return None
        try:
            return CacheStats(**stats)
        except TypeError:
            return None

    def _remove(self, path: pathlib.Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass
