"""Worker loop for the pull-based sweep queue (:mod:`repro.api.queue`).

A :class:`QueueWorker` is the process that ``repro work`` runs: an
idle-loop around ``sweep expired leases -> claim chunks -> execute them
via run_batch -> write each chunk's result``.  While every scenario it
holds runs on the stacked engine, a worker claims more chunks, up to
:data:`HOLD_SCENARIOS` scenarios, and runs them as one ``run_batch``, so
the stacked engine sees one stack per hold, not one per chunk; chunks
that run per scenario are held one at a time, so several workers share
them.  The chunk stays the unit of claims, heartbeats, requeue and
results, and each chunk's result file carries its own slice of the
reports and of the cache accounting.  Workers are
fully symmetric -- no coordinator process exists; any worker sweeps
expired leases before claiming, so a dead worker's chunks are requeued
by whichever survivor looks next.

Everything timing-shaped is injectable (``clock``, ``sleep``,
``heartbeat_interval=0`` disables the background heartbeat thread), so
tests drive workers step-by-step against a fake clock and the chaos
suite can interleave two workers' claims deterministically.  Crash
injection is first-class: ``crash_after=k`` makes the worker execute
the first ``k`` scenarios of its next hold (caching their reports --
real partial progress) and then die, either by raising
:class:`WorkerCrash` (in-process tests) or ``os._exit`` (the CLI's
``REPRO_QUEUE_CRASH_AFTER`` knob, used by the CI chaos job), leaving
exactly the wreckage a kill -9 would: claimed chunk files whose mtimes
stop advancing, no result files.
"""

from __future__ import annotations

import os
import threading
import time

from repro.api.queue import (
    DEFAULT_TTL,
    WorkQueue,
    _chunk_name,
    default_worker_id,
)
from repro.api.spec import Scenario

#: scenarios one worker holds on the stacked engine: while every scenario
#: it holds stacks, :meth:`QueueWorker.step` claims chunks until it holds
#: at least this many (or nothing is pending) and runs them as one
#: stacked batch.  On one ``queue_sweep`` round (1000 small grids, cache
#: off) ``run_batch`` took 1.27-1.45 s in stacks of 8, 0.78-0.90 s in 16,
#: 0.50-0.56 s in 32, 0.40-0.43 s in 64 and 0.27 s in 250: 64 takes most
#: of the gain.  Unlike 64-scenario chunks, a hold stacks whatever
#: ``--chunk-size`` a sweep was enqueued with, and leaves per-scenario
#: queues (``bench_frontier``'s under ``REPRO_QUEUE``) small chunks that
#: several workers share.
HOLD_SCENARIOS = 64


def _stacks(scenario: Scenario, memo: dict) -> bool:
    """Whether ``run_batch`` runs ``scenario`` on the stacked engine;
    ``memo`` keeps the answer per engine and algorithm for one step."""
    from repro.api.run import _batch_reason
    from repro.network.engine import resolve_engine_name

    key = (scenario.engine, scenario.algorithm)
    if key not in memo:
        memo[key] = resolve_engine_name(scenario.engine) == "batch" \
            and _batch_reason(scenario) is None
    return memo[key]


class WorkerCrash(RuntimeError):
    """Raised by the in-process crash-injection mode (tests); the CLI
    mode uses ``os._exit`` so even ``finally`` blocks don't run --
    matching a real SIGKILL."""


class QueueWorker:
    """One pull worker bound to a queue directory.

    Parameters mirror ``run_batch`` where they overlap (``workers``,
    ``cache``, ``cache_dir``, ``compute_bound``).  ``ttl`` is both the
    expiry this worker applies when sweeping other workers' leases and
    the contract its own heartbeats must beat; ``heartbeat_interval``
    defaults to ``ttl / 4`` and ``0`` disables the heartbeat thread
    (tests; also fine for chunks that finish well inside the TTL).
    """

    def __init__(self, queue, worker_id: str | None = None, *,
                 ttl: float = DEFAULT_TTL, poll: float = 1.0,
                 heartbeat_interval: float | None = None,
                 workers: int | None = None, cache: str | None = None,
                 cache_dir=None, compute_bound: bool = True,
                 bound_method: str = "maxflow",
                 clock=time.time, sleep=time.sleep,
                 crash_after: int | None = None, crash_mode: str = "raise",
                 log=None):
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self.worker_id = worker_id or default_worker_id()
        self.ttl = float(ttl)
        self.poll = float(poll)
        self.heartbeat_interval = (self.ttl / 4 if heartbeat_interval is None
                                   else float(heartbeat_interval))
        self.workers = workers
        self.cache = cache
        self.cache_dir = cache_dir
        self.compute_bound = compute_bound
        self.bound_method = bound_method
        self.clock = clock
        self.sleep = sleep
        self.crash_after = crash_after
        self.crash_mode = crash_mode
        self.log = log or (lambda message: None)
        self.chunks_done = 0
        self._heartbeat_thread = None

    # -- one scheduling round --------------------------------------------

    def step(self, max_chunks: int | None = None) -> str:
        """One round: sweep expired leases, then claim chunks and execute
        them.  The worker claims one chunk, and more while every scenario
        it holds runs on the stacked engine, until it holds
        :data:`HOLD_SCENARIOS` scenarios, ``max_chunks`` chunks, or
        everything pending.  Returns
        ``"ran"`` (chunks were executed), ``"wait"`` (nothing claimable
        right now -- some chunks are leased out), or ``"drained"`` (every
        chunk has a result)."""
        for chunk in self.queue.requeue_expired(self.ttl, clock=self.clock):
            self.log(f"worker {self.worker_id}: requeued {chunk} "
                     "(lease expired)")
        held: list = []  # (manifest, its scenarios) per claimed chunk
        try:
            size, memo = 0, {}
            while max_chunks is None or len(held) < max_chunks:
                manifest = self.queue.claim(self.worker_id, clock=self.clock)
                if manifest is None:
                    break
                scenarios = [Scenario.from_dict(item["scenario"])
                             for item in manifest["scenarios"]]
                held.append((manifest, scenarios))
                size += len(scenarios)
                if size >= HOLD_SCENARIOS \
                        or not all(_stacks(s, memo) for s in scenarios):
                    break
        except BaseException:
            self._release([_chunk_name(m["shard_index"]) for m, _ in held])
            raise
        if not held:
            return "drained" if self.queue.is_drained() else "wait"
        self.execute(held)
        return "ran"

    def run(self, max_chunks: int | None = None) -> int:
        """Loop :meth:`step` until the queue drains (or ``max_chunks``
        chunks were executed by *this* worker); returns that count.  Each
        step claims at most the chunks left in the budget.  ``"wait"``
        rounds sleep ``poll`` seconds -- the idle wait also paces the
        expired-lease sweep that rescues crashed workers' chunks."""
        start = self.chunks_done
        while max_chunks is None or self.chunks_done - start < max_chunks:
            outcome = self.step(None if max_chunks is None
                                else max_chunks - (self.chunks_done - start))
            if outcome == "drained":
                break
            if outcome == "wait":
                self.sleep(self.poll)
        return self.chunks_done - start

    # -- chunk execution -------------------------------------------------

    def execute(self, held) -> None:
        """Execute held ``(manifest, scenarios)`` chunks as one
        ``run_batch`` and record each one's result: its own slice of the
        reports and of the cache accounting
        (:meth:`~repro.api.run.BatchResult.split`).

        The heartbeat thread (when enabled) refreshes every held lease on
        a real-time cadence while ``run_batch`` computes.  On any
        execution error every held chunk without a result yet is released
        back to ``pending`` before the error propagates -- an unlucky
        worker never strands a chunk for a full TTL, and a
        deterministically broken chunk fails loudly on every worker
        instead of disappearing.
        """
        from repro.api.run import run_batch

        chunks = [_chunk_name(m["shard_index"]) for m, _ in held]
        scenarios = [s for _, part in held for s in part]
        self.log(f"worker {self.worker_id}: claimed {', '.join(chunks)} "
                 f"({len(scenarios)} scenario(s))")
        stop = self._start_heartbeat(*chunks)
        done = 0
        try:
            if self.crash_after is not None:
                self._crash(scenarios)
            reports = run_batch(scenarios, workers=self.workers,
                                cache=self.cache, cache_dir=self.cache_dir,
                                compute_bound=self.compute_bound,
                                bound_method=self.bound_method)
            parts = reports.split(len(part) for _, part in held)
            for (manifest, _), part in zip(held, parts):
                self.queue.complete(manifest, part, self.worker_id)
                self.log(f"worker {self.worker_id}: completed {chunks[done]}")
                done += 1
                self.chunks_done += 1
        except WorkerCrash:
            raise  # leave the claims behind to go stale, like a kill
        except BaseException:
            self._release(chunks[done:])
            raise
        finally:
            if stop is not None:
                stop.set()

    def _release(self, chunks) -> None:
        for chunk in chunks:
            self.queue.release(chunk, self.worker_id)
        if chunks:
            self.log(f"worker {self.worker_id}: released {', '.join(chunks)} "
                     "after error")

    def _crash(self, scenarios) -> None:
        """Run the first ``crash_after`` held scenarios (their reports land
        in the cache -- genuine partial progress), then die mid-hold."""
        from repro.api.run import run_batch

        count = max(0, int(self.crash_after))
        self.crash_after = None  # one crash per arming, even in raise mode
        if count:
            run_batch(scenarios[:count], workers=self.workers,
                      cache=self.cache, cache_dir=self.cache_dir,
                      compute_bound=self.compute_bound,
                      bound_method=self.bound_method)
        self.log(f"worker {self.worker_id}: crashing after {count} "
                 "scenario(s)")
        if self.crash_mode == "exit":
            os._exit(1)
        raise WorkerCrash(
            f"worker {self.worker_id} crashed after {count} scenario(s)")

    def _start_heartbeat(self, *chunks):
        """Start one thread that stamps every held claim each interval; it
        drops a chunk once that claim is lost and exits when none is left.
        Returns the thread's stop event (``None`` when disabled)."""
        if self.heartbeat_interval <= 0:
            return None
        stop = threading.Event()
        held = list(chunks)

        def beat():
            while held and not stop.wait(self.heartbeat_interval):
                for chunk in list(held):
                    try:
                        owned = self.queue.heartbeat(chunk, self.worker_id,
                                                     clock=self.clock)
                    except OSError:
                        continue  # disk hiccup: the lease ages one interval
                    if not owned:
                        # completed, or requeued (false expiry) and possibly
                        # reclaimed by another worker -- this execution holds
                        # it no longer, so stop stamping it for good
                        held.remove(chunk)

        thread = threading.Thread(
            target=beat, name=f"heartbeat-{chunks[0]}", daemon=True)
        thread.start()
        self._heartbeat_thread = thread
        return stop
