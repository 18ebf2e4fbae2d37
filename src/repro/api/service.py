"""Worker loop for the pull-based sweep queue (:mod:`repro.api.queue`).

A :class:`QueueWorker` is the process that ``repro work`` runs: an
idle-loop around ``sweep expired leases -> claim a chunk -> execute via
run_batch -> write the result``.  Each chunk is one ``run_batch`` call,
so a chunk of stacked scenarios is one stack, and its result footer is
that call's cache accounting; :meth:`~repro.api.queue.WorkQueue.create`
sizes the chunks for the engine they run on.  Workers are fully
symmetric -- no coordinator process exists; any worker sweeps expired
leases before claiming, so a dead worker's chunks are requeued by
whichever survivor looks next.

Everything timing-shaped is injectable (``clock``, ``sleep``,
``heartbeat_interval=0`` disables the background heartbeat thread), so
tests drive workers step-by-step against a fake clock and the chaos
suite can interleave two workers' claims deterministically.  Crash
injection is first-class: ``crash_after=k`` makes the worker execute
``k`` scenarios of its next chunk (caching their reports -- real partial
progress) and then die, either by raising :class:`WorkerCrash`
(in-process tests) or ``os._exit`` (the CLI's ``REPRO_QUEUE_CRASH_AFTER``
knob, used by the CI chaos job), leaving exactly the wreckage a kill -9
would: a claimed chunk file whose mtime stops advancing, no result file.
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

    def step(self) -> str:
        """One round: sweep expired leases, then claim-and-execute one
        chunk.  Returns ``"ran"`` (a chunk was executed), ``"wait"``
        (nothing claimable right now -- some chunks are leased out), or
        ``"drained"`` (every chunk has a result)."""
        for chunk in self.queue.requeue_expired(self.ttl, clock=self.clock):
            self.log(f"worker {self.worker_id}: requeued {chunk} "
                     "(lease expired)")
        manifest = self.queue.claim(self.worker_id, clock=self.clock)
        if manifest is None:
            return "drained" if self.queue.is_drained() else "wait"
        self.execute(manifest)
        return "ran"

    def run(self, max_chunks: int | None = None) -> int:
        """Loop :meth:`step` until the queue drains (or ``max_chunks``
        chunks were executed by *this* worker); returns that count.
        ``"wait"`` rounds sleep ``poll`` seconds -- the idle wait also
        paces the expired-lease sweep that rescues crashed workers'
        chunks."""
        ran = 0
        while max_chunks is None or ran < max_chunks:
            outcome = self.step()
            if outcome == "ran":
                ran += 1
            elif outcome == "drained":
                break
            else:
                self.sleep(self.poll)
        return ran

    # -- chunk execution -------------------------------------------------

    def execute(self, manifest: dict) -> None:
        """Execute one claimed chunk and record its result.

        The heartbeat thread (when enabled) refreshes the lease on a
        real-time cadence while ``run_batch`` computes.  On any
        execution error the chunk is released back to ``pending`` before
        the error propagates -- an unlucky worker never strands a chunk
        for a full TTL, and a deterministically broken chunk fails
        loudly on every worker instead of disappearing.
        """
        from repro.api.run import run_batch

        chunk = _chunk_name(manifest["shard_index"])
        scenarios = [Scenario.from_dict(item["scenario"])
                     for item in manifest["scenarios"]]
        self.log(f"worker {self.worker_id}: claimed {chunk} "
                 f"({len(scenarios)} scenario(s))")
        stop = self._start_heartbeat(chunk)
        try:
            if self.crash_after is not None:
                self._crash(scenarios)
            reports = run_batch(scenarios, workers=self.workers,
                                cache=self.cache, cache_dir=self.cache_dir,
                                compute_bound=self.compute_bound,
                                bound_method=self.bound_method)
            self.queue.complete(manifest, reports, self.worker_id)
            self.chunks_done += 1
            self.log(f"worker {self.worker_id}: completed {chunk}")
        except WorkerCrash:
            raise  # leave the claim behind to go stale, like a kill
        except BaseException:
            self.queue.release(chunk, self.worker_id)
            self.log(f"worker {self.worker_id}: released {chunk} after error")
            raise
        finally:
            if stop is not None:
                stop.set()

    def _crash(self, scenarios) -> None:
        """Run the first ``crash_after`` scenarios (their reports land in
        the cache -- genuine partial progress), then die mid-chunk."""
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

    def _start_heartbeat(self, chunk: str):
        if self.heartbeat_interval <= 0:
            return None
        stop = threading.Event()

        def beat():
            while not stop.wait(self.heartbeat_interval):
                try:
                    owned = self.queue.heartbeat(chunk, self.worker_id,
                                                 clock=self.clock)
                except OSError:
                    continue  # disk hiccup: the lease ages one interval
                if not owned:
                    # completed, or requeued (false expiry) and possibly
                    # reclaimed by another worker -- this execution holds
                    # it no longer, so stand down for good
                    break

        thread = threading.Thread(
            target=beat, name=f"heartbeat-{chunk}", daemon=True)
        thread.start()
        self._heartbeat_thread = thread
        return stop
