"""Chaos suite for the elastic sweep service (repro.api.queue/service).

The queue inherits the dispatch layer's headline guarantee and must keep
it under *elastic* execution: **any execution history -- any worker
count, any crash/requeue interleaving, any lease contention -- collects
to the serial ``run_batch`` report-for-report** (same measurements, same
``meta``; and for clean histories with a fresh cache, the same aggregate
cache accounting).  Hypothesis drives randomized worker interleavings
with a crash injected at a random point to hunt for counterexamples;
the deterministic tests pin down the lease state machine itself --
atomic claims, heartbeats, TTL expiry, crash-safe requeue, and the
both-workers-finish-the-same-chunk race a false expiry produces.

Everything timing-shaped runs against a fake clock and inline sleeps
(``heartbeat_interval=0``), so no test here waits on wall time.
"""

from __future__ import annotations

import json
import sys
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import (
    NetworkSpec,
    QueueError,
    Scenario,
    WorkloadSpec,
    run_batch,
)
from repro.api import queue as queue_module
from repro.api.queue import (
    DEFAULT_CHUNK_SIZE,
    QUEUE_SCHEMA,
    STACKED_CHUNK_SIZE,
    WorkQueue,
)
from repro.api.run import RunReport
from repro.api.service import QueueWorker, WorkerCrash


def scenario(seed=0, algorithm="ntg", n=12, num=16, engine=None):
    """A cheap runnable scenario (greedy family on a small line)."""
    return Scenario(
        network=NetworkSpec("line", (n,), 2, 2),
        workload=WorkloadSpec("uniform", {"num": num, "horizon": n}),
        algorithm=algorithm,
        horizon=4 * n,
        seed=seed,
        engine=engine,
    )


def small_batch(n_seeds=3, algorithms=("ntg", "greedy"), engine=None):
    return [scenario(seed=s, algorithm=a, engine=engine)
            for s in range(n_seeds) for a in algorithms]


class FakeClock:
    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_worker(queue, worker_id, clock, cache_dir=None, **kwargs):
    """A step-driven worker: no heartbeat thread, no real sleeps, cache
    off unless a directory is given (the ambient REPRO_CACHE must never
    leak into these assertions)."""
    cache = "off" if cache_dir is None else "readwrite"
    kwargs.setdefault("heartbeat_interval", 0)
    kwargs.setdefault("poll", 0)
    kwargs.setdefault("sleep", lambda seconds: None)
    return QueueWorker(queue, worker_id, clock=clock, cache=cache,
                       cache_dir=cache_dir, **kwargs)


class TestEnqueue:
    def test_layout_and_header(self, tmp_path):
        batch = small_batch()
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        header = queue.header()
        assert header["batch_size"] == len(batch)
        assert header["n_chunks"] == 3
        assert sorted(p.name for p in queue.pending_dir.iterdir()) == [
            "chunk_00000.json", "chunk_00001.json", "chunk_00002.json"]
        assert list(queue.claimed_dir.iterdir()) == []
        assert list(queue.results_dir.iterdir()) == []
        assert sum(header["chunk_sizes"].values()) == len(batch)

    def test_chunking_is_deterministic(self, tmp_path):
        batch = small_batch()
        a = WorkQueue.create(tmp_path / "a", batch, chunk_size=2)
        b = WorkQueue.create(tmp_path / "b", batch, chunk_size=2)
        for name in ("chunk_00000.json", "chunk_00001.json"):
            assert (a.pending_dir / name).read_text() \
                == (b.pending_dir / name).read_text()
        assert a.header()["batch_digest"] == b.header()["batch_digest"]

    def test_refuses_existing_queue(self, tmp_path):
        WorkQueue.create(tmp_path / "q", small_batch())
        with pytest.raises(QueueError, match="already holds a queue"):
            WorkQueue.create(tmp_path / "q", small_batch())

    def test_rejects_bad_chunk_size_and_duplicates(self, tmp_path):
        with pytest.raises(QueueError, match="chunk_size"):
            WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=0)
        from repro.api import ShardError

        with pytest.raises(ShardError, match="duplicate scenario"):
            WorkQueue.create(tmp_path / "q2", [scenario(), scenario()])

    def test_non_queue_directory_rejected(self, tmp_path):
        with pytest.raises(QueueError, match="not a work queue"):
            WorkQueue(tmp_path).claim("w")
        with pytest.raises(QueueError, match="not a work queue"):
            WorkQueue(tmp_path).status()

    def test_refuses_other_queue_schema(self, tmp_path):
        """A queue laid out by another version (schema 1 kept its leases
        in a ``leases/`` directory) is refused, naming both schemas."""
        WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        path = tmp_path / "q" / "queue.json"
        header = json.loads(path.read_text())
        assert header["schema"] == QUEUE_SCHEMA == 2
        path.write_text(json.dumps(dict(header, schema=1)))
        for call in (lambda q: q.claim("w"), lambda q: q.status()):
            with pytest.raises(QueueError, match="uses queue schema 1; this "
                               "version reads schema 2"):
                call(WorkQueue(tmp_path / "q"))


def claimed(queue) -> list:
    """The claimed directory's listing: one ``<chunk>.<worker>.json`` file
    per lease."""
    return sorted(p.name for p in queue.claimed_dir.iterdir())


def holders(queue, clock, ttl=60) -> list:
    return [(worker, chunk) for worker, chunk, _ in
            queue.status(ttl=ttl, clock=clock).workers]


class TestLeaseStateMachine:
    def test_claims_are_exclusive_and_ordered(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        first = queue.claim("a", clock=clock)
        second = queue.claim("b", clock=clock)
        third = queue.claim("a", clock=clock)
        assert [m["shard_index"] for m in (first, second, third)] == [0, 1, 2]
        assert queue.claim("b", clock=clock) is None
        assert claimed(queue) == ["chunk_00000.a.json", "chunk_00001.b.json",
                                  "chunk_00002.a.json"]
        assert holders(queue, clock) == [
            ("a", "chunk_00000"), ("b", "chunk_00001"), ("a", "chunk_00002")]

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        queue.claim("a", clock=clock)
        clock.advance(5)
        assert queue.heartbeat("chunk_00000", "a", clock=clock) is True
        clock.advance(6)  # 11s since claim, 6s since heartbeat
        assert queue.requeue_expired(ttl=8, clock=clock) == []
        assert queue.status(ttl=8, clock=clock).workers == [
            ("a", "chunk_00000", 6.0)]
        clock.advance(5)  # 11s since heartbeat
        assert queue.requeue_expired(ttl=8, clock=clock) == ["chunk_00000"]
        assert (queue.pending_dir / "chunk_00000.json").exists()
        assert claimed(queue) == []

    def test_heartbeat_is_noop_without_lease_ownership(self, tmp_path):
        """After a false expiry and requeue, the old worker's heartbeat
        must not touch the new claimant's lease (or resurrect a lease
        for a chunk it no longer holds)."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        queue.claim("a", clock=clock)
        assert queue.heartbeat("chunk_00000", "a", clock=clock) is True
        # a stalls long enough to be presumed dead; its chunk is requeued
        clock.advance(100)
        assert queue.requeue_expired(ttl=8, clock=clock) == ["chunk_00000"]
        assert queue.heartbeat("chunk_00000", "a", clock=clock) is False
        assert claimed(queue) == []  # no resurrection
        # b reclaims; a's late heartbeats leave b's lease untouched
        assert queue.claim("b", clock=clock)["shard_index"] == 0
        clock.advance(5)
        assert queue.heartbeat("chunk_00000", "a", clock=clock) is False
        assert claimed(queue) == ["chunk_00000.b.json"]
        assert queue.status(ttl=8, clock=clock).workers == [
            ("b", "chunk_00000", 5.0)]
        # the rightful owner still refreshes normally
        assert queue.heartbeat("chunk_00000", "b", clock=clock) is True
        assert queue.status(ttl=8, clock=clock).workers == [
            ("b", "chunk_00000", 0.0)]

    def test_stale_heartbeat_leaves_new_owner_mtime(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        queue.claim("a", clock=clock)
        clock.advance(100)
        queue.requeue_expired(ttl=8, clock=clock)
        queue.claim("b", clock=clock)
        lease = queue.claimed_dir / "chunk_00000.b.json"
        before = lease.stat().st_mtime_ns
        assert before == 100 * 10**9
        clock.advance(3)
        assert queue.heartbeat("chunk_00000", "a", clock=clock) is False
        assert lease.stat().st_mtime_ns == before

    def test_heartbeat_thread_stands_down_after_lease_loss(self, tmp_path):
        """The service's heartbeat thread exits for good once its lease
        is gone, instead of beating on a name that never returns."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        queue.claim("a", clock=clock)
        worker = make_worker(queue, "a", clock, heartbeat_interval=0.05)
        stop = worker._start_heartbeat("chunk_00000")
        try:
            # steal the lease before the thread's first beat fires
            clock.advance(100)
            queue.requeue_expired(ttl=8, clock=clock)
            queue.claim("b", clock=clock)
            worker._heartbeat_thread.join(timeout=5.0)
            assert not worker._heartbeat_thread.is_alive()
            assert holders(queue, clock) == [("b", "chunk_00000")]
        finally:
            stop.set()

    def test_backwards_clock_step_counts_as_expired(self, tmp_path):
        """A wall clock stepping backwards leaves the claim's mtime
        future-dated; trusting it would hold a dead worker's lease alive
        past any TTL, so it must classify as stale (requeue is always
        safe, a live owner merely reruns)."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock(start=1000.0)
        queue.claim("a", clock=clock)
        clock.now = 500.0  # NTP / VM-restore style backwards jump
        status = queue.status(ttl=10_000, clock=clock)
        assert status.chunks_expired == 1 and status.chunks_active == 0
        assert queue.requeue_expired(ttl=10_000, clock=clock) \
            == ["chunk_00000"]
        assert (queue.pending_dir / "chunk_00000.json").exists()

    def test_stamp_during_a_sweep_is_not_future_dated(self, tmp_path):
        """Another worker's heartbeat may land between a sweep's clock
        reading and its stat of that claim; the sweep must not read it as
        future-dated and requeue a live worker's chunk."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        queue.claim("a", clock=FakeClock(99.0))
        now = [100.0]

        def sweep_clock():
            reading = now[0]
            now[0] += 1.0  # a's heartbeat lands just after this reading
            queue.heartbeat("chunk_00000", "a", clock=lambda: now[0])
            return reading

        assert queue.requeue_expired(ttl=30, clock=sweep_clock) == []
        assert claimed(queue) == ["chunk_00000.a.json"]
        status = queue.status(ttl=30, clock=sweep_clock)
        assert (status.chunks_active, status.chunks_expired) == (1, 0)

    def test_unrefreshed_claim_counts_as_expired(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        queue.claim("a", clock=clock)
        clock.advance(60)
        assert queue.requeue_expired(ttl=60, clock=clock) == []
        clock.advance(1e-3)
        status = queue.status(ttl=60, clock=clock)
        assert (status.chunks_active, status.chunks_expired) == (0, 1)
        assert queue.requeue_expired(ttl=60, clock=clock) == ["chunk_00000"]

    def test_crash_between_rename_and_stamp_reads_as_expired(self, tmp_path):
        """A claim whose mtime stamp never landed keeps the manifest's
        enqueue mtime, so it reads as expired no later than one TTL after
        the enqueue -- or at once, when that mtime is future-dated."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        pending = queue.pending_dir / "chunk_00000.json"
        enqueued = pending.stat().st_mtime_ns / 1e9
        pending.rename(queue.claimed_dir / "chunk_00000.a.json")
        for now in (enqueued - 1, enqueued + 61):
            status = queue.status(ttl=60, clock=FakeClock(now))
            assert (status.chunks_active, status.chunks_expired) == (0, 1)
        assert queue.requeue_expired(ttl=60, clock=FakeClock(enqueued + 61)) \
            == ["chunk_00000"]
        assert queue.claim("b", clock=FakeClock())["shard_index"] == 0

    @pytest.mark.parametrize("swept_before_stamp", [True, False])
    def test_claim_moves_on_when_a_sweep_takes_it(
            self, tmp_path, monkeypatch, swept_before_stamp):
        """A sweep that read the claim's old mtime may requeue it before
        the stamp lands, or just after (it listed the file before); the
        claimer moves on to the next chunk either way."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        stamp = WorkQueue._stamp

        def racing_sweep(path, clock):
            if not swept_before_stamp:
                stamp(path, clock)
            if path.name == "chunk_00000.a.json":
                path.rename(queue.pending_dir / "chunk_00000.json")
            if swept_before_stamp:
                stamp(path, clock)

        monkeypatch.setattr(WorkQueue, "_stamp", staticmethod(racing_sweep))
        assert queue.claim("a", clock=FakeClock())["shard_index"] == 1
        assert claimed(queue) == ["chunk_00001.a.json"]
        assert sorted(p.name for p in queue.pending_dir.iterdir()) == [
            "chunk_00000.json", "chunk_00002.json"]

    def test_claim_puts_the_chunk_back_when_the_stamp_fails(
            self, tmp_path, monkeypatch):
        """Setting an mtime to a given time needs the file's owner; a
        worker refused it fails loudly and strands nothing."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)

        def refused(path, clock):
            raise PermissionError(1, "Operation not permitted", str(path))

        monkeypatch.setattr(WorkQueue, "_stamp", staticmethod(refused))
        with pytest.raises(PermissionError):
            queue.claim("a", clock=FakeClock())
        assert claimed(queue) == []
        assert len(list(queue.pending_dir.iterdir())) == 3

    def test_worker_id_must_name_a_file(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        for worker in ("", "a/b", "/"):
            with pytest.raises(QueueError, match="worker id"):
                queue.claim(worker, clock=FakeClock())
        assert len(list(queue.pending_dir.iterdir())) == 3

    def test_completed_but_uncleaned_chunk_is_finalized(self, tmp_path):
        """A worker that died between the result write and the claim
        cleanup left a done chunk behind a claim: the sweep finalizes it
        instead of requeueing (the result file is authoritative)."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        manifest = queue.claim("a", clock=clock)
        reports = run_batch([Scenario.from_dict(i["scenario"])
                             for i in manifest["scenarios"]], cache="off")
        from repro.api.dispatch import write_shard_result

        write_shard_result(manifest, reports,
                           queue.result_path("chunk_00000"))
        clock.advance(1000)
        assert queue.requeue_expired(ttl=1, clock=clock) == []
        assert claimed(queue) == []
        assert not (queue.pending_dir / "chunk_00000.json").exists()
        assert "chunk_00000" in queue.done_chunks()

    def test_release_returns_chunk_immediately(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        queue.claim("a", clock=clock)
        queue.release("chunk_00000", "b")  # not b's to release
        assert claimed(queue) == ["chunk_00000.a.json"]
        queue.release("chunk_00000", "a")
        assert (queue.pending_dir / "chunk_00000.json").exists()
        assert claimed(queue) == []
        assert queue.claim("b", clock=clock)["shard_index"] == 0

    def test_worker_releases_chunk_on_execution_error(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        worker = make_worker(queue, "a", clock)
        queue.complete = lambda *args: (_ for _ in ()).throw(
            RuntimeError("disk full"))
        with pytest.raises(RuntimeError, match="disk full"):
            worker.step()
        assert (queue.pending_dir / "chunk_00000.json").exists()
        assert list(queue.claimed_dir.iterdir()) == []


class TestWorkerLoop:
    def test_single_worker_drains_and_matches_serial(self, tmp_path):
        batch = small_batch()
        serial = run_batch(batch, cache="off")
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        worker = make_worker(queue, "solo", FakeClock())
        assert worker.run() == 3
        assert queue.is_drained()
        assert worker.step() == "drained"
        merged = queue.collect()
        assert list(merged) == list(serial)
        assert [r.meta for r in merged] == [r.meta for r in serial]

    def test_drain_leaves_only_the_queue_layout(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        make_worker(queue, "solo", FakeClock()).run()
        assert sorted(p.name for p in queue.root.iterdir()) == [
            "claimed", "pending", "queue.json", "results"]
        assert list(queue.pending_dir.iterdir()) == claimed(queue) == []
        assert sorted(p.name for p in queue.results_dir.iterdir()) == [
            "chunk_00000.jsonl", "chunk_00001.jsonl", "chunk_00002.jsonl"]

    def test_step_waits_while_others_hold_live_leases(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=6)
        clock = FakeClock()
        queue.claim("other", clock=clock)  # the only chunk, lease fresh
        worker = make_worker(queue, "idle", clock, ttl=60)
        assert worker.step() == "wait"

    def test_clean_history_cache_stats_equal_serial(self, tmp_path):
        """No crashes, fresh caches on both sides: the collected batch
        reproduces the serial aggregate cache accounting exactly --
        including the PR 6 offline-bound tier."""
        batch = small_batch()
        serial = run_batch(batch, cache="readwrite",
                           cache_dir=tmp_path / "serial_cache")
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        worker = make_worker(queue, "solo", FakeClock(),
                             cache_dir=tmp_path / "queue_cache")
        worker.run()
        merged = queue.collect()
        assert list(merged) == list(serial)
        assert vars(merged.cache_stats) == vars(serial.cache_stats)
        assert merged.cache_stats.bound_misses > 0  # the tier is live


class TestCrashRequeue:
    def test_crash_midchunk_requeues_and_collects_serial(self, tmp_path):
        """A worker dies after executing (and caching) one scenario of
        its chunk.  The lease expires, a second worker requeues and
        reruns the chunk -- replaying the crashed worker's partial
        progress from the shared cache -- and the collected batch equals
        the serial run with exactly accounted hits/misses."""
        batch = small_batch()
        serial = run_batch(batch, cache="off")
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        clock = FakeClock()
        cache_dir = tmp_path / "cache"

        crasher = make_worker(queue, "crasher", clock, cache_dir=cache_dir,
                              crash_after=1)
        with pytest.raises(WorkerCrash):
            crasher.step()
        assert list(queue.results_dir.iterdir()) == []
        assert claimed(queue) == ["chunk_00000.crasher.json"]

        # within the TTL nothing moves; past it the rescuer requeues
        rescuer = make_worker(queue, "rescuer", clock, cache_dir=cache_dir,
                              ttl=30)
        clock.advance(31)
        assert rescuer.run() == 3
        assert queue.is_drained()

        merged = queue.collect()
        assert list(merged) == list(serial)
        assert [r.meta for r in merged] == [r.meta for r in serial]
        stats = merged.cache_stats
        n = len(batch)
        assert (stats.hits, stats.misses, stats.stores) == (1, n - 1, n - 1)

    def test_false_expiry_duplicate_execution_is_harmless(self, tmp_path):
        """The race the TTL cannot rule out: a slow-but-alive worker
        loses its lease, another worker reruns the chunk, and *both*
        complete it.  Bit-identity makes the duplicate write a no-op;
        the collected batch still equals serial."""
        batch = small_batch()
        serial = run_batch(batch, cache="off")
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        clock = FakeClock()

        slow = queue.claim("slow", clock=clock)
        clock.advance(1000)  # slow never heartbeats; lease long dead
        fast = make_worker(queue, "fast", clock, ttl=30)
        assert fast.run() == 3  # includes the requeued chunk_00000
        assert queue.is_drained()

        # the slow worker wakes up and finishes the same chunk anyway
        reports = run_batch([Scenario.from_dict(i["scenario"])
                             for i in slow["scenarios"]], cache="off")
        queue.complete(slow, reports, "slow")

        assert queue.is_drained()
        assert list(queue.claimed_dir.iterdir()) == []
        merged = queue.collect()
        assert list(merged) == list(serial)

    def test_crash_between_result_and_cleanup(self, tmp_path):
        """Death in the completion window (result written, markers not
        yet removed) must not rerun the chunk: the sweep finalizes it
        and the queue drains without duplicate work."""
        batch = small_batch()
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        clock = FakeClock()
        manifest = queue.claim("victim", clock=clock)
        from repro.api.dispatch import write_shard_result

        write_shard_result(
            manifest,
            run_batch([Scenario.from_dict(i["scenario"])
                       for i in manifest["scenarios"]], cache="off"),
            queue.result_path("chunk_00000"))
        # the claim still on disk: exactly the wreckage of that crash
        clock.advance(1000)
        survivor = make_worker(queue, "survivor", clock, ttl=30)
        assert survivor.run() == 2  # the other two chunks only
        assert queue.is_drained()
        assert list(queue.collect()) == list(run_batch(batch, cache="off"))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much,
                                 HealthCheck.data_too_large])
@given(
    seeds=st.lists(st.integers(0, 6), min_size=1, max_size=6, unique=True),
    chunk_size=st.integers(1, 4),
    schedule=st.lists(st.integers(0, 2), min_size=1, max_size=40),
    crash_at=st.integers(0, 5),
    crash_progress=st.integers(0, 3),
)
def test_chaos_histories_collect_serial(seeds, chunk_size, schedule,
                                        crash_at, crash_progress):
    """The headline invariant, fuzzed: three workers sharing one cache
    interleave claims in a random order, one of them crashes mid-chunk
    at a random point with random partial progress, leases expire at
    random times (every idle step advances the clock past the TTL) --
    and whatever history results, the collected batch equals the serial
    ``run_batch`` report-for-report, including ``meta``."""
    batch = [scenario(seed=s, algorithm=a)
             for s in seeds for a in ("ntg", "greedy")]
    serial = run_batch(batch, cache="off")
    with tempfile.TemporaryDirectory() as tmp:
        import pathlib

        root = pathlib.Path(tmp)
        queue = WorkQueue.create(root / "q", batch, chunk_size=chunk_size)
        clock = FakeClock()
        cache_dir = root / "cache"
        workers = [make_worker(queue, f"w{i}", clock, cache_dir=cache_dir,
                               ttl=10)
                   for i in range(3)]
        steps = 0
        for turn in schedule:
            worker = workers[turn]
            if steps == crash_at:
                worker.crash_after = crash_progress
            try:
                outcome = worker.step()
            except WorkerCrash:
                outcome = "crashed"
            steps += 1
            if outcome in ("wait", "crashed"):
                clock.advance(11)  # beyond the TTL: stale leases expire
            if queue.is_drained():
                break
        # the schedule may end mid-flight; one worker mops up
        finisher = make_worker(queue, "finisher", clock, cache_dir=cache_dir,
                               ttl=10,
                               sleep=lambda seconds: clock.advance(11))
        finisher.run()
        assert queue.is_drained()
        merged = queue.collect()
    assert list(merged) == list(serial)
    assert [r.meta for r in merged] == [r.meta for r in serial]
    assert merged.cache_stats.lookups >= len(batch)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much,
                                 HealthCheck.data_too_large])
@given(
    seeds=st.lists(st.integers(0, 6), min_size=1, max_size=6, unique=True),
    stacked_size=st.integers(1, 4),
    default_size=st.integers(1, 4),
    stacked=st.lists(st.booleans(), min_size=12, max_size=12),
    schedule=st.lists(st.integers(0, 2), min_size=1, max_size=40),
    crash_at=st.integers(0, 5),
    crash_progress=st.integers(0, 3),
)
def test_chaos_histories_with_chosen_chunk_sizes_collect_serial(
        seeds, stacked_size, default_size, stacked, schedule, crash_at,
        crash_progress):
    """The chaos history above, enqueued with no chunk size: each
    scenario is drawn on the stacked engine or not, and the two sizes
    ``WorkQueue.create`` chooses between are drawn too (1-4 scenarios),
    so all-stacked batches are cut by one and mixed batches by the other
    -- and the collected batch still equals the serial ``run_batch``
    report-for-report, including ``meta``."""
    batch = [scenario(seed=s, algorithm=a,
                      engine="batch" if stacked[2 * i + j] else None)
             for i, s in enumerate(seeds)
             for j, a in enumerate(("ntg", "greedy"))]
    serial = run_batch(batch, cache="off")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(queue_module, "STACKED_CHUNK_SIZE",
                              stacked_size), \
            mock.patch.object(queue_module, "DEFAULT_CHUNK_SIZE",
                              default_size):
        import pathlib

        root = pathlib.Path(tmp)
        queue = WorkQueue.create(root / "q", batch)
        assert queue.header()["chunk_size"] == (
            stacked_size if all(s.engine == "batch" for s in batch)
            else default_size)
        clock = FakeClock()
        cache_dir = root / "cache"
        workers = [make_worker(queue, f"w{i}", clock, cache_dir=cache_dir,
                               ttl=10)
                   for i in range(3)]
        for steps, turn in enumerate(schedule):
            worker = workers[turn]
            if steps == crash_at:
                worker.crash_after = crash_progress
            try:
                outcome = worker.step()
            except WorkerCrash:
                outcome = "crashed"
            if outcome in ("wait", "crashed"):
                clock.advance(11)  # beyond the TTL: stale leases expire
            if queue.is_drained():
                break
        finisher = make_worker(queue, "finisher", clock, cache_dir=cache_dir,
                               ttl=10,
                               sleep=lambda seconds: clock.advance(11))
        finisher.run()
        assert queue.is_drained()
        merged = queue.collect()
    assert list(merged) == list(serial)
    assert [r.meta for r in merged] == [r.meta for r in serial]
    assert merged.cache_stats.lookups >= len(batch)


EDD_ADAPTER = {"name": "edd", "params": {"adapter": True}}


class TestChunkSizing:
    """Without a chunk size, ``WorkQueue.create`` cuts a batch whose every
    scenario runs on the stacked engine into ``STACKED_CHUNK_SIZE``
    chunks, and any other batch into ``DEFAULT_CHUNK_SIZE`` chunks."""

    @staticmethod
    def chunk_size(root, batch, **kwargs) -> int:
        return WorkQueue.create(root, batch, **kwargs).header()["chunk_size"]

    def test_all_stacked_batch_gets_stacked_chunks(self, tmp_path,
                                                   monkeypatch):
        assert self.chunk_size(tmp_path / "explicit",
                               small_batch(engine="batch")) \
            == STACKED_CHUNK_SIZE == 64
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        queue = WorkQueue.create(tmp_path / "env", small_batch())
        assert queue.header()["chunk_size"] == STACKED_CHUNK_SIZE
        assert queue.header()["n_chunks"] == 1

    @pytest.mark.parametrize("odd", [
        scenario(seed=9, algorithm="greedy"),
        scenario(seed=9, algorithm="greedy", engine="reference"),
        scenario(seed=9, algorithm="greedy", engine="fast"),
        scenario(seed=9, algorithm="det", engine="batch"),
        scenario(seed=9, algorithm=EDD_ADAPTER, engine="batch"),
    ], ids=["default", "reference", "fast", "det-batch", "edd-adapter-batch"])
    def test_any_per_scenario_scenario_gets_default_chunks(self, tmp_path,
                                                           odd):
        batch = small_batch(engine="batch") + [odd]
        assert self.chunk_size(tmp_path / "q", batch) \
            == DEFAULT_CHUNK_SIZE == 8

    def test_explicit_chunk_size_wins(self, tmp_path):
        assert self.chunk_size(tmp_path / "stacked",
                               small_batch(engine="batch"), chunk_size=2) == 2
        queue = WorkQueue.create(tmp_path / "plain", small_batch(),
                                 chunk_size=100)
        assert queue.header()["chunk_size"] == 100
        assert queue.header()["n_chunks"] == 1

    def test_batch_reason_runs_once_per_engine_and_algorithm(
            self, tmp_path, monkeypatch):
        """The predicate is memoized per (engine, algorithm) pair: 12
        scenarios over two engines that both resolve to ``batch`` and two
        algorithms ask ``_batch_reason`` four times."""
        run_module = sys.modules["repro.api.run"]
        asked = []
        original = run_module._batch_reason

        def counting(one):
            asked.append((one.engine, one.algorithm.name))
            return original(one)

        monkeypatch.setattr(run_module, "_batch_reason", counting)
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        batch = small_batch(engine="batch") \
            + [s.replace(seed=s.seed + 3) for s in small_batch()]
        assert self.chunk_size(tmp_path / "q", batch) == STACKED_CHUNK_SIZE
        assert len(asked) == 4
        assert set(asked) == {("batch", "ntg"), ("batch", "greedy"),
                              (None, "ntg"), (None, "greedy")}


def result_files(queue) -> dict:
    """Each chunk's result file as ``(header, [(index, digest, report)],
    footer)``, wall-clock fields compared away by ``RunReport`` equality."""
    files = {}
    for path in sorted(queue.results_dir.iterdir()):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        body = [(line["index"], line["digest"],
                 RunReport.from_dict(line["report"])) for line in lines[1:-1]]
        files[path.name] = (lines[0], body, lines[-1])
    return files


class TestOneChunkPerStep:
    """A worker runs each chunk it claims as one ``run_batch``: a stacked
    chunk is one stacked execution, and its result footer is that call's
    cache accounting."""

    def test_chunk_footers_sum_the_cache_accounting(self, tmp_path):
        """Chunks of 2 over stacked scenarios (``ntg``, ``greedy``) and
        one that runs per scenario (``edd`` through the adapter) on shared
        instances, with the bound on.  The directory is first warmed with
        the first scenario and one more entry is corrupted, so the footers
        see report hits, misses, stores and an invalid entry, and bound
        hits from disk, from the memo and bound misses."""
        batch = [scenario(seed=s, algorithm=a,
                          engine="fast" if a is EDD_ADAPTER else "batch")
                 for s in range(4) for a in ("ntg", "greedy", EDD_ADAPTER)]
        cache_dir = tmp_path / "cache"
        run_batch(batch[:1], cache="readwrite", cache_dir=cache_dir)
        from repro.api.cache import ResultCache

        ResultCache(cache_dir).entry_path(batch[4]).write_text("{not json")
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        worker = make_worker(queue, "w", FakeClock(), cache_dir=cache_dir)
        assert worker.run() == 6
        files = result_files(queue)
        assert len(files) == 6
        footers = [footer["cache_stats"] for _, _, footer in files.values()]
        totals = {key: sum(f[key] for f in footers) for key in footers[0]}
        assert totals == {"hits": 1, "misses": 11, "stores": 11,
                          "invalid": 1, "bound_hits": 8, "bound_misses": 3}
        assert len({json.dumps(f, sort_keys=True) for f in footers}) > 1
        assert list(queue.collect()) == list(run_batch(batch, cache="off"))

    def test_run_budget_caps_the_claims(self, tmp_path, monkeypatch):
        """``run(max_chunks)`` claims no chunk beyond its budget."""
        queue = WorkQueue.create(tmp_path / "q", small_batch(engine="batch"),
                                 chunk_size=2)
        claims = []
        claim = queue.claim

        def counting(worker, **kwargs):
            manifest = claim(worker, **kwargs)
            if manifest is not None:
                claims.append(manifest["shard_index"])
            return manifest

        monkeypatch.setattr(queue, "claim", counting)
        worker = make_worker(queue, "a", FakeClock())
        assert worker.run(max_chunks=1) == 1
        assert claims == [0]
        assert queue.done_chunks() == ["chunk_00000"]
        assert len(list(queue.pending_dir.iterdir())) == 2
        assert worker.run(max_chunks=5) == 2
        assert claims == [0, 1, 2]
        assert worker.chunks_done == 3

    def test_stacked_chunk_above_the_stack_cap_drains(self, tmp_path,
                                                      monkeypatch):
        """A stacked chunk larger than ``MAX_CELLS`` runs as several
        stacks: with the cap between two scenarios and three, the one-step
        drain of the one 6-scenario chunk still equals serial."""
        from repro.network import fast_batch_engine

        batch = small_batch(engine="batch")
        serial = run_batch(batch, cache="off")
        # a job is 16 requests on 12 nodes of dimension 1: 16 cells
        monkeypatch.setattr(fast_batch_engine, "MAX_CELLS", 40)
        stacks = []
        run_stack = fast_batch_engine._run_stack

        def counting(stack, engine):
            stacks.append(len(stack))
            return run_stack(stack, engine)

        monkeypatch.setattr(fast_batch_engine, "_run_stack", counting)
        queue = WorkQueue.create(tmp_path / "q", batch)
        assert queue.header()["n_chunks"] == 1
        worker = make_worker(queue, "a", FakeClock())
        assert worker.step() == "ran"
        assert queue.is_drained()
        assert stacks == [2, 2, 2]
        assert list(queue.collect()) == list(serial)


class TestStatusAndCollect:
    def test_status_tracks_lifecycle(self, tmp_path):
        batch = small_batch()
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        clock = FakeClock()

        status = queue.status(ttl=10, clock=clock)
        assert (status.chunks_pending, status.chunks_active,
                status.chunks_expired, status.chunks_done) == (3, 0, 0, 0)
        assert not status.done and status.cache_stats is None

        manifest = queue.claim("a", clock=clock)
        status = queue.status(ttl=10, clock=clock)
        assert (status.chunks_pending, status.chunks_active) == (2, 1)
        assert status.workers[0][0] == "a"

        clock.advance(11)
        status = queue.status(ttl=10, clock=clock)
        assert (status.chunks_active, status.chunks_expired) == (0, 1)

        worker = make_worker(queue, "b", clock, ttl=10,
                             cache_dir=tmp_path / "cache")
        worker.run()
        status = queue.status(ttl=10, clock=clock)
        assert status.done
        assert status.chunks_done == 3
        assert status.scenarios_done == len(batch)
        assert status.cache_stats is not None
        assert status.cache_stats.lookups == len(batch)
        lines = "\n".join(status.lines())
        assert "chunks: total=3 pending=0 leased=0 expired=0 done=3" in lines
        assert "cache: hits=" in lines
        del manifest

    def test_status_lines_are_greppable(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        lines = queue.status(clock=FakeClock()).lines()
        assert lines[1] == "chunks: total=3 pending=3 leased=0 expired=0 " \
                           "done=0"
        assert lines[2] == "scenarios: done=0/6"

    def test_collect_refuses_undrained_queue(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", small_batch(), chunk_size=2)
        clock = FakeClock()
        worker = make_worker(queue, "a", clock)
        worker.run(max_chunks=1)  # one of three chunks done
        with pytest.raises(QueueError, match="chunk_00001, chunk_00002"):
            queue.collect()

    def test_results_dir_merges_like_any_shard_set(self, tmp_path):
        """The results directory is a plain dispatch.merge input: the
        queue introduces no private result format."""
        from repro.api import merge

        batch = small_batch()
        queue = WorkQueue.create(tmp_path / "q", batch, chunk_size=2)
        make_worker(queue, "a", FakeClock()).run()
        via_queue = queue.collect()
        via_merge = merge(queue.results_dir)
        assert list(via_queue) == list(via_merge)
        assert json.dumps([r.to_dict() for r in via_queue], sort_keys=True) \
            == json.dumps([r.to_dict() for r in via_merge], sort_keys=True)
