"""Tests for the content-addressed result cache (repro.api.cache).

The contract under test: a cache hit is indistinguishable from a cold
run (equal ``RunReport``), corruption and schema drift degrade to
recomputation (never to wrong results or crashes), the digest excludes
the engine (cross-engine hits), ``cache="off"`` never touches disk, and
a fully warmed ``run_batch`` short-circuits *all* recomputation --
including the offline-bound max-flow, which is the expensive part.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import (
    NetworkSpec,
    ResultCache,
    Scenario,
    WorkloadSpec,
    run,
    run_batch,
)
from repro.api.cache import SCHEMA_VERSION, resolve_mode
from repro.util.errors import ValidationError


def scenario(seed=0, algorithm="ntg", engine=None):
    return Scenario(
        network=NetworkSpec("line", (16,), 2, 2),
        workload=WorkloadSpec("uniform", {"num": 24, "horizon": 16}),
        algorithm=algorithm,
        horizon=64,
        seed=seed,
        engine=engine,
    )


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Point REPRO_CACHE at a tmp dir (the default-mode switch)."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    return tmp_path


class TestModeResolution:
    def test_default_off_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_mode(None) == "off"

    def test_default_readwrite_with_env(self, cache_env):
        assert resolve_mode(None) == "readwrite"

    def test_explicit_modes_pass_through(self):
        for mode in ("off", "read", "readwrite"):
            assert resolve_mode(mode) == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError, match="cache mode"):
            resolve_mode("append")


class TestHitSemantics:
    def test_hit_equals_cold_run(self, cache_env):
        cold = run(scenario(), cache="readwrite")
        warm = run(scenario(), cache="readwrite")
        assert warm == cold
        assert warm.to_dict() == cold.to_dict() or warm.wall_time != cold.wall_time

    def test_batch_hit_equals_cold_batch(self, cache_env):
        scenarios = [scenario(seed=s) for s in range(3)]
        cold = run_batch(scenarios)
        assert cold.cache_stats.misses == 3 and cold.cache_stats.stores == 3
        warm = run_batch(scenarios, workers=2)
        assert warm.cache_stats.hits == 3 and warm.cache_stats.misses == 0
        assert list(warm) == list(cold)

    def test_digest_excludes_engine(self, cache_env):
        cold = run(scenario(algorithm="greedy", engine="reference"),
                   cache="readwrite")
        warm = run(scenario(algorithm="greedy", engine="fast"),
                   cache="readwrite")
        # same entry served both: the numbers agree, the report names the
        # engine that actually produced them, and the scenario is rebound
        # to the requested one
        assert warm.throughput == cold.throughput
        assert warm.engine == "reference"
        assert warm.scenario.engine == "fast"
        store = ResultCache(cache_env)
        assert store.entry_path(scenario(algorithm="greedy", engine="fast")) \
            == store.entry_path(scenario(algorithm="greedy"))

    def test_read_mode_never_writes(self, tmp_path):
        report = run(scenario(), cache="read")
        assert report.throughput >= 0
        run_batch([scenario(seed=9)], cache="read", cache_dir=tmp_path)
        assert not any(tmp_path.rglob("*.json"))

    def test_off_mode_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        run(scenario(), cache="off")
        run_batch([scenario(seed=1)], cache="off")
        assert not any(tmp_path.iterdir())


class TestInvalidation:
    def test_corrupted_entry_recomputes(self, tmp_path):
        store = ResultCache(tmp_path)
        cold = run_batch([scenario()], cache="readwrite", cache_dir=tmp_path)[0]
        path = store.entry_path(scenario())
        path.write_text("{not json")
        again = run_batch([scenario()], cache="readwrite", cache_dir=tmp_path)
        assert again[0] == cold
        assert again.cache_stats.invalid == 1
        # the corrupted entry was overwritten with a good one
        assert run_batch([scenario()], cache="readwrite",
                         cache_dir=tmp_path).cache_stats.hits == 1

    def test_legacy_schema_ignored(self, tmp_path):
        store = ResultCache(tmp_path)
        cold = run_batch([scenario()], cache="readwrite", cache_dir=tmp_path)[0]
        path = store.entry_path(scenario())
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        again = run_batch([scenario()], cache="readwrite", cache_dir=tmp_path)
        assert again[0] == cold
        assert again.cache_stats.invalid == 1
        # an entry in the schema-1 layout, whose reports carried
        # meta["kernel"], must miss: replayed, it would not equal a fresh run
        legacy_root = tmp_path / "legacy"
        payload["schema"] = 1
        payload["report"]["meta"]["kernel"] = "numpy"
        legacy = legacy_root / "v1" / path.name
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps(payload))
        replay = run_batch([scenario()], cache="readwrite",
                           cache_dir=legacy_root)
        assert (replay.cache_stats.hits, replay.cache_stats.misses) == (0, 1)
        assert replay[0] == cold and "kernel" not in replay[0].meta

    def test_digest_collision_misses(self, tmp_path):
        """An entry whose stored scenario differs from the requested one
        (CRC-32 collision) must be a miss, not a wrong result."""
        store = ResultCache(tmp_path)
        run_batch([scenario(seed=5)], cache="readwrite", cache_dir=tmp_path)
        src = store.entry_path(scenario(seed=5))
        dst = store.entry_path(scenario(seed=6))
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(src.read_text())  # fake a colliding digest
        batch = run_batch([scenario(seed=6)], cache="readwrite",
                          cache_dir=tmp_path)
        assert batch.cache_stats.invalid == 1
        assert batch[0].scenario.seed == 6
        assert batch[0] != run_batch([scenario(seed=5)], cache="read",
                                     cache_dir=tmp_path)[0]

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        run_batch([scenario(seed=s) for s in range(2)],
                  cache="readwrite", cache_dir=tmp_path)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []


class TestBoundShortCircuit:
    def test_warm_batch_computes_no_bounds(self, tmp_path, monkeypatch):
        """Regression: a fully warmed batch must not recompute the
        offline-bound max-flow (it used to re-derive the per-process memo
        per chunk even when every scenario was a hit)."""
        import repro.baselines.offline as offline

        scenarios = [scenario(seed=s) for s in range(4)]
        run_batch(scenarios, cache="readwrite", cache_dir=tmp_path)

        calls = {"n": 0}
        real = offline.offline_bound

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(offline, "offline_bound", counting)
        # the per-process bound memo must not mask a recomputation either
        from repro.api.run import _bound_cache
        _bound_cache.clear()
        warm = run_batch(scenarios, cache="readwrite", cache_dir=tmp_path)
        assert warm.cache_stats.hits == len(scenarios)
        assert calls["n"] == 0

    def test_warm_batch_spawns_no_workers(self, tmp_path, monkeypatch):
        """Hits are resolved in the parent: a fully warmed batch never
        opens a process pool."""
        import concurrent.futures

        scenarios = [scenario(seed=s) for s in range(3)]
        run_batch(scenarios, cache="readwrite", cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("process pool opened on a full-hit batch")

        # run_batch imports the pool from concurrent.futures when it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        warm = run_batch(scenarios, workers=4, cache="readwrite",
                         cache_dir=tmp_path)
        assert warm.cache_stats.hits == 3

    def test_nan_bound_entry_upgraded_when_bound_needed(self, tmp_path):
        """A compute_bound=False entry must not starve consumers that
        need the bound: the lookup misses and the entry is rewritten."""
        import math

        no_bound = run_batch([scenario()], cache="readwrite",
                             cache_dir=tmp_path, compute_bound=False)
        assert math.isnan(no_bound[0].bound)
        with_bound = run_batch([scenario()], cache="readwrite",
                               cache_dir=tmp_path)
        assert with_bound.cache_stats.misses == 1
        assert math.isfinite(with_bound[0].bound)
        # and the upgraded entry now serves bound-free consumers too
        again = run_batch([scenario()], cache="readwrite",
                          cache_dir=tmp_path, compute_bound=False)
        assert again.cache_stats.hits == 1


class TestBoundStats:
    """The offline-bound tier is accounted in ``CacheStats`` (one event
    per executed scenario that needed a bound), deterministically for a
    given batch and cache state -- the queue's ``status`` metrics and
    the dispatch stat-equality assertions both lean on this."""

    def test_cold_batch_counts_memo_hits_and_misses(self, tmp_path):
        # 2 instances x 2 algorithms: one max-flow per instance, the
        # sibling algorithm is served from the call-scoped memo
        scenarios = [scenario(seed=s, algorithm=a)
                     for s in range(2) for a in ("ntg", "greedy")]
        batch = run_batch(scenarios, cache="readwrite", cache_dir=tmp_path)
        assert batch.cache_stats.bound_misses == 2
        assert batch.cache_stats.bound_hits == 2

    def test_warm_batch_has_no_bound_events(self, tmp_path):
        """Report hits resolve in the parent and never reach the bound
        path at all -- zero events, matching ``status`` showing no
        remaining bound work."""
        scenarios = [scenario(seed=s) for s in range(3)]
        run_batch(scenarios, cache="readwrite", cache_dir=tmp_path)
        warm = run_batch(scenarios, cache="readwrite", cache_dir=tmp_path)
        assert warm.cache_stats.hits == 3
        assert (warm.cache_stats.bound_hits,
                warm.cache_stats.bound_misses) == (0, 0)

    def test_disk_bound_entry_counts_as_hit_across_batches(self, tmp_path):
        """A second batch over the same instance with a *different*
        algorithm recomputes the report but replays the bound from the
        on-disk tier."""
        from repro.api.run import _bound_cache

        run_batch([scenario(algorithm="ntg")], cache="readwrite",
                  cache_dir=tmp_path)
        _bound_cache.clear()  # isolate the disk tier from the process memo
        second = run_batch([scenario(algorithm="greedy")],
                           cache="readwrite", cache_dir=tmp_path)
        assert second.cache_stats.misses == 1  # new report...
        assert second.cache_stats.bound_hits == 1  # ...cached bound
        assert second.cache_stats.bound_misses == 0

    def test_stats_are_deterministic_across_identical_runs(self, tmp_path):
        """Same batch, same starting cache state => identical counters
        (the process-global memo must not leak into accounting)."""
        scenarios = [scenario(seed=s, algorithm=a)
                     for s in range(2) for a in ("ntg", "greedy")]
        a = run_batch(scenarios, cache="readwrite",
                      cache_dir=tmp_path / "a")
        b = run_batch(scenarios, cache="readwrite",
                      cache_dir=tmp_path / "b")
        assert vars(a.cache_stats) == vars(b.cache_stats)

    def test_serial_pooled_and_stacked_count_alike(self, tmp_path):
        """The serial, pooled and stacked paths give one batch the same
        ``cache_stats`` over a partly warmed directory: one report hit,
        and one bound miss per instance solved, the rest bound hits."""
        batch = [scenario(seed=s, algorithm=a)
                 for a in ("greedy", "ntg") for s in range(3)]
        stats = []
        for path, workers in (("serial", None), ("pooled", 2),
                              ("stacked", None)):
            root = tmp_path / path
            run_batch(batch[:1], cache="readwrite", cache_dir=root)  # warm
            scenarios = [s.replace(engine="batch") if path == "stacked"
                         else s for s in batch]
            stats.append(vars(run_batch(scenarios, workers=workers,
                                        cache="readwrite",
                                        cache_dir=root).cache_stats))
        assert stats[0] == stats[1] == stats[2]
        assert (stats[0]["hits"], stats[0]["misses"], stats[0]["stores"],
                stats[0]["bound_hits"], stats[0]["bound_misses"]) \
            == (1, 5, 5, 3, 2)

    def test_summary_includes_bound_fields(self, tmp_path):
        batch = run_batch([scenario()], cache="readwrite",
                          cache_dir=tmp_path)
        summary = batch.cache_stats.summary()
        assert "bound_hits=0 bound_misses=1" in summary
        # the long-standing prefix layout CI greps is unchanged
        assert summary.startswith("cache: hits=0 misses=1 stores=1 ")


class TestReportRoundTrip:
    def test_report_json_round_trip(self):
        from repro.api import RunReport

        report = run(scenario(algorithm="greedy"))
        clone = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone == report

    def test_nan_fields_compare_equal(self):
        # a scenario delivering nothing has nan latencies; identical runs
        # must still compare equal (the cache contract)
        sc = Scenario(
            network=NetworkSpec("line", (8,), 1, 1),
            workload=WorkloadSpec("uniform", {"num": 4, "horizon": 2}),
            algorithm="ntg",
            horizon=0,  # nothing can be delivered by t=0
            seed=0,
        )
        assert run(sc) == run(sc)
