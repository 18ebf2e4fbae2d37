"""Content-addressed on-disk cache of :class:`~repro.api.run.RunReport`.

Large parameter sweeps re-run thousands of identical ``(network,
workload, algorithm, seed)`` points across benches and sessions.  Every
such point is a :class:`~repro.api.spec.Scenario`, every scenario has a
stable cross-process digest, and the engine contract (enforced by
``tests/test_differential.py``) makes the digest *content-addressing*:
two scenarios with equal digests produce bit-identical reports no matter
which engine or worker count runs them.  So a report computed once can
be replayed forever -- this module is that store.

Layout and key
--------------
One JSON file per report under ``<root>/v<SCHEMA_VERSION>/``, named by
the scenario digest (zero-padded hex).  The payload embeds the schema
version *and* the full serialized report; on read the stored scenario's
:meth:`~repro.api.spec.Scenario.key` is compared against the requested
one, so a CRC-32 digest collision degrades to a cache miss, never to a
wrong result.  Because :meth:`Scenario.digest` excludes the ``engine``
field by design, a fast-engine run hits an entry written by a
reference-engine run (and vice versa) -- that is the point.

Entries that fail to parse, carry a different schema version, or belong
to a colliding scenario are *ignored* (counted in
:attr:`CacheStats.invalid` / treated as misses) and overwritten on the
next ``readwrite`` run; corruption can cost time, never correctness.

Besides full reports the store also keeps *offline-bound* entries
(:meth:`ResultCache.load_bound` / :meth:`ResultCache.store_bound`): the
(max-flow) bound is a pure function of ``(seed, instance)`` --
independent of the algorithm -- so one entry serves every algorithm
swept over that instance, across processes and sessions.  Bound entries
are keyed by ``(seed, instance_digest)`` with the full
:meth:`~repro.api.spec.Scenario.instance_key` embedded as a collision
guard, and are deliberately *not* counted in :class:`CacheStats` (which
accounts report replays; the bound is an implementation detail of
computing one).

Configuration
-------------
* ``REPRO_CACHE`` (environment) -- cache directory; when set, ``run`` /
  ``run_batch`` default to ``"readwrite"`` instead of ``"off"``, which is
  how CI warms and replays the bench suite without touching every call
  site.  Default directory otherwise: ``~/.cache/repro``.
* ``cache="off" | "read" | "readwrite"`` -- threaded through
  :func:`repro.api.run.run`, :func:`repro.api.run.run_batch`, and the CLI
  (``--cache``).  ``"off"`` never touches the filesystem.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass

from repro.util import atomic_write
from repro.util.errors import ValidationError

#: bump when the RunReport JSON layout changes incompatibly; old entries
#: are then ignored (recomputed and rewritten), not misread.  Version 2
#: dropped ``meta["kernel"]``
SCHEMA_VERSION = 2

MODES = ("off", "read", "readwrite")

#: environment variable naming the cache directory (and, by being set,
#: switching the default mode from "off" to "readwrite")
ENV_DIR = "REPRO_CACHE"


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one batch (or one process).

    ``hits``/``misses``/``stores``/``invalid`` account *report* replays;
    ``bound_hits``/``bound_misses`` account the offline-bound tier (one
    event per executed scenario that needed a bound: served from the
    call-scoped memo or the on-disk ``bound_*.json`` entries vs computed
    from scratch).  Bound events are deterministic for a given batch and
    cache state -- see :func:`repro.api.run._instance_bound` -- which is
    what lets the dispatch/queue layers assert that any execution history
    aggregates to the serial totals.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # corrupted / legacy-schema / colliding entries seen
    bound_hits: int = 0  # offline bounds served from memo/disk
    bound_misses: int = 0  # offline bounds computed (max-flow ran)

    def add(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.invalid += other.invalid
        self.bound_hits += other.bound_hits
        self.bound_misses += other.bound_misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"cache: hits={self.hits} misses={self.misses} "
            f"stores={self.stores} invalid={self.invalid} "
            f"bound_hits={self.bound_hits} bound_misses={self.bound_misses} "
            f"hit_rate={self.hit_rate:.1%}"
        )


#: process-wide aggregate over every cache-enabled run/run_batch call --
#: what the bench conftest prints at session end so CI can assert the
#: warmed second pass actually replayed from disk
GLOBAL_STATS = CacheStats()


def default_root() -> pathlib.Path:
    env = os.environ.get(ENV_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def resolve_mode(cache: str | None) -> str:
    """Normalize the ``cache=`` argument of run/run_batch.

    ``None`` means "default": ``"readwrite"`` when the ``REPRO_CACHE``
    environment variable selects a directory, ``"off"`` otherwise -- so
    explicitly configured environments (CI, sweep boxes) get caching for
    free while bare test runs never touch the user's home directory.
    """
    if cache is None:
        return "readwrite" if os.environ.get(ENV_DIR) else "off"
    if cache not in MODES:
        raise ValidationError(
            f"cache mode must be one of {MODES}, got {cache!r}")
    return cache


class ResultCache:
    """The on-disk store; one instance per directory.

    All methods are safe against concurrent readers and (best-effort)
    concurrent writers: entries are written to a temporary file and
    atomically renamed into place.
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.stats = CacheStats()

    def entry_path(self, scenario) -> pathlib.Path:
        return (self.root / f"v{SCHEMA_VERSION}"
                / f"{scenario.digest():08x}.json")

    def load(self, scenario, require_bound: bool = True,
             bound_method: str = "maxflow"):
        """Return the cached :class:`RunReport` for ``scenario``, or ``None``.

        ``require_bound=False`` accepts entries whose offline bound was
        skipped (``compute_bound=False`` runs); the default insists on a
        finite bound so bound-skipping producers cannot starve
        bound-needing consumers.  When a bound is required it must have
        been produced by ``bound_method`` (``meta["bound_method"]``;
        entries written before the field existed count as ``"maxflow"``)
        -- a report bounded by max-flow must never replay for a ``"cd"``
        request.
        """
        import math

        from repro.api.run import RunReport

        path = self.entry_path(scenario)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        try:
            if not isinstance(payload, dict) \
                    or payload.get("schema") != SCHEMA_VERSION:
                raise ValidationError("unknown cache entry schema")
            report = RunReport.from_dict(payload["report"])
        except (ValidationError, KeyError, TypeError, AttributeError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        # digest collision guard: Scenario.key() excludes the engine, so a
        # cross-engine hit passes while a genuine CRC collision misses
        if report.scenario.key() != scenario.key():
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        if require_bound and not math.isfinite(report.bound):
            self.stats.misses += 1
            return None
        if require_bound and \
                report.meta.get("bound_method", "maxflow") != bound_method:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        # rebind to the *requested* scenario (it may name another engine);
        # report.engine keeps naming the engine that produced the numbers
        if report.scenario != scenario:
            report = report.replace(scenario=scenario)
        return report

    def store(self, report) -> None:
        path = self.entry_path(report.scenario)
        payload = {"schema": SCHEMA_VERSION, "report": report.to_dict()}
        atomic_write(path, json.dumps(payload, sort_keys=True))
        self.stats.stores += 1

    def bound_path(self, scenario, method: str = "maxflow") -> pathlib.Path:
        # the method joins the filename so "cd" and "maxflow" entries can
        # never collide; "maxflow" keeps the legacy method-less name, so
        # stores warmed before the method existed stay warm
        tag = "" if method == "maxflow" else f"{method}_"
        return (self.root / f"v{SCHEMA_VERSION}"
                / f"bound_{tag}{scenario.seed}_"
                  f"{scenario.instance_digest():08x}.json")

    def load_bound(self, scenario, method: str = "maxflow") -> float | None:
        """Return the cached ``method`` offline bound for ``scenario``'s
        instance, or ``None``.

        The entry is algorithm-independent: any scenario sharing the
        ``(seed, instance)`` pair hits it.  A digest collision, schema
        mismatch, method mismatch, or non-finite value degrades to
        ``None`` (recompute), never to a wrong bound.  Counted in
        :attr:`stats` as ``bound_hits``/``bound_misses`` (the tier the
        queue's ``status`` metrics surface);
        :func:`repro.api.run._instance_bound` is the single caller and
        guarantees one event per executed scenario.
        """
        import math

        path = self.bound_path(scenario, method)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.bound_misses += 1
            return None
        bound = None
        if isinstance(payload, dict) \
                and payload.get("schema") == SCHEMA_VERSION \
                and payload.get("method", "maxflow") == method:
            # collision guard: compare the full instance key through a JSON
            # round-trip (tuples become lists on disk)
            expected = json.loads(json.dumps(
                [scenario.seed, scenario.instance_key()]))
            if payload.get("instance") == expected:
                bound = payload.get("bound")
        if not isinstance(bound, (int, float)) or not math.isfinite(bound):
            self.stats.bound_misses += 1
            return None
        self.stats.bound_hits += 1
        return float(bound)

    def store_bound(self, scenario, bound: float,
                    method: str = "maxflow") -> None:
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": "offline-bound",
            "method": method,
            "instance": [scenario.seed, scenario.instance_key()],
            "bound": float(bound),
        }
        atomic_write(self.bound_path(scenario, method),
                     json.dumps(payload, sort_keys=True))

    def flush_stats(self) -> CacheStats:
        """Fold this instance's counters into :data:`GLOBAL_STATS` and
        return a snapshot (run/run_batch call this once per batch)."""
        snapshot = CacheStats(**vars(self.stats))
        GLOBAL_STATS.add(snapshot)
        self.stats = CacheStats()
        return snapshot
