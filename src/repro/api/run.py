"""Execute :class:`~repro.api.spec.Scenario` objects, serially or batched.

:func:`run` materializes the scenario (network, requests), dispatches to
the registered algorithm, replays/validates through the selected
simulation engine, computes the offline bound, and returns a
:class:`RunReport` -- the self-describing result record every CLI command
and bench prints from.

:func:`run_batch` is the fan-out primitive: it shards whole scenarios over
a process pool.  Because every scenario derives all of its randomness
from its own ``(seed, digest)`` -- see :mod:`repro.api.spec` -- batch
output is bit-identical to the serial run for any worker count.

Scenarios that resolve to the ``"batch"`` engine take a third path:
eligible ones (see :func:`_stacks`) are *stacked* -- the whole
group runs as one fused array program in the parent process through
:class:`~repro.network.fast_batch_engine.FastBatchEngine`, which
amortizes the per-step numpy overhead across the group instead of
paying it once per scenario.  Ineligible scenarios fall back to the
per-scenario path, whether ``"batch"`` was named explicitly or by
``REPRO_ENGINE``; the measured quantities are bit-identical either
way (fuzz-enforced by ``tests/test_differential.py``).

Both accept ``cache="off" | "read" | "readwrite"`` (default: ``"off"``,
or ``"readwrite"`` when the ``REPRO_CACHE`` environment variable names a
cache directory): repeated sweeps then replay identical points from the
content-addressed store in :mod:`repro.api.cache` instead of recomputing
them.  ``run_batch`` resolves every hit in the parent process *before*
sharding, so a fully warmed batch spawns no workers, builds no instances,
and computes no offline bounds at all.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.api.cache import CacheStats, ResultCache, resolve_mode
from repro.api.registry import ALGORITHMS, WORKLOADS
from repro.api.spec import Scenario
from repro.baselines import offline
from repro.network.engine import resolve_engine_name
from repro.network.packet import RequestTable
from repro.util.errors import ValidationError


class ScenarioError(ValidationError):
    """A scenario names an algorithm that cannot run on its network."""


#: per-process memo of offline bounds keyed by (method, seed, instance key) --
#: the bound is a pure function of the instance, and comparing k algorithms
#: on one instance would otherwise recompute the same max-flow k times.
#: Keys use the exact tuple, not the 32-bit digest (which is for seeding,
#: not identity: a crc collision here would serve a wrong bound)
_bound_cache: dict = {}

#: (cache root or None, writes enabled, call-scoped memo or None, bound
#: method) -- the on-disk tier below the memo.  Module state rather than
#: an ``_execute`` parameter so the worker entry point and every
#: monkeypatched ``_execute`` keep their signatures; set via
#: :func:`_bound_io` in the parent and from the chunk args in workers.
_BOUND_IO: tuple = (None, False, None, "maxflow")


def _check_bound_method(method: str) -> str:
    if method not in offline.BOUND_METHODS:
        raise ValidationError(
            f"unknown offline bound {method!r}; choose one of "
            f"{offline.BOUND_METHODS}"
        )
    return method


@contextmanager
def _bound_io(store, mode: str, method: str = "maxflow"):
    """Scope the on-disk bound cache to one run/run_batch call.

    With a store present the memo is *call-scoped* (a fresh dict per
    run/run_batch/chunk), not the process-global ``_bound_cache``: bound
    hit/miss accounting must be a function of the batch and the cache
    directory alone, never of what earlier calls in this process happened
    to compute -- that determinism is what lets the dispatch and queue
    layers assert cache-stat equality against the serial run.

    ``method`` names the offline-bound surrogate for the scope; it joins
    every memo and on-disk key, so ``"cd"`` and ``"maxflow"`` values can
    never shadow each other.
    """
    global _BOUND_IO
    previous = _BOUND_IO
    _BOUND_IO = (store, mode == "readwrite", {}, method) if store is not None \
        else (None, False, None, method)
    try:
        yield
    finally:
        _BOUND_IO = previous


def _instance_bound(scenario: Scenario, network, requests) -> float:
    store, write, memo, method = _BOUND_IO
    key = (method, scenario.seed, scenario.instance_key())
    if store is None:
        value = _bound_cache.get(key)
        if value is not None:
            return value
        value = None
    else:
        value = memo.get(key)
        if value is not None:
            store.stats.bound_hits += 1
            return value
        value = store.load_bound(scenario, method)  # counts bound_hits/misses
    if value is None:
        value = float(offline.offline_bound(network, requests, scenario.horizon,
                                            method=method))
        if store is not None and write:
            store.store_bound(scenario, value, method)
    if memo is not None:
        memo[key] = value
    if len(_bound_cache) > 4096:
        _bound_cache.clear()
    _bound_cache[key] = value
    return value


def _jsonable(value):
    """Strip ``value`` down to what survives a JSON round-trip unchanged.

    Plan metadata is arbitrarily rich (counters, phases, parameter
    objects); a :class:`RunReport` must compare equal to its own
    cache-replayed copy, so ``meta`` keeps only JSON-representable data
    -- tuples become lists, non-representable objects are dropped.

    Dict keys: JSON objects only have string keys, so int and bool keys
    (router histograms, per-tile counters) are coerced with ``str()``
    rather than dropped -- dropping them would erase the counter on
    *both* sides of the live-vs-replay comparison and hide the loss from
    the equality check.  Other key types still drop the entry.

    The result shares no dict or list with ``value``.  Scalars are
    returned without a recursive call: every cache replay copies its
    report's ``meta`` through here.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                if not isinstance(k, int):
                    continue
                k = str(k)  # deterministic: 5 -> "5", True -> "True"
            if not isinstance(v, _SCALARS):
                v = _jsonable(v)
                if v is _DROP:
                    continue
            out[k] = v
        return out
    if isinstance(value, (list, tuple)):
        items = [v if isinstance(v, _SCALARS) else _jsonable(v)
                 for v in value]
        return [v for v in items if v is not _DROP]
    return _DROP


_SCALARS = (str, int, float, bool, type(None))
_DROP = object()


def _nan_safe_eq(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


#: fields compared by RunReport.__eq__ -- every measured quantity, but not
#: the wall-clock timings (reruns and cache replays must compare equal)
_COMPARED_FIELDS = (
    "scenario", "requests", "throughput", "bound", "late", "rejected",
    "preempted", "latency_mean", "latency_max", "steps", "engine", "meta",
)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Self-describing outcome of one scenario run.

    ``wall_time``/``engine_time`` are excluded from equality so that
    reports from reruns (or from serial-vs-pooled execution, or replayed
    from the result cache) compare bit-identical whenever the measured
    quantities agree; nan-valued fields (empty latency, skipped bound)
    compare equal to nan rather than poisoning the comparison.
    """

    scenario: Scenario
    requests: int
    throughput: int
    bound: float
    late: int
    rejected: int
    preempted: int
    latency_mean: float  # mean delivery latency (nan when nothing delivered)
    latency_max: float  # worst delivery latency (nan when nothing delivered)
    steps: int
    engine: str  # engine actually used (after capability fallback)
    wall_time: float = field(compare=False, default=0.0)
    engine_time: float = field(compare=False, default=0.0)  # algorithm+replay only
    meta: dict = field(default_factory=dict)  # JSON-safe algorithm metadata

    def __eq__(self, other):
        if not isinstance(other, RunReport):
            return NotImplemented
        return all(
            _nan_safe_eq(getattr(self, name), getattr(other, name))
            for name in _COMPARED_FIELDS
        )

    def replace(self, **changes) -> "RunReport":
        return dataclasses.replace(self, **changes)

    @property
    def ratio(self) -> float:
        """Competitive-ratio estimate ``bound / throughput``."""
        if self.throughput > 0:
            return self.bound / self.throughput
        return math.inf if self.bound > 0 else 1.0

    @property
    def goodput(self) -> float:
        """Fraction of the offline bound achieved.

        A zero bound with positive throughput reports ``inf``, not 1.0:
        delivering packets against a bound that claims nothing was
        deliverable means the bound is broken, and the signal must be
        loud rather than masquerading as a perfect score.
        """
        if self.bound > 0:
            return self.throughput / self.bound
        return math.inf if self.throughput > 0 else 1.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "requests": self.requests,
            "throughput": self.throughput,
            "bound": self.bound,
            "ratio": self.ratio,
            "late": self.late,
            "rejected": self.rejected,
            "preempted": self.preempted,
            "latency_mean": self.latency_mean,
            "latency_max": self.latency_max,
            "steps": self.steps,
            "engine": self.engine,
            "wall_time": self.wall_time,
            "engine_time": self.engine_time,
            "meta": _jsonable(self.meta),  # a fresh copy: the report is frozen
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Inverse of :meth:`to_dict` (``ratio`` is derived and ignored)."""
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            requests=int(data["requests"]),
            throughput=int(data["throughput"]),
            bound=float(data["bound"]),
            late=int(data["late"]),
            rejected=int(data["rejected"]),
            preempted=int(data["preempted"]),
            latency_mean=float(data["latency_mean"]),
            latency_max=float(data["latency_max"]),
            steps=int(data["steps"]),
            engine=data["engine"],
            wall_time=float(data.get("wall_time", 0.0)),
            engine_time=float(data.get("engine_time", 0.0)),
            meta=_jsonable(data.get("meta", {})),  # shares nothing with data
        )

    def summary(self) -> str:
        return (
            f"{self.scenario.algorithm} on {self.scenario.network}: "
            f"throughput={self.throughput}/{self.requests} "
            f"bound={self.bound:.1f} ratio={self.ratio:.3f} "
            f"engine={self.engine} wall={self.wall_time:.3f}s"
        )


def unavailable_reason(scenario: Scenario, network=None) -> str | None:
    """Capability check: why ``scenario`` cannot run (``None`` when it can).

    Consults both the workload's and the algorithm's registered
    requirements.  This is the registry-metadata replacement for
    try/except ladders: consumers report ``"n/a (requires B, c >= 3)"``
    rows without swallowing real bugs.
    """
    entry = ALGORITHMS.get(scenario.algorithm.name)
    entry.validate_params(scenario.algorithm.kwargs())
    if network is None:
        network = scenario.network.build()
    reason = WORKLOADS.get(scenario.workload.name).unavailable(
        network, scenario.horizon)
    if reason is not None:
        return f"workload {scenario.workload.name!r} {reason}"
    return entry.unavailable(network, scenario.horizon)


def _open_cache(cache, cache_dir) -> tuple:
    """``(mode, ResultCache | None)`` for the ``cache=`` arguments."""
    mode = resolve_mode(cache)
    if mode == "off":
        return mode, None
    return mode, ResultCache(cache_dir)


def _materialize(scenario: Scenario) -> tuple:
    """``(entry, network, requests)`` of ``scenario``, after the
    capability check (:class:`ScenarioError` when it cannot run)."""
    entry = ALGORITHMS.get(scenario.algorithm.name)
    network = scenario.network.build()
    reason = unavailable_reason(scenario, network)
    if reason is not None:
        raise ScenarioError(
            f"{scenario.algorithm.name!r} on {scenario.network}: {reason}")
    _, requests = scenario.build_instance(network)
    return entry, network, requests


def _report(scenario: Scenario, network, requests, result,
            compute_bound: bool, engine_time: float,
            elapsed: float) -> RunReport:
    """Measure ``result`` against the offline bound: the one place a
    :class:`RunReport` is assembled.

    ``elapsed`` is the time already spent on this scenario alone (its
    build plus its engine time); ``wall_time`` adds the bound and the
    assembly on top, so the reports of one batch never count the same
    second twice.
    """
    t0 = time.perf_counter()
    if compute_bound:
        bound = _instance_bound(scenario, network, requests)
    else:
        bound = math.nan

    table = RequestTable.from_requests(requests)  # the columns: no objects
    arrivals = dict(zip(table.rid.tolist(), table.arrival.tolist()))
    latencies = [t - arrivals[rid] for rid, t in result.stats.delivery_times.items()]
    latency_mean = float(sum(latencies) / len(latencies)) if latencies else math.nan
    latency_max = float(max(latencies)) if latencies else math.nan

    # ground truth from the result itself: make_engine may have fallen
    # back (unsupported policy, tracing), and metadata can be stale
    engine = getattr(result, "engine", None) or resolve_engine_name(scenario.engine)

    meta = _jsonable(getattr(result, "plan_meta", {}) or {})
    if compute_bound:
        # which surrogate the bound column divides by -- cache replays
        # must only serve reports whose bound method matches the request
        meta["bound_method"] = _BOUND_IO[3]

    return RunReport(
        scenario=scenario,
        requests=len(requests),
        throughput=result.throughput,
        bound=float(bound),
        late=result.stats.late,
        rejected=result.stats.rejected,
        preempted=result.stats.preempted,
        latency_mean=latency_mean,
        latency_max=latency_max,
        steps=result.stats.steps,
        engine=engine,
        wall_time=elapsed + time.perf_counter() - t0,
        engine_time=engine_time,
        meta=meta,
    )


def _execute(scenario: Scenario, compute_bound: bool) -> RunReport:
    """The uncached core of :func:`run`."""
    t0 = time.perf_counter()
    entry, network, requests = _materialize(scenario)
    t1 = time.perf_counter()
    result = entry.fn(network, requests, scenario.horizon,
                      rng=scenario.rngs()[1], engine=scenario.engine,
                      **scenario.algorithm.kwargs())
    t2 = time.perf_counter()
    return _report(scenario, network, requests, result, compute_bound,
                   engine_time=t2 - t1, elapsed=t2 - t0)


def run(scenario: Scenario, *, cache: str | None = None,
        compute_bound: bool = True,
        bound_method: str = "maxflow") -> RunReport:
    """Run one scenario and measure it against the offline bound.

    Raises :class:`ScenarioError` when the algorithm's registered
    requirements are not met (use :func:`unavailable_reason` to pre-check),
    and lets genuine algorithm bugs propagate.

    ``cache`` selects the result-cache mode (see :mod:`repro.api.cache`);
    ``compute_bound=False`` skips the offline bound and reports
    ``bound=nan`` -- for timing comparisons and bound-free audits.
    ``bound_method`` picks the surrogate the bound column divides by
    (one of :data:`repro.baselines.offline.BOUND_METHODS`); it is recorded in
    ``meta["bound_method"]`` and joins every bound-cache key.
    """
    _check_bound_method(bound_method)
    mode, store = _open_cache(cache, None)
    if store is not None:
        report = store.load(scenario, require_bound=compute_bound,
                            bound_method=bound_method)
        if report is not None:
            store.flush_stats()
            return report
    with _bound_io(store, mode, bound_method):
        report = _execute(scenario, compute_bound)
    if store is not None:
        if mode == "readwrite":
            store.store(report)
        store.flush_stats()
    return report


def _run_chunk(args) -> tuple:
    """Run one worker's chunk serially; module-level so it pickles.

    Returns ``(reports, bound_stats)``.  Workers never consult the
    *report* cache: the parent resolved every hit before sharding and
    performs the stores itself (single writer).  They do share the
    *bound* tier -- offline bounds are instance-keyed,
    algorithm-independent values whose recomputation across processes is
    exactly what the on-disk entries exist to avoid (atomic writes make
    concurrent writers safe: last identical payload wins).  The worker's
    bound hit/miss accounting rides back to the parent, which folds it
    into the batch's ``cache_stats``; chunks never split a same-instance
    group, so the totals are identical to the serial run's."""
    scenarios, compute_bound, bound_root, bound_write, bound_method = args
    store = ResultCache(bound_root) if bound_root is not None else None
    with _bound_io(store, "readwrite" if bound_write else "read",
                   bound_method):
        reports = [_execute(s, compute_bound) for s in scenarios]
    return reports, (store.stats if store is not None else CacheStats())


def _batch_reason(scenario: Scenario) -> str | None:
    """Why ``scenario`` cannot join a stacked batch execution (``None``
    when it can) -- the run-level eligibility predicate for the
    ``"batch"`` engine.

    Checks, in order: the algorithm registers a ``batch_policy`` factory,
    the factory accepts this parameterization (it may return ``None``,
    e.g. ``edd(adapter=true)``), and
    :meth:`~repro.network.fast_batch_engine.FastBatchEngine.unsupported_reason`
    accepts the resulting policy.  Ineligible scenarios fall back to the
    per-scenario path (see :func:`_stacks`).
    """
    from repro.network.fast_batch_engine import FastBatchEngine

    entry = ALGORITHMS.get(scenario.algorithm.name)
    params = scenario.algorithm.kwargs()
    entry.validate_params(params)  # genuine spec errors still raise
    if entry.metadata.get("batch_policy") is None:
        return (f"algorithm {scenario.algorithm.name!r} has no batch "
                "policy (RegistryEntry.batch_engine == 'no')")
    policy = entry.batch_policy(params)
    if policy is None:
        return (f"{scenario.algorithm} is parameterized for the "
                "per-scenario path")
    return FastBatchEngine.unsupported_reason(policy)


def _stacks(scenarios) -> list:
    """Whether :func:`run_batch` runs each of ``scenarios`` on the stacked
    engine: its engine resolves to ``"batch"`` and :func:`_batch_reason`
    accepts it.  The answer depends only on the engine and the algorithm,
    so it is worked out once per pair."""
    memo: dict = {}
    flags = []
    for scenario in scenarios:
        key = (scenario.engine, scenario.algorithm)
        if key not in memo:
            memo[key] = resolve_engine_name(scenario.engine) == "batch" \
                and _batch_reason(scenario) is None
        flags.append(memo[key])
    return flags


def _execute_stacked(scenarios, compute_bound: bool) -> list:
    """Run a batch-eligible group as *one* stacked array execution.

    Runs in the parent process (the stacked engine already amortizes the
    per-step numpy overhead that the pool exists to parallelize around).
    Every scenario must have passed :func:`_batch_reason`; capability
    violations still raise :class:`ScenarioError` exactly like
    :func:`_execute`.  ``engine_time`` is the stacked wall time divided
    evenly across the group (per-scenario attribution inside one fused
    array program is not meaningful); ``wall_time`` is that share plus
    the scenario's own build, bound and assembly time.
    """
    from repro.network.fast_batch_engine import FastBatchEngine

    jobs, builds = [], []
    for scenario in scenarios:
        t0 = time.perf_counter()
        entry, network, requests = _materialize(scenario)
        policy = entry.batch_policy(scenario.algorithm.kwargs())
        jobs.append((network, policy, requests, scenario.horizon))
        builds.append(time.perf_counter() - t0)
    t1 = time.perf_counter()
    results = FastBatchEngine(jobs).run_many()
    share = (time.perf_counter() - t1) / len(jobs)
    return [
        _report(scenario, network, requests, result, compute_bound,
                engine_time=share, elapsed=build + share)
        for scenario, (network, _policy, requests, _horizon), result, build
        in zip(scenarios, jobs, results, builds)
    ]


class BatchResult(list):
    """``run_batch`` output: a plain list of reports, in input order, plus
    the batch's cache accounting (``None`` when the cache was off)."""

    cache_stats: CacheStats | None = None


def run_batch(scenarios, workers: int | None = None, *,
              cache: str | None = None, cache_dir=None,
              compute_bound: bool = True,
              bound_method: str = "maxflow") -> BatchResult:
    """Run many scenarios, optionally over a process pool.

    Results come back in input order and are bit-identical to the serial
    run for any ``workers`` (each scenario is self-seeded; no state is
    shared across shards).  Scenarios must therefore be fully declarative
    -- which :class:`Scenario` guarantees by construction.

    With the cache on (``cache="read"``/``"readwrite"``, or the
    ``REPRO_CACHE`` environment variable set), every hit is resolved in
    the parent process before any sharding happens: warmed points never
    reach a worker, never materialize their instance, and never trigger
    an offline-bound (max-flow) computation.  The returned
    :class:`BatchResult` carries the hit/miss accounting in
    ``.cache_stats``.

    Chunks never split a same-instance group: scenarios that differ only
    in the algorithm land in one worker, so the per-process offline-bound
    memo computes each instance's max-flow bound once instead of once per
    algorithm.

    Duplicate scenarios are handled deterministically: identical
    scenarios execute **once** and every duplicate position receives the
    same report (previously the duplicates raced each other into the
    cache -- bit-identical by contract, but wasteful and with
    nondeterministic store accounting).  The cache counts one lookup per
    position and one store per *unique* scenario.

    Scenarios resolving to ``engine="batch"`` (explicitly or via
    ``REPRO_ENGINE=batch``) are partitioned by :func:`_stacks`: the
    batch-eligible subset runs as one stacked array execution in the
    parent, the rest fall back per-scenario, so how a batch is cut into
    shards or chunks never decides whether it runs.  With the cache on,
    the offline-bound tier (``bound_*.json`` entries keyed by ``(seed,
    instance)``) is shared across algorithms, workers, and sessions, so
    each instance's max-flow bound is computed once ever, not once per
    algorithm.
    """
    scenarios = [
        s if isinstance(s, Scenario) else Scenario.from_dict(s)
        for s in scenarios
    ]
    _check_bound_method(bound_method)
    mode, store = _open_cache(cache, cache_dir)
    results: list = [None] * len(scenarios)
    pending = list(range(len(scenarios)))
    if store is not None:
        pending = []
        for i, scenario in enumerate(scenarios):
            report = store.load(scenario, require_bound=compute_bound,
                                bound_method=bound_method)
            if report is not None:
                results[i] = report
            else:
                pending.append(i)

    # duplicate positions collapse onto their first occurrence (Scenario
    # is frozen and hashable); only primaries execute and store
    duplicates: dict = {}
    unique_pending: list = []
    primary_of: dict = {}
    for i in pending:
        first = primary_of.setdefault(scenarios[i], i)
        if first == i:
            unique_pending.append(i)
        else:
            duplicates.setdefault(first, []).append(i)
    pending = unique_pending

    # partition: scenarios the stacked engine runs execute as ONE stacked
    # array program in the parent; everything else takes the per-scenario
    # serial/pool path
    stacked = [i for i, stacks in zip(
        pending, _stacks(scenarios[i] for i in pending)) if stacks]

    bound_root = str(store.root) if store is not None else None
    bound_write = mode == "readwrite"
    with _bound_io(store, mode, bound_method):
        if stacked:
            for i, report in zip(
                    stacked,
                    _execute_stacked([scenarios[i] for i in stacked],
                                     compute_bound)):
                results[i] = report
            rest = [i for i in pending if results[i] is None]
        else:
            rest = pending

        if workers is None or workers <= 1 or len(rest) <= 1:
            for i in rest:
                results[i] = _execute(scenarios[i], compute_bound)
        else:
            groups: dict = {}  # (seed, instance digest) -> pending indices
            for i in rest:
                scenario = scenarios[i]
                groups.setdefault(
                    (scenario.seed, scenario.instance_digest()),
                    []).append(i)
            target = max(1, len(rest) // (4 * workers))
            chunks, current = [], []
            for indices in groups.values():
                current.extend(indices)
                if len(current) >= target:
                    chunks.append(current)
                    current = []
            if current:
                chunks.append(current)

            # imported here: the pool loads multiprocessing, which no
            # serial or stacked batch needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk_results = pool.map(
                    _run_chunk,
                    [([scenarios[i] for i in chunk], compute_bound,
                      bound_root, bound_write, bound_method)
                     for chunk in chunks])
                for chunk, (reports, bound_stats) in zip(chunks,
                                                         chunk_results):
                    for i, report in zip(chunk, reports):
                        results[i] = report
                    if store is not None:
                        store.stats.add(bound_stats)

    for first, copies in duplicates.items():
        for i in copies:
            results[i] = results[first]

    batch = BatchResult(results)
    if store is not None:
        if mode == "readwrite":
            for i in pending:
                store.store(results[i])
        batch.cache_stats = store.flush_stats()
    return batch


def parse_scenarios(data, source="spec") -> list:
    """Interpret already-parsed spec JSON as a scenario list.

    Accepts a single scenario object, a list of scenarios, or a mapping
    with a ``"scenarios"`` list -- so one format serves ``route --spec``
    and ``sweep --spec`` alike (``source`` only labels error messages).
    """
    if isinstance(data, dict) and "scenarios" in data:
        data = data["scenarios"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ValidationError(
            f"{source} must hold a scenario object, a list of them, "
            "or {'scenarios': [...]}"
        )
    return [Scenario.from_dict(item) for item in data]


def load_scenarios(path) -> list:
    """Load scenarios from a JSON spec file (see :func:`parse_scenarios`)."""
    import json
    import pathlib

    return parse_scenarios(json.loads(pathlib.Path(path).read_text()),
                           f"spec file {path}")
