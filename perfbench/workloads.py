"""The benchmark's workloads: scenario lists, timed passes, and checks.

Every workload is a closed loop with one client: the benchmark submits one
sweep, waits for it, checks it, and submits the next.  A *round* is a set
of freshly seeded scenarios: a cold pass submits it as one or more timed
sweeps (one per instance on bound_sweep, one per scenario on large_grid,
one queue per quarter on queue_sweep), then warm passes replay them from
the result cache.  A fixed host-speed probe (:func:`reference`) runs
just before and just after every timed pass, outside its timing, so each
wall can be read at a steady host speed.  Scenario seeds derive
from ``(--seed, round)``, so the same ``--seed`` always yields the same
inputs, and no round can be served by the per-process offline-bound memo
of an earlier round.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

FIFO = {"name": "greedy", "params": {"priority": "fifo"}}
GREEDY_FAMILY = (
    FIFO,
    {"name": "greedy", "params": {"priority": "lifo"}},
    {"name": "greedy", "params": {"priority": "longest"}},
    "ntg",
    {"name": "edd", "params": {}},
)

SIZES = ("full", "tiny")

#: scenario seeds of one --seed never collide with another's
_SEED_STRIDE = 100_000

#: queue_sweep scenarios re-run serially per round to check ``collect``
SUBSET = 25


def _uniform(num: int, horizon: int):
    from repro.api.spec import WorkloadSpec

    return WorkloadSpec("uniform", {"num": num, "horizon": horizon})


def bound_sweep(seed: int, round_index: int, size: str) -> list:
    """Four instances, every algorithm of each sharing one offline bound."""
    from repro.api.spec import NetworkSpec, Scenario

    tiny = size == "tiny"
    arrivals = 8 if tiny else 24
    instances = (
        (NetworkSpec("grid", (4, 4) if tiny else (10, 10), 2, 2),
         30 if tiny else 300, ("ntg", FIFO, "edd", "det2")),
        (NetworkSpec("line", (8,) if tiny else (32,), 3, 3),
         20 if tiny else 200, ("ntg", FIFO, "edd", "det2", "det")),
        # unit links, so the Model 2 engine (and kernel.grouped_rank) runs
        (NetworkSpec("line", (8,) if tiny else (32,), 3, 1),
         20 if tiny else 200, ("ntg", "ntg-model2")),
        (NetworkSpec("torus", (4, 4) if tiny else (8, 8), 2, 2),
         30 if tiny else 300, ("ntg", FIFO, "edd")),
    )
    instance_seed = seed * _SEED_STRIDE + round_index
    return [
        Scenario(network, _uniform(num, arrivals), algorithm,
                 horizon=arrivals + 2 * sum(network.dims),
                 seed=instance_seed, engine="fast")
        for network, num, algorithms in instances
        for algorithm in algorithms
    ]


def large_grid(seed: int, round_index: int, size: str) -> list:
    """Two large congested grid instances under two greedy routers."""
    from repro.api.spec import NetworkSpec, Scenario

    side, num, arrivals = (8, 200, 16) if size == "tiny" else (48, 20_000, 128)
    network = NetworkSpec("grid", (side, side), 1, 1)
    return [
        Scenario(network, _uniform(num, arrivals), algorithm,
                 horizon=arrivals + 4 * side,
                 seed=seed * _SEED_STRIDE + 2 * round_index + k,
                 engine="fast")
        for k in range(2)
        for algorithm in (FIFO, "ntg")
    ]


def queue_sweep(seed: int, round_index: int, size: str) -> list:
    """Many small grids for the stacked engine, as a sweep would enqueue."""
    from repro.api.spec import NetworkSpec, Scenario

    count = 40 if size == "tiny" else 1000
    base = (seed * _SEED_STRIDE + round_index) * 1000
    scenarios = []
    for i in range(count):
        side = 4 + i % 3
        scenarios.append(Scenario(
            NetworkSpec("grid", (side, side), 2, 2),
            _uniform(10 + i % 4, 48),
            GREEDY_FAMILY[i % len(GREEDY_FAMILY)],
            horizon=96, seed=base + i // len(GREEDY_FAMILY), engine="batch"))
    return scenarios


def per_instance(scenarios) -> list:
    """Consecutive scenarios of one instance form one sweep."""
    units: list = []
    for scenario in scenarios:
        if units and units[-1][0].instance_key() == scenario.instance_key():
            units[-1].append(scenario)
        else:
            units.append([scenario])
    return units


def per_scenario(scenarios) -> list:
    return [[scenario] for scenario in scenarios]


def quarters(scenarios) -> list:
    size = -(-len(scenarios) // 4)
    return [scenarios[i:i + size] for i in range(0, len(scenarios), size)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, round, size) -> list of Scenario
    units: object  # round's scenarios -> the sweeps its cold pass submits
    compute_bound: bool
    queued: bool  # drained through WorkQueue + QueueWorker
    replays: int  # warm passes per round


WORKLOADS = {w.name: w for w in (
    Workload(
        "bound_sweep",
        "serial run_batch with the max-flow bound on and the cache off: "
        "packing and det2 planning dominate; cache, queue and stacked "
        "engine are bypassed",
        bound_sweep, per_instance, compute_bound=True, queued=False,
        replays=20),
    Workload(
        "large_grid",
        "one congested 48x48 grid, 20k requests, bound off: instance "
        "build, fast-engine replay and the step kernel dominate; packing "
        "is absent",
        large_grid, per_scenario, compute_bound=False, queued=False,
        replays=20),
    Workload(
        "queue_sweep",
        "1000 small grids enqueued as four queues, each drained into a "
        "fresh cache and replayed warm: stresses queue, cache, stacked "
        "engine and run_batch glue",
        queue_sweep, quarters, compute_bound=False, queued=True, replays=2),
)}


# -- timed passes -----------------------------------------------------------


def _api_run():
    # repro.api re-exports the run() function under the submodule's name,
    # so the module itself comes from the import system
    return importlib.import_module("repro.api.run")


#: wall seconds of :func:`reference` on an uncontended host of the kind the
#: benchmark was written on (2 vCPU Xeon VM); timings are rescaled to this
#: speed, so the constant only sets their scale
REFERENCE_S = 0.015

#: what the probe parses and writes back: a batch of report-like records
_PROBE_DOC = json.dumps([
    {"scenario": {"seed": i, "dims": [i % 7, 5], "name": f"greedy-{i}"},
     "throughput": i * 3, "bound": i * 0.75, "steps": [i, i + 1, i + 2]}
    for i in range(64)])


def reference() -> float:
    """Wall seconds of a fixed probe of host speed (about 15 ms).

    On a shared host other tenants slow a process by up to 2x for tens of
    seconds; timed beside a pass, the probe tells how fast the host ran
    that pass.  It is interpreter work -- a dict and int loop, then JSON
    parsed and written back, as the cache and queue do -- with the
    collector off, so the program's heap cannot change its cost, and uses
    nothing from ``repro``.  Measured against every workload's passes,
    interpreter work tracked their slow-downs far better than numpy sorts,
    gathers from a large array, or small-file I/O; the two halves slow
    differently under some tenants, so each evens out the other.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(80_000):
            key = i % 613
            counts[key] = counts.get(key, 0) + i
        for _ in range(30):
            json.dumps(json.loads(_PROBE_DOC))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@contextmanager
def _timed(tracer, name: str, walls: list, refs: list):
    """Time one pass into ``walls`` and the probe around it into ``refs``
    (mean of the probe just before and just after, both untimed)."""
    before = reference()
    with tracer.timed_pass(name) if tracer is not None else nullcontext():
        start = time.perf_counter()
        yield
        walls.append(time.perf_counter() - start)
    refs.append((before + reference()) / 2)


@dataclass
class Round:
    """What one round produced: reports and the wall time of each pass.

    The cold pass submits the round as one or more sweeps (``units``),
    each timed on its own; every round of a workload has the same unit
    structure, so ``cold_walls[i]`` of different rounds are comparable.
    """

    scenarios: list
    reports: list
    unit_sizes: list = field(default_factory=list)
    cold_walls: list = field(default_factory=list)
    cold_refs: list = field(default_factory=list)  # probe beside each sweep
    replay_size: int = 0  # scenarios each warm pass replays
    replay_walls: list = field(default_factory=list)  # per warm pass
    replay_refs: list = field(default_factory=list)
    replays: list = field(default_factory=list)  # (offset, BatchResult)


def run_round(workload: Workload, scenarios: list, workdir, tracer=None,
              replays: int | None = None) -> Round:
    """Run the cold pass and the warm passes of one round in ``workdir``."""
    result = Round(scenarios, reports=[])
    replays = workload.replays if replays is None else replays
    units = workload.units(scenarios)
    result.unit_sizes = [len(unit) for unit in units]
    if workload.queued:
        # each unit is its own queue: drained cold, then replayed warm
        for index, unit in enumerate(units):
            offset = len(result.reports)
            result.reports += _drain(unit, workdir / f"cold{index}", "cold",
                                     tracer, result.cold_walls,
                                     result.cold_refs)
            for k in range(replays):
                warm = _drain(unit, workdir / f"replay{index}-{k}", "replay",
                              tracer, result.replay_walls, result.replay_refs)
                result.replays.append((offset, warm))
        result.replay_size = len(units[0])
        return result
    from repro.api.cache import ResultCache

    for unit in units:
        with _timed(tracer, "cold", result.cold_walls, result.cold_refs):
            result.reports += _api_run().run_batch(
                unit, workers=1, cache="off",
                compute_bound=workload.compute_bound)
    store = ResultCache(workdir / "cache")
    for report in result.reports:
        store.store(report)
    # a warm pass here takes well under a millisecond, so the passes are
    # timed as one block and the block shared out evenly
    block: list = []
    with _timed(tracer, "replay", block, result.replay_refs):
        for _ in range(replays):
            result.replays.append((0, _api_run().run_batch(
                scenarios, workers=1, cache="read", cache_dir=store.root,
                compute_bound=workload.compute_bound)))
    result.replay_walls.append(block[0] / max(1, replays))
    result.replay_size = len(scenarios)
    return result


def _drain(scenarios, queue_dir, name: str, tracer, walls: list,
           refs: list):
    """Enqueue, drain with one in-process worker, collect."""
    from repro.api.queue import WorkQueue
    from repro.api.service import QueueWorker

    with _timed(tracer, name, walls, refs):
        queue = WorkQueue.create(queue_dir, scenarios)
        QueueWorker(queue, "perfbench", heartbeat_interval=0, workers=1,
                    cache="readwrite", cache_dir=queue_dir.parent / "cache",
                    compute_bound=False).run()
        return queue.collect()


# -- checks -----------------------------------------------------------------


def digest(reports) -> str:
    """Digest of every report's throughput, bound and steps, in order."""
    h = hashlib.sha256()
    for report in reports:
        h.update(f"{report.throughput} {float(report.bound).hex()} "
                 f"{report.steps}\n".encode())
    return h.hexdigest()[:16]


def bound_tight(reports) -> int:
    """Instances whose bound equals the best throughput any algorithm
    reached on them (a solver short-circuit could skip those solves)."""
    best: dict = {}
    for report in reports:
        key = (report.scenario.seed, report.scenario.instance_key())
        top = best.get(key, (-1, None))[0]
        best[key] = (max(top, report.throughput), report.bound)
    return sum(1 for top, bound in best.values() if top == bound)


def check_round(workload: Workload, result: Round, expected: str | None,
                seed: int, round_index: int) -> tuple:
    """``(failed scenario indices, messages)`` for one round.

    Checks that every scenario has its own report, ``throughput <=
    bound`` when the bound is on, the digest against the committed value
    (when one exists for this seed and round), that every warm pass hit
    the cache for the whole batch and replayed identical reports, and --
    for the queue -- that ``collect`` equals a serial ``run_batch`` on a
    sampled subset.
    """
    scenarios, reports = result.scenarios, result.reports
    everything = set(range(len(scenarios)))
    if len(reports) != len(scenarios):
        return everything, [f"round {round_index}: expected "
                            f"{len(scenarios)} reports"]
    failed, messages = set(), []
    for i, (scenario, report) in enumerate(zip(scenarios, reports)):
        if report is None or report.scenario != scenario:
            failed.add(i)
            messages.append(f"round {round_index}: scenario {i} has no "
                            "report of its own")
        elif workload.compute_bound and not report.throughput <= report.bound:
            failed.add(i)
            messages.append(f"round {round_index}: scenario {i} throughput "
                            f"{report.throughput} > bound {report.bound}")
    if expected is not None and not failed and digest(reports) != expected:
        failed = everything
        messages.append(f"round {round_index}: digest {digest(reports)} != "
                        f"expected {expected}")
    for offset, warm in result.replays:
        stats = warm.cache_stats
        if stats is None or stats.hits != result.replay_size or stats.misses:
            failed = everything
            messages.append(f"round {round_index}: warm pass cache stats "
                            f"{stats} (expected {result.replay_size} hits)")
        cold = reports[offset:offset + len(warm)]
        bad = {offset + i for i, (a, b) in enumerate(zip(warm, cold))
               if a != b}
        if len(warm) != result.replay_size or bad:
            failed |= bad or everything
            messages.append(f"round {round_index}: warm pass replayed "
                            f"{len(bad)} different report(s)")
    if workload.queued:
        picks = sorted(random.Random(f"{seed}:{round_index}").sample(
            range(len(scenarios)), min(SUBSET, len(scenarios))))
        serial = _api_run().run_batch([scenarios[i] for i in picks],
                                      workers=1, cache="off",
                                      compute_bound=workload.compute_bound)
        bad = {i for i, report in zip(picks, serial) if report != reports[i]}
        if bad:
            failed |= bad
            messages.append(f"round {round_index}: collect differs from a "
                            f"serial run_batch on {len(bad)} scenario(s)")
    return failed, messages
