"""Cross-engine / cross-worker differential fuzz (hypothesis-driven).

The result cache and the scenario digests rest on one invariant: a
``Scenario`` determines its ``RunReport`` bit-identically, no matter
which engine executes it (``engine`` is excluded from the digest) and no
matter how ``run_batch`` shards it over workers.  PR 1/PR 2 spot-checked
this on hand-picked instances; here hypothesis hunts for counterexamples
over random small scenarios spanning both topologies, every registered
stochastic workload, and the greedy/NTG/planner algorithm families --
plus (PR 4) the Model 2 node semantics (``ntg-model2`` on the vectorized
two-phase engine) and the custom-policy paths of the decision ABI
(``edd`` natively, and ``edd(adapter=true)`` through the scalar
batched-adapter lift), plus (PR 6) the stacked batch engine:
heterogeneous ``engine="batch"`` batches -- mixed sizes, horizons,
policies, duplicates -- must match the serial per-scenario reference
runs, with identical cache accounting, and every single stackable
scenario must match its reference and fast runs too, plus the step
kernel: fast and batch runs with the kernel swapped for the pure-Python
oracle of ``tests/test_kernel.py`` still match the reference engine,
and with every kernel call on the packed-key sort (its row threshold
patched to 0: these draws are far below it), plus the topology family: ring/torus/uniline networks and per-edge
``link_caps`` hotspot instances enter every strategy, so the
bit-identity net now covers wraparound movement and per-edge capacity
enforcement.

A failure here means the cache would serve wrong results -- fix the
engine divergence before touching the cache.
"""

from __future__ import annotations

import collections
import contextlib
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import (
    NetworkSpec,
    Scenario,
    WorkloadSpec,
    run,
    run_batch,
    unavailable_reason,
)
from repro.network import kernel
from test_kernel import oracle_admit, oracle_rank

#: measured RunReport fields that must agree bit-for-bit
MEASURES = ("requests", "throughput", "bound", "late", "rejected",
            "preempted", "latency_mean", "latency_max", "steps")


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def assert_reports_identical(a, b, context: str) -> None:
    for field in MEASURES:
        assert _same(getattr(a, field), getattr(b, field)), (
            f"{context}: {field} diverged: {getattr(a, field)!r} != "
            f"{getattr(b, field)!r} for {a.scenario}"
        )
    assert a.meta == b.meta, f"{context}: meta diverged for {a.scenario}"


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(("line", "grid", "ring", "uniline", "torus")))
    if kind == "grid" or kind == "torus":
        side = draw(st.integers(3, 5))
        dims = (side, side)
    else:
        n = draw(st.integers(4, 12))
        dims = (n,)
    B = draw(st.sampled_from((0, 1, 2, 3)))
    c = draw(st.integers(1, 3))
    link_caps = ()
    if draw(st.booleans()):
        # a hotspot override on the middle axis-0 edge (always present on
        # every registered topology for these sizes)
        tail = ((dims[0] - 1) // 2,) + (0,) * (len(dims) - 1)
        link_caps = ((tail, 0, draw(st.integers(1, 3))),)
    return NetworkSpec(kind, dims, buffer_size=B, capacity=c,
                       link_caps=link_caps)


@st.composite
def workloads(draw, horizon: int):
    name = draw(st.sampled_from(
        ("uniform", "poisson", "bursty", "permutation", "deadline",
         "hotspot")))
    if name == "uniform":
        params = {"num": draw(st.integers(1, 30)), "horizon": horizon}
    elif name == "hotspot":
        params = {"num": draw(st.integers(1, 20)), "horizon": horizon,
                  "span": draw(st.integers(0, 2))}
    elif name == "poisson":
        params = {"rate": draw(st.sampled_from((0.3, 1.0, 2.5))),
                  "horizon": horizon}
    elif name == "bursty":
        params = {"bursts": draw(st.integers(1, 4)),
                  "burst_size": draw(st.integers(1, 6)),
                  "horizon": horizon,
                  "spread": draw(st.integers(0, 2))}
    elif name == "permutation":
        params = {"rounds": draw(st.integers(1, 3)),
                  "window": draw(st.integers(1, 4))}
    else:  # deadline
        params = {"num": draw(st.integers(1, 20)), "horizon": horizon,
                  "slack": draw(st.integers(0, 8)),
                  "jitter": draw(st.integers(0, 3))}
    return WorkloadSpec(name, params)


@st.composite
def algorithms(draw):
    name = draw(st.sampled_from(
        ("greedy", "ntg", "det", "det2", "bufferless", "ntg-model2", "edd")))
    if name == "greedy":
        priority = draw(st.sampled_from(("fifo", "lifo", "longest")))
        return {"name": "greedy", "params": {"priority": priority}}
    if name == "ntg-model2":
        # Model 2 node semantics on the vectorized two-phase engine
        priority = draw(st.sampled_from(("ntg", "fifo", "lifo", "longest")))
        return {"name": "ntg-model2", "params": {"priority": priority}}
    if name == "edd":
        # the custom vector-ABI policy; adapter=True forces the
        # scalar-to-vector batched adapter path on the fast engine
        return {"name": "edd", "params": {"adapter": draw(st.booleans())}}
    return name


@st.composite
def scenarios(draw):
    network = draw(networks())
    span = sum(network.dims)
    horizon = draw(st.integers(span, 4 * span))
    return Scenario(
        network=network,
        workload=draw(workloads(horizon=max(1, horizon // 2))),
        algorithm=draw(algorithms()),
        horizon=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def runnable(scenario) -> bool:
    return unavailable_reason(scenario) is None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(scenarios())
def test_engines_bit_identical(scenario):
    """run(s) is identical under engine=reference, fast and batch."""
    hypothesis.assume(runnable(scenario))
    ref = run(scenario.replace(engine="reference"))
    fast = run(scenario.replace(engine="fast"))
    assert_reports_identical(ref, fast, "reference vs fast")
    # an explicit batch stacks what it can and runs the rest per scenario
    stacked = run_batch([scenario.replace(engine="batch")])[0]
    assert_reports_identical(ref, stacked, "reference vs batch")
    # and both agree with the digest contract: engine never enters it
    assert scenario.replace(engine="reference").digest() \
        == scenario.replace(engine="fast").digest()


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.lists(scenarios(), min_size=3, max_size=8))
def test_workers_bit_identical(batch):
    """run_batch(workers=1) == run_batch(workers=4), element-wise."""
    batch = [s for s in batch if runnable(s)]
    hypothesis.assume(len(batch) >= 2)
    serial = run_batch(batch, workers=1)
    pooled = run_batch(batch, workers=4)
    for one, many in zip(serial, pooled):
        assert_reports_identical(one, many, "serial vs pooled")


@contextlib.contextmanager
def oracle_kernel():
    """Swap the step kernel's entry points for the pure-Python oracles of
    ``tests/test_kernel.py``; yields a Counter of the calls they take."""
    calls = collections.Counter()

    def admit(node_id, axis, d, keys, B, c):
        calls["admit"] += 1
        fwd, store = oracle_admit(node_id, axis, keys, B, c)
        return np.array(fwd, bool), np.array(store, bool)

    def grouped_rank(gid, keys):
        calls["grouped_rank"] += 1
        return np.array(oracle_rank(gid, keys), np.int64)

    def injection_order(arrival):
        calls["injection_order"] += 1
        arrival = [int(a) for a in arrival]
        return np.array(sorted(range(len(arrival)),
                               key=lambda i: (arrival[i], i)), np.int64)

    with mock.patch.object(kernel, "admit", admit), \
            mock.patch.object(kernel, "grouped_rank", grouped_rank), \
            mock.patch.object(kernel, "injection_order", injection_order):
        yield calls


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(scenarios())
def test_kernel_dimension_bit_identical(scenario):
    """reference == fast == batch with the step kernel replaced by a
    pure-Python oracle that shares none of its code, so the array
    engines' results rest on the kernel's contract and not on numpy's
    sort; and a run labelled with an array engine really went through
    the kernel -- no silent fallback to the reference engine."""
    hypothesis.assume(runnable(scenario))
    ref = run(scenario.replace(engine="reference"))
    with oracle_kernel() as calls:
        fast = run(scenario.replace(engine="fast"))
        stacked = run_batch([scenario.replace(engine="batch")])[0]
    assert_reports_identical(ref, fast, "reference vs fast [oracle kernel]")
    assert_reports_identical(ref, stacked,
                             "reference vs batch [oracle kernel]")
    if fast.engine != "reference":
        assert calls, f"{fast.engine} run never called the kernel"


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(scenarios())
def test_packed_sort_bit_identical(scenario):
    """reference == fast == batch with ``kernel.PACKED_SORT_ROWS`` patched
    to 0, so every grouped rank of the array engines sorts one packed
    key where its columns fit (EDD's unbounded deadlines still take
    ``np.lexsort``)."""
    hypothesis.assume(runnable(scenario))
    ref = run(scenario.replace(engine="reference"))
    with mock.patch.object(kernel, "PACKED_SORT_ROWS", 0):
        fast = run(scenario.replace(engine="fast"))
        stacked = run_batch([scenario.replace(engine="batch")])[0]
    assert_reports_identical(ref, fast, "reference vs fast [packed sort]")
    assert_reports_identical(ref, stacked, "reference vs batch [packed sort]")


@st.composite
def model2_and_abi_scenarios(draw):
    """Scenarios dense in the PR-4 fast paths: Model 2 node semantics and
    the custom vector-ABI / batched-adapter policies, on the line c = 1
    networks Model 2 is defined for."""
    n = draw(st.integers(3, 12))
    B = draw(st.sampled_from((0, 1, 2, 3)))
    network = NetworkSpec("line", (n,), buffer_size=B, capacity=1)
    algorithm = draw(st.one_of(
        st.fixed_dictionaries({
            "name": st.just("ntg-model2"),
            "params": st.fixed_dictionaries(
                {"priority": st.sampled_from(("ntg", "fifo", "lifo",
                                              "longest"))}),
        }),
        st.fixed_dictionaries({
            "name": st.just("edd"),
            "params": st.fixed_dictionaries({"adapter": st.booleans()}),
        }),
    ))
    horizon = draw(st.integers(n, 4 * n))
    return Scenario(
        network=network,
        workload=draw(workloads(horizon=max(1, horizon // 2))),
        algorithm=algorithm,
        horizon=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(model2_and_abi_scenarios())
def test_model2_and_abi_policies_bit_identical(scenario):
    """The PR-4 paths select the fast engine (no reference fallback) and
    stay bit-identical to the reference engine."""
    hypothesis.assume(runnable(scenario))
    ref = run(scenario.replace(engine="reference"))
    fast = run(scenario.replace(engine="fast"))
    assert ref.engine == "reference"
    assert fast.engine == "fast"  # the whole point: no silent fallback
    assert_reports_identical(ref, fast, "reference vs fast (model2/ABI)")


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.lists(model2_and_abi_scenarios(), min_size=3, max_size=6))
def test_model2_and_abi_workers_bit_identical(batch):
    """Pooled run_batch of the new paths matches the serial run."""
    batch = [s for s in batch if runnable(s)]
    hypothesis.assume(len(batch) >= 2)
    serial = run_batch(batch, workers=1)
    pooled = run_batch(batch, workers=4)
    for one, many in zip(serial, pooled):
        assert_reports_identical(one, many, "serial vs pooled (model2/ABI)")


@st.composite
def batch_heterogeneous(draw):
    """Batches dense in the stacked-engine seams (PR 6): mixed grid sizes
    and horizons, batch-eligible policies (greedy priorities, ntg, native
    edd) interleaved with ineligible ones (planners, the edd adapter
    path), every scenario requesting ``engine="batch"``, plus injected
    duplicates -- so one batch exercises stacking, per-scenario fallback,
    and duplicate collapse together.  An anchor scenario with a stackable
    algorithm is drawn into every batch, so a batch stacks unless the
    anchor cannot run on its network."""
    batch = draw(st.lists(scenarios(), min_size=1, max_size=5))
    anchor = draw(scenarios())
    anchor = anchor.replace(algorithm=draw(st.sampled_from((
        {"name": "greedy", "params": {"priority": "fifo"}},
        {"name": "ntg", "params": {}},
        {"name": "edd", "params": {"adapter": False}},
    ))))
    batch.insert(draw(st.integers(0, len(batch))), anchor)
    batch = [s.replace(engine="batch") for s in batch]
    extra = draw(st.lists(st.integers(0, len(batch) - 1), max_size=2))
    batch += [batch[i] for i in extra]
    return batch


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(batch_heterogeneous())
def test_batch_engine_bit_identical(batch):
    """run_batch of an engine="batch" batch -- stacked eligible subset,
    per-scenario fallback for the rest -- matches the serial per-scenario
    reference runs bit-for-bit, including meta."""
    batch = [s for s in batch if runnable(s)]
    hypothesis.assume(len(batch) >= 2)
    stacked = run_batch(batch, workers=1)
    for scenario, report in zip(batch, stacked):
        solo = run(scenario.replace(engine="reference"))
        assert_reports_identical(solo, report, "serial reference vs batch")


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(batch=batch_heterogeneous())
def test_batch_engine_cache_stats_identical(batch, tmp_path_factory):
    """With the cache on, a batch-engine run and a plain run produce the
    same accounting: one lookup per position, one store per unique
    scenario -- stacking must not change what is cached or counted."""
    batch = [s for s in batch if runnable(s)]
    hypothesis.assume(len(batch) >= 2)
    plain = [s.replace(engine=None) for s in batch]
    d1 = tmp_path_factory.mktemp("batch-cache")
    d2 = tmp_path_factory.mktemp("plain-cache")
    stacked = run_batch(batch, cache="readwrite", cache_dir=d1)
    serial = run_batch(plain, cache="readwrite", cache_dir=d2)
    assert vars(stacked.cache_stats) == vars(serial.cache_stats)
    # and the stacked run's entries replay for the *other* engine choice
    # (digests exclude the engine): a warmed cache is warmed for everyone
    replay = run_batch(plain, cache="read", cache_dir=d1)
    assert replay.cache_stats.hits == len(batch)
    for a, b in zip(replay, serial):
        assert_reports_identical(a, b, "cross-engine cache replay")


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(scenarios())
def test_cd_bound_valid_and_no_looser_than_maxflow(scenario):
    """The C+D bound is a true offline bound on every fuzz draw
    (``cd >= throughput`` -- no online algorithm may beat it) and by
    construction never looser than the max-flow relaxation."""
    hypothesis.assume(runnable(scenario))
    report = run(scenario, bound_method="cd")
    assert report.meta["bound_method"] == "cd"
    assert report.bound >= report.throughput, (
        f"cd bound {report.bound} below achieved throughput "
        f"{report.throughput} for {scenario}")
    from repro.baselines.offline import offline_bound

    network = scenario.network.build()
    _, requests = scenario.build_instance(network)
    maxflow = offline_bound(network, requests, scenario.horizon,
                            method="maxflow")
    assert report.bound <= maxflow, (
        f"cd bound {report.bound} looser than maxflow {maxflow} "
        f"for {scenario}")


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(scenarios())
def test_serialization_round_trip_identical(scenario):
    """A scenario that survived JSON still produces the same report --
    the cache stores scenarios as JSON, so this is load-bearing."""
    hypothesis.assume(runnable(scenario))
    clone = Scenario.from_json(scenario.to_json())
    assert clone.digest() == scenario.digest()
    assert_reports_identical(run(scenario), run(clone), "json round-trip")
