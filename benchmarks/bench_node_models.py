"""E14 -- Figure 12 / Appendix F: the two node-functionality models.

Model 1 ([ARSU02, RR09], the paper's model) lets a packet cut through a
node while another is buffered; Model 2 ([AZ05, AKK09]) funnels everything
through the buffer.  The bench reproduces the B = c = 1 separation
instance (Model 1 delivers both packets, Model 2 can only deliver one) and
sweeps NTG throughput under both models on shared workloads.

Ported to the :mod:`repro.api` Scenario layer: Model 2 is the registered
``ntg-model2`` algorithm, the separation instance is the registered
``separation`` workload, and both experiments run through ``run_batch``
-- by the seeding contract the two models see identical request
sequences at every (n, seed) point.

Since PR 4 the whole experiment runs on *both* engines: under
``engine="fast"``, ``ntg-model2`` runs :class:`FastModel2Engine`, the
Model 2 rule as a decision program of the Model 1 array loop (so every
decision passes that loop's checks), and every E14 point asserts
reference/fast bit-identity before reporting.
``test_model2_engine_speedup`` pins the payoff (fast >= 3x on the E14
sweep scale, each side the fastest of three runs; about 5x measured,
with the loop's decision checks).  The instance is a
:class:`~repro.network.packet.RequestTable`: the fast engine reads its
columns, while the reference engine builds its 2048 request objects
inside its own ``engine_time``.  It
needs the full-size sweep, so it is skipped under ``REPRO_BENCH_SMOKE``;
CI runs it on its own.  Like every wall-clock table it runs with
``cache="off"`` and emits an ``ENGINE_*`` output, which is exempt from
CI's byte-identity check.
"""

from __future__ import annotations

from conftest import SMOKE, emit, seeds, trim

import pytest

from repro.analysis.tables import format_table
from repro.api import NetworkSpec, Scenario, WorkloadSpec, run_batch

SIZES = trim((16, 32, 64))
TRIALS = 4
MODELS = ("ntg", "ntg-model2")
ENGINES = ("reference", "fast")
RUNS = 3  # per side of the speedup bar; the fastest counts

#: measured fields that must be bit-identical across engines
_MEASURES = ("throughput", "late", "rejected", "preempted", "steps",
             "latency_mean", "latency_max")


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # nan-safe


def _assert_engine_parity(ref, fast, context: str) -> None:
    for field in _MEASURES:
        assert _same(getattr(ref, field), getattr(fast, field)), (
            f"{context}: {field} diverged across engines")


def run_separation():
    scenarios = [
        Scenario(NetworkSpec("line", (3,), 1, 1), WorkloadSpec("separation"),
                 algo, horizon=10, engine=engine)
        for algo in MODELS
        for engine in ENGINES
    ]
    m1_ref, m1_fast, m2_ref, m2_fast = run_batch(scenarios)
    _assert_engine_parity(m1_ref, m1_fast, "separation model 1")
    _assert_engine_parity(m2_ref, m2_fast, "separation model 2")
    return [["separation (B=c=1)", m1_ref.throughput, m2_ref.throughput]]


def run_model_sweep():
    trials = list(seeds(TRIALS))
    scenarios = [
        Scenario(NetworkSpec("line", (n,), 1, 1),
                 WorkloadSpec("uniform", {"num": 2 * n, "horizon": n}),
                 algo, horizon=4 * n, seed=seed, engine=engine)
        for n in SIZES
        for seed in trials
        for algo in MODELS
        for engine in ENGINES
    ]
    reports = dict(zip(
        ((s.network.dims[0], s.seed, s.algorithm.name, s.engine)
         for s in scenarios),
        run_batch(scenarios, workers=2),
    ))
    rows = []
    for n in SIZES:
        for seed in trials:
            for algo in MODELS:
                _assert_engine_parity(
                    reports[(n, seed, algo, "reference")],
                    reports[(n, seed, algo, "fast")],
                    f"E14 sweep n={n} seed={seed} {algo}",
                )
        t1 = sum(reports[(n, s, "ntg", "reference")].throughput
                 for s in trials)
        t2 = sum(reports[(n, s, "ntg-model2", "reference")].throughput
                 for s in trials)
        rows.append([n, t1 / len(trials), t2 / len(trials)])
    return rows


def test_model_separation(once):
    rows = once(run_separation)
    emit(
        "E14_separation",
        format_table(
            ["instance", "Model 1", "Model 2"],
            rows,
            title="E14/Appendix F -- the remark-1 separation instance "
            "(Model 1 keeps both packets; Model 2 must drop one)",
        ),
    )
    assert rows[0][1] == 2 and rows[0][2] == 1


def test_model_throughput_sweep(once):
    rows = once(run_model_sweep)
    emit(
        "E14_model_sweep",
        format_table(
            ["n", "Model 1 NTG", "Model 2 NTG"],
            rows,
            title="E14/Appendix F -- NTG throughput under the two node "
            "models (Model 1 dominates; both engines bit-identical)",
        ),
    )
    for row in rows:
        assert row[1] >= row[2]  # Model 1 is strictly stronger


@pytest.mark.skipif(SMOKE, reason="speedup floor needs the full-size sweep")
def test_model2_engine_speedup():
    """The PR-4 acceptance bar: the vectorized Model 2 engine is >= 3x
    faster than the per-packet reference loop on the E14 sweep scale."""
    n = 256
    net = NetworkSpec("line", (n,), 1, 1)
    workload = WorkloadSpec("uniform", {"num": 8 * n, "horizon": 2 * n})
    rows = []
    speedups = {}
    for algo in MODELS:
        # each side is timed as the fastest of RUNS runs: one run a side
        # read anywhere from 3.6x to 7.1x on one commit
        runs = [run_batch(
            [Scenario(net, workload, algo, horizon=4 * n, seed=7,
                      engine=engine) for engine in ENGINES],
            cache="off", compute_bound=False) for _ in range(RUNS)]
        for ref, fast in runs:
            _assert_engine_parity(ref, fast, f"speedup instance {algo}")
            assert ref.engine == "reference" and fast.engine == "fast"
        ref = min((ref for ref, _fast in runs), key=lambda r: r.engine_time)
        fast = min((fast for _ref, fast in runs),
                   key=lambda r: r.engine_time)
        speedups[algo] = ref.engine_time / max(1e-9, fast.engine_time)
        rows.append([algo, ref.throughput, f"{ref.engine_time:.3f}",
                     f"{fast.engine_time:.3f}", f"{speedups[algo]:.1f}x"])
    emit(
        "ENGINE_model2_speedup",
        format_table(
            ["algorithm", "throughput", "reference_s", "fast_s", "speedup"],
            rows,
            title=f"node-model engine speedup on {net} ({workload})",
        ),
    )
    assert speedups["ntg-model2"] >= 3.0, speedups
