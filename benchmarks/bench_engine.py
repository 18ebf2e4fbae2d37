"""Performance micro-benchmarks for the substrate (profiling targets).

Per the hpc-parallel guides ("no optimization without measuring"), these
pin the throughput of the hot paths: the synchronous step engine, the
array-backed fast engine, the space-time load ledger, the max-flow
offline bound (scipy's ``maximum_flow`` on the space-time graph), and the
deterministic pipeline end to end.  They carry no paper claim -- they
exist so regressions in the substrate are visible.

Set ``REPRO_ENGINE=fast`` to run the whole bench suite (this file and the
experiment benches) on the array-backed engine; see
:mod:`repro.network.engine`.

Ported to the :mod:`repro.api` Scenario layer: engine comparisons run the
same declarative ``Scenario`` under ``engine="reference"`` vs
``engine="fast"`` through ``run_batch`` and read per-run ``engine_time``
from the reports.  All timing runs use ``cache="off"`` and
``compute_bound=False`` -- replaying a wall-clock measurement from the
result cache (or paying a max-flow bound) would make the speedup
meaningless, which is also why the ``ENGINE_*`` output files are exempt
from CI's byte-identity check.
"""

from __future__ import annotations

import json
import time

from conftest import OUTPUT_DIR, SMOKE, emit

import pytest

from repro.analysis.tables import format_table
from repro.api import NetworkSpec, Scenario, WorkloadSpec, run_batch
from repro.network import kernel
from repro.network.engine import resolve_engine_name

#: measured fields that must be bit-identical across engines
_MEASURES = ("throughput", "late", "rejected", "preempted", "steps",
             "latency_mean", "latency_max")


def _merge_bench_record(name: str, record: dict) -> None:
    """Read-modify-write one named record into ``BENCH_engine.json``.

    The trajectory file is a dict keyed by bench name so the sweep and
    kernel benches coexist regardless of test execution order.  A legacy
    single-record file (the pre-kernel flat layout, recognizable by its
    top-level ``"bench"`` key) is folded in under that key.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_engine.json"
    records = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
        if isinstance(existing, dict):
            if "bench" in existing:  # legacy flat layout
                records[str(existing["bench"])] = existing
            else:
                records = existing
    records[name] = dict(record, bench=name)
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


@pytest.mark.skipif(SMOKE, reason="speedup floor needs the full-size grid")
def test_engine_speedup():
    """Reference vs fast engine on the largest grid workload of the suite.

    The acceptance bar for the array-backed engine: >= 5x wall-clock on a
    congested 48x48 grid with 20k requests, with identical measurements
    (full status-map equality is enforced by tests/test_fast_engine.py
    and tests/test_differential.py).
    """
    net = NetworkSpec("grid", (48, 48), 1, 1)
    horizon = 128 + 2 * (48 + 48)
    workload = WorkloadSpec("uniform", {"num": 20_000, "horizon": 128})
    rows = []
    speedups = {}
    for algo, label in (({"name": "greedy", "params": {"priority": "fifo"}},
                         "greedy/fifo"), ("ntg", "ntg")):
        ref, fast = run_batch(
            [Scenario(net, workload, algo, horizon=horizon, seed=7,
                      engine=engine) for engine in ("reference", "fast")],
            cache="off", compute_bound=False)
        for field in _MEASURES:
            assert getattr(fast, field) == getattr(ref, field), field
        speedups[label] = ref.engine_time / max(1e-9, fast.engine_time)
        rows.append([label, ref.throughput, f"{ref.engine_time:.3f}",
                     f"{fast.engine_time:.3f}", f"{speedups[label]:.1f}x"])
    emit(
        "ENGINE_speedup",
        format_table(
            ["policy", "throughput", "reference_s", "fast_s", "speedup"],
            rows,
            title=f"engine speedup on {net} ({workload})",
        ),
    )
    assert max(speedups.values()) >= 5.0, speedups


def _sweep_shaped_batch(n: int, engine=None) -> list:
    """A sweep-shaped batch: many *small* grids with long horizons and
    sparse workloads -- the regime where per-scenario numpy call overhead
    dominates the fast engine and stacking pays.  Mixed shapes, seeds,
    priorities, and policy families, like a real parameter sweep."""
    scenarios = []
    algos = ({"name": "greedy", "params": {"priority": "fifo"}},
             {"name": "greedy", "params": {"priority": "lifo"}},
             {"name": "greedy", "params": {"priority": "longest"}},
             "ntg",
             {"name": "edd", "params": {}})
    for i in range(n):
        side = 4 + (i % 3)
        scenarios.append(Scenario(
            NetworkSpec("grid", (side, side), 2, 2),
            WorkloadSpec("uniform", {"num": 10 + (i % 4), "horizon": 48}),
            algos[i % len(algos)],
            horizon=96, seed=i // len(algos), engine=engine))
    return scenarios


def test_batch_engine_sweep_speedup():
    """The stacked batch engine vs the process pool on a 200-scenario
    small-grid sweep.  Like ``test_engine_speedup`` the floor is pinned
    on *engine execution* (per-run ``engine_time`` from the reports):
    the pooled path pays ~30 numpy calls per scenario per step, the
    stack pays one grouped pass per step for the whole sweep, so summed
    engine time must drop >= 10x.  End-to-end wall clock of the three
    ``run_batch`` calls is recorded alongside (it additionally carries
    the scenario layer -- workload generation, report assembly -- which
    is identical across modes and dilutes the wall ratio on small
    sweeps).  Measurements stay bit-identical across all three modes.
    The timing trajectory lands in BENCH_engine.json for CI to archive
    per run."""
    n = 30 if SMOKE else 200
    t0 = time.perf_counter()
    serial = run_batch(_sweep_shaped_batch(n, engine="fast"),
                       workers=1, cache="off", compute_bound=False)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = run_batch(_sweep_shaped_batch(n, engine="fast"),
                       workers=4, cache="off", compute_bound=False)
    pooled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    stacked = run_batch(_sweep_shaped_batch(n, engine="batch"),
                        workers=1, cache="off", compute_bound=False)
    batch_s = time.perf_counter() - t0

    for one, many, fused in zip(serial, pooled, stacked):
        assert fused.engine == "batch"
        for field in _MEASURES:
            assert getattr(fused, field) == getattr(one, field) \
                == getattr(many, field), field

    serial_es = sum(r.engine_time for r in serial)
    pooled_es = sum(r.engine_time for r in pooled)
    batch_es = sum(r.engine_time for r in stacked)
    record = {
        "n_scenarios": n,
        "smoke": bool(SMOKE),
        "serial_wall_s": round(serial_s, 4),
        "pooled_wall_s": round(pooled_s, 4),
        "batch_wall_s": round(batch_s, 4),
        "serial_engine_s": round(serial_es, 4),
        "pooled_engine_s": round(pooled_es, 4),
        "batch_engine_s": round(batch_es, 4),
        # headline floor: summed engine execution, pooled vs stacked
        "speedup_batch_vs_pooled": round(pooled_es / max(1e-9, batch_es), 2),
        "speedup_batch_vs_serial": round(serial_es / max(1e-9, batch_es), 2),
        "wall_speedup_batch_vs_pooled": round(pooled_s / max(1e-9, batch_s), 2),
        "wall_speedup_batch_vs_serial": round(serial_s / max(1e-9, batch_s), 2),
    }
    _merge_bench_record("batch_engine_sweep", record)
    emit(
        "ENGINE_batch_sweep",
        format_table(
            ["mode", "wall_s", "engine_s", "engine_speedup_vs_pooled"],
            [["serial (workers=1, fast)", f"{serial_s:.3f}",
              f"{serial_es:.3f}", f"{pooled_es / max(1e-9, serial_es):.1f}x"],
             ["pooled (workers=4, fast)", f"{pooled_s:.3f}",
              f"{pooled_es:.3f}", "1.0x"],
             ["stacked (engine=batch)", f"{batch_s:.3f}",
              f"{batch_es:.3f}",
              f"{record['speedup_batch_vs_pooled']}x"]],
            title=f"sweep-shaped batch of {n} small grids",
        ),
    )
    if not SMOKE:
        assert record["speedup_batch_vs_pooled"] >= 10.0, record


def test_kernel_speedup():
    """Numpy vs numba step kernel on the congested-grid workload.

    Both backends run the *same* fast-engine program; only the admission
    kernel (:mod:`repro.network.kernel`) differs, so measurements must be
    bit-identical and ``meta["kernel"]`` must record the selected backend
    (no silent fallback).  With numba installed, the compiled kernel must
    cut fast-engine execution >= 2x on the full-size grid after an
    untimed warmup run that pays JIT compilation; without numba the test
    still records the numpy timing so the trajectory file carries a
    kernel row on every CI leg.
    """
    side, num, wl_h = (16, 2_000, 64) if SMOKE else (48, 20_000, 128)
    net = NetworkSpec("grid", (side, side), 1, 1)
    workload = WorkloadSpec("uniform", {"num": num, "horizon": wl_h})

    def run_under(name):
        with kernel.using(name):
            report, = run_batch(
                [Scenario(net, workload, "ntg",
                          horizon=wl_h + 2 * (side + side), seed=7,
                          engine="fast")],
                cache="off", compute_bound=False)
        assert report.meta["kernel"] == name, report.meta
        return report

    numpy_report = run_under("numpy")
    record = {
        "smoke": bool(SMOKE),
        "numba_available": kernel.numba_available(),
        "numpy_engine_s": round(numpy_report.engine_time, 4),
        "numba_engine_s": None,
        "speedup_numba_vs_numpy": None,
    }
    rows = [["numpy", f"{numpy_report.engine_time:.3f}", "1.0x"]]
    if kernel.numba_available():
        run_under("numba")  # warmup: pays JIT compilation, untimed
        numba_report = run_under("numba")
        for field in _MEASURES:
            assert getattr(numba_report, field) \
                == getattr(numpy_report, field), field
        speedup = numpy_report.engine_time \
            / max(1e-9, numba_report.engine_time)
        record["numba_engine_s"] = round(numba_report.engine_time, 4)
        record["speedup_numba_vs_numpy"] = round(speedup, 2)
        rows.append(["numba", f"{numba_report.engine_time:.3f}",
                     f"{speedup:.1f}x"])
    _merge_bench_record("kernel", record)
    emit(
        "ENGINE_kernel",
        format_table(
            ["kernel", "engine_s", "speedup"], rows,
            title=f"step kernel backends on {net} ({workload})",
        ),
    )
    if kernel.numba_available() and not SMOKE:
        assert record["speedup_numba_vs_numpy"] >= 2.0, record


def test_engine_env_selection():
    """The suite-wide engine switch: run on whatever REPRO_ENGINE selects
    (CI smokes this file under both values)."""
    name = resolve_engine_name()
    report, = run_batch([
        Scenario(NetworkSpec("grid", (12, 12), 2, 2),
                 WorkloadSpec("uniform", {"num": 800, "horizon": 64}),
                 "greedy", horizon=256, seed=11)
    ], cache="off", compute_bound=False)
    assert report.engine == name
    emit(
        "ENGINE_selected",
        format_table(
            ["engine", "throughput", "steps"],
            [[report.engine, report.throughput, report.steps]],
            title="suite engine selection smoke",
        ),
    )
    assert report.throughput > 0


def test_simulator_step_rate(benchmark):
    scenario = Scenario(NetworkSpec("line", (64,), 2, 2),
                        WorkloadSpec("uniform", {"num": 300, "horizon": 128}),
                        "ntg", horizon=512, seed=0, engine="reference")

    def run():
        report, = run_batch([scenario], cache="off", compute_bound=False)
        return report.throughput

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result > 0


def test_ledger_add_remove(benchmark):
    from repro.network.topology import LineNetwork
    from repro.spacetime.graph import STPath, SpaceTimeGraph

    net = LineNetwork(64, buffer_size=4, capacity=4)
    graph = SpaceTimeGraph(net, 256)
    paths = [
        STPath((i % 32, 2 * i % 64), (0, 1) * 8, rid=i) for i in range(64)
    ]

    def run():
        ledger = graph.ledger()
        for p in paths:
            ledger.add_path(p, strict=False)
        for p in paths:
            ledger.remove_path(p)
        return ledger.total_load()

    assert benchmark.pedantic(run, rounds=5, iterations=1) == 0


def test_maxflow_bound_spacetime(benchmark):
    from repro.network.topology import LineNetwork
    from repro.packing.maxflow import throughput_upper_bound
    from repro.workloads.uniform import uniform_requests

    net = LineNetwork(64, buffer_size=1, capacity=1)
    reqs = uniform_requests(net, 150, 64, rng=1)

    def run():
        return throughput_upper_bound(net, reqs, 256)

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


def test_deterministic_pipeline(benchmark):
    scenario = Scenario(NetworkSpec("line", (32,), 3, 3),
                        WorkloadSpec("uniform", {"num": 100, "horizon": 32}),
                        "det", horizon=128, seed=2)

    def run():
        report, = run_batch([scenario], cache="off", compute_bound=False)
        return report.throughput

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0
