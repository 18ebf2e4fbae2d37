"""Tests for the analysis harness (metrics, runner, tables)."""

import math
import os
import subprocess
import sys

import pytest

from repro.analysis.metrics import Evaluation, competitive_ratio, evaluate_plan, evaluate_policy
from repro.analysis.runner import ExperimentResult, run_trials, sweep
from repro.analysis.tables import format_table
from repro.baselines.greedy import run_greedy
from repro.core.base import Plan, RouteOutcome
from repro.core.deterministic.variants import BufferlessLineRouter
from repro.network.topology import LineNetwork
from repro.spacetime.graph import STPath
from repro.util.errors import ReproError
from repro.workloads.uniform import uniform_requests


class TestEvaluation:
    def test_ratio(self):
        ev = Evaluation(throughput=5, bound=10.0, requests=20)
        assert ev.ratio == 2.0
        assert ev.goodput == 0.5

    def test_zero_throughput(self):
        ev = Evaluation(throughput=0, bound=10.0, requests=20)
        assert ev.ratio == math.inf

    def test_empty_instance(self):
        ev = Evaluation(throughput=0, bound=0.0, requests=0)
        assert ev.ratio == 1.0 and ev.goodput == 1.0

    def test_evaluate_policy(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 10, 8, rng=0)
        res = run_greedy(net, reqs, 40)
        ev = evaluate_policy(net, res, reqs, 40)
        assert ev.throughput == res.throughput
        assert ev.bound >= ev.throughput

    def test_evaluate_plan_verifies(self):
        net = LineNetwork(8, buffer_size=0, capacity=1)
        reqs = uniform_requests(net, 8, 8, rng=1)
        plan = BufferlessLineRouter(net, 32).route(reqs)
        ev = evaluate_plan(net, plan, reqs, 32)
        assert ev.throughput == plan.throughput

    def test_evaluate_plan_detects_mismatch(self):
        net = LineNetwork(8, buffer_size=0, capacity=1)
        reqs = uniform_requests(net, 4, 4, rng=2)
        plan = Plan()
        # claim a delivery with a path that does not reach the destination
        r = reqs[0]
        bogus = STPath((r.source[0], r.arrival - r.source[0]), (), rid=r.rid)
        plan.record(r.rid, RouteOutcome.DELIVERED, bogus)
        if r.distance > 0:
            with pytest.raises(ReproError):
                evaluate_plan(net, plan, reqs, 32)

    def test_competitive_ratio_function(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 6, 6, rng=3)
        assert competitive_ratio(net, 3, reqs, 30) >= 1.0


class TestRunner:
    def test_experiment_result_stats(self):
        r = ExperimentResult("x")
        for v in (1.0, 2.0, 3.0):
            r.add(v)
        assert r.mean == 2.0 and r.best == 1.0 and r.worst == 3.0
        assert r.std > 0

    def test_infinities_excluded_from_mean(self):
        r = ExperimentResult("x")
        r.add(1.0)
        r.add(math.inf)
        # best/worst use the same finite filter as mean/std
        assert r.mean == 1.0 and r.worst == 1.0 and r.best == 1.0

    def test_nan_does_not_poison_extremes(self):
        r = ExperimentResult("x")
        for v in (2.0, math.nan, 1.0, 3.0):
            r.add(v)
        assert r.best == 1.0 and r.worst == 3.0
        assert r.mean == 2.0

    def test_all_nonfinite_extremes(self):
        r = ExperimentResult("x")
        r.add(math.nan)
        r.add(math.inf)
        assert math.isnan(r.best) and math.isnan(r.worst)

    def test_all_nonfinite_mean_and_std_are_nan(self):
        # regression: mean used to report inf (and std 0.0) when *every*
        # trial was non-finite, which made a fully-poisoned aggregate look
        # like a clean divergent one
        r = ExperimentResult("x")
        r.add(math.inf)
        r.add(math.nan)
        assert math.isnan(r.mean) and math.isnan(r.std)
        empty = ExperimentResult("empty")
        assert math.isnan(empty.mean) and math.isnan(empty.std)

    def test_run_trials_deterministic(self):
        a = run_trials(lambda rng: float(rng.integers(0, 100)), 5, base_seed=1)
        b = run_trials(lambda rng: float(rng.integers(0, 100)), 5, base_seed=1)
        assert a.values == b.values
        assert len(a.values) == 5

    def test_sweep_shape(self):
        out = sweep(lambda p, rng: float(p * 2), [1, 2, 3], seeds=2)
        assert set(out) == {1, 2, 3}
        assert out[2].mean == 4.0

    def test_summary_text(self):
        r = ExperimentResult("ratio")
        r.add(2.0)
        assert "ratio" in r.summary() and "mean=2.000" in r.summary()


def _probe_metric(point, rng):
    """Module-level sweep metric so ``workers > 1`` can pickle it."""
    scale = point[1] if isinstance(point, tuple) else point
    return float(rng.uniform()) + 100.0 * scale


_SWEEP_SCRIPT = """\
from repro.analysis.runner import sweep

def metric(point, rng):
    scale = point[1] if isinstance(point, tuple) else point
    return float(rng.uniform()) + 100.0 * scale

for workers in (None, 2):
    out = sweep(metric, [("a", 1), ("b", 2), 3], seeds=4, base_seed=7,
                workers=workers)
    for point, result in out.items():
        print(workers, point, [v.hex() for v in result.values])
"""


class TestSweepReproducibility:
    def _run_with_hashseed(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_SCRIPT],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_sweep_stable_across_hash_randomization(self):
        # hash(str) differs between these two processes; sweep values must not
        a = self._run_with_hashseed("12345")
        b = self._run_with_hashseed("54321")
        assert a == b
        assert a.strip()  # the script really produced output

    def test_workers_bit_identical_to_serial(self):
        points = [("a", 1), ("b", 2), 3]
        serial = sweep(_probe_metric, points, seeds=4, base_seed=7)
        pooled = sweep(_probe_metric, points, seeds=4, base_seed=7, workers=2)
        assert set(serial) == set(pooled)
        for point in points:
            assert serial[point].values == pooled[point].values

    def test_distinct_points_get_distinct_streams(self):
        out = sweep(_probe_metric, [("a", 1), ("b", 1)], seeds=3, base_seed=0)
        frac = lambda vs: [v % 1.0 for v in vs]
        assert frac(out[("a", 1)].values) != frac(out[("b", 1)].values)

    def test_same_point_reproducible_in_process(self):
        a = sweep(_probe_metric, [3], seeds=5, base_seed=9)
        b = sweep(_probe_metric, [3], seeds=5, base_seed=9)
        assert a[3].values == b[3].values

    def test_zero_seeds_yields_empty_results(self):
        out = sweep(_probe_metric, [1, 2], seeds=0)
        assert set(out) == {1, 2}
        assert all(r.values == [] for r in out.values())

    def test_duplicate_points_do_not_misalign_values(self):
        dup = sweep(_probe_metric, [1, 1, 2], seeds=2)
        plain = sweep(_probe_metric, [1, 2], seeds=2)
        assert dup[1].values == plain[1].values
        assert dup[2].values == plain[2].values


class TestTables:
    def test_format_basic(self):
        text = format_table(["n", "ratio"], [[8, 1.5], [16, 2.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "ratio" in lines[1]
        assert "2.250" in text

    def test_column_alignment(self):
        text = format_table(["a", "bbbb"], [["x", "y"]])
        header, sep, row = text.splitlines()
        assert len(header) == len(row)
