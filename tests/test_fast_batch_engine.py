"""Stacked batch engine: parity, eligibility, and run_batch integration.

:class:`~repro.network.fast_batch_engine.FastBatchEngine` runs a whole
group of scenarios as one fused array program.  Its contract is the same
as the fast engine's, lifted to batches: for every job in the stack, the
result must be bit-identical to running that job alone through
:class:`~repro.network.fast_engine.FastEngine` -- across heterogeneous
grid shapes, buffer/capacity settings, policy families, and horizons,
and regardless of which other jobs share the stack.

The run-level tests pin the integration seams: eligibility partitioning
in ``run_batch`` (an explicit ``engine="batch"`` batch with nothing to
stack runs per scenario, so every shard of a batch runs), the
warmed-cache short-circuit (no stacked execution at all), and the
on-disk offline-bound tier shared across algorithms.

Two tests pin the loop's cheaper tick at the sizes that use it: a
congested 24x24 instance whose ticks rank more than
``kernel.PACKED_SORT_ROWS`` rows, and the per-run count table of
``_enforce_loads``, compared with the ``np.unique`` count it replaced.
The size guard refuses an oversized stack before it allocates.
"""

import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    NetworkSpec,
    Scenario,
    WorkloadSpec,
    merge,
    plan_shards,
    run,
    run_batch,
    run_shard,
)
from repro.api.registry import ALGORITHMS
from repro.api.run import _batch_reason
from repro.baselines.edd import EarliestDeadlinePolicy
from repro.baselines.greedy import GreedyPolicy
from repro.baselines.nearest_to_go import NearestToGoPolicy
from repro.core.deterministic import DeterministicRouter
from repro.network.engine import StepView, VectorDecision
from repro.network import fast_batch_engine
from repro.network.fast_batch_engine import FastBatchEngine, _enforce_loads
from repro.network.fast_engine import FastEngine
from repro.network.packet import Request, RequestTable
from repro.network.simulator import Decision, PlanPolicy, Policy, Simulator
from repro.network.topology import GridNetwork, LineNetwork, TorusNetwork
from repro.util.errors import CapacityError, ValidationError
from repro.workloads import (
    deadline_requests,
    poisson_requests,
    uniform_requests,
)
from test_kernel import packed_calls

STAT_FIELDS = (
    "delivered", "late", "rejected", "preempted", "forwards", "stores",
    "max_link_load", "max_buffer_load", "steps",
)

run_module = sys.modules["repro.api.run"]


def assert_results_identical(batch_result, solo_result, context):
    for name in STAT_FIELDS:
        assert getattr(batch_result.stats, name) \
            == getattr(solo_result.stats, name), (context, name)
    assert batch_result.status == solo_result.status, context
    assert batch_result.stats.delivery_times \
        == solo_result.stats.delivery_times, context
    assert batch_result.engine == "batch", context


class TestStackedParity:
    def _jobs(self):
        """A deliberately heterogeneous stack: 1-D and 2-D networks of
        different sizes, mixed B/c, every policy family, one empty job."""
        line8 = LineNetwork(8, buffer_size=2, capacity=1)
        grid45 = GridNetwork((4, 5), buffer_size=1, capacity=2)
        grid33 = GridNetwork((3, 3), buffer_size=0, capacity=1)
        line12 = LineNetwork(12, buffer_size=3, capacity=2)
        grid55 = GridNetwork((5, 5), buffer_size=2, capacity=1)
        line6 = LineNetwork(6, buffer_size=1, capacity=1)
        return [
            (line8, GreedyPolicy("fifo"),
             uniform_requests(line8, 25, 10, rng=0), 40),
            (grid45, GreedyPolicy("lifo"),
             uniform_requests(grid45, 30, 12, rng=1), 48),
            (grid33, NearestToGoPolicy(),
             poisson_requests(grid33, 1.0, 10, rng=2), 30),
            (line12, EarliestDeadlinePolicy(),
             deadline_requests(line12, 20, 10, slack=4, rng=3), 44),
            (grid55, GreedyPolicy("longest"),
             uniform_requests(grid55, 40, 15, rng=4), 60),
            (line6, GreedyPolicy("fifo"), [], 20),
        ]

    def test_heterogeneous_stack_matches_fast_engine(self):
        jobs = self._jobs()
        stacked = FastBatchEngine(jobs).run_many()
        assert len(stacked) == len(jobs)
        # request ids are globally unique, so the solo reruns reuse the
        # exact job tuples (engines never mutate requests)
        for i, (net, policy, reqs, horizon) in enumerate(jobs):
            solo = FastEngine(net, policy).run(reqs, horizon)
            assert_results_identical(stacked[i], solo, f"job {i}")

    def test_stack_order_does_not_matter(self):
        jobs = self._jobs()
        forward = FastBatchEngine(jobs).run_many()
        backward = FastBatchEngine(jobs[::-1]).run_many()[::-1]
        for i, (f, b) in enumerate(zip(forward, backward)):
            for name in STAT_FIELDS:
                assert getattr(f.stats, name) == getattr(b.stats, name), \
                    (i, name)
            assert f.status == b.status, i

    def test_plan_replay_stacks_with_online_policies(self):
        """Compiled plan programs from different planner instances merge
        into one stacked program alongside greedy jobs."""
        jobs = []
        for n, seed in ((8, 0), (10, 1)):
            net = LineNetwork(n, buffer_size=3, capacity=3)
            reqs = uniform_requests(net, 12, 8, rng=seed)
            plan = DeterministicRouter(net, 40).route(reqs)
            jobs.append((net, PlanPolicy(net, plan.all_executable_paths()),
                         reqs, 40))
        grid = GridNetwork((4, 4), buffer_size=1, capacity=1)
        jobs.append((grid, GreedyPolicy("fifo"),
                     uniform_requests(grid, 20, 10, rng=2), 32))
        stacked = FastBatchEngine(jobs).run_many()
        for i, (net, policy, reqs, horizon) in enumerate(jobs):
            solo = FastEngine(net, policy).run(reqs, horizon)
            assert_results_identical(stacked[i], solo, f"plan job {i}")

    def test_empty_batch(self):
        assert FastBatchEngine([]).run_many() == []

    def test_single_job_stack(self):
        net = LineNetwork(7, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 15, 8, rng=5)
        stacked = FastBatchEngine(
            [(net, NearestToGoPolicy(), reqs, 30)]).run_many()
        solo = FastEngine(net, NearestToGoPolicy()).run(reqs, 30)
        assert_results_identical(stacked[0], solo, "single job")


class TestPackedSortAtScale:
    """reference == fast == batch where ticks rank more than
    ``kernel.PACKED_SORT_ROWS`` rows: on a 24x24 grid with B = c = 1,
    4000 uniform requests revealed over 24 steps leave about half of the
    ticks above 512 candidates.  The differential fuzz draws instances
    far too small to get there."""

    NETWORKS = {
        "grid": GridNetwork((24, 24), buffer_size=1, capacity=1),
        # a wrapping loop with a raised link: per-edge capacity table
        "torus-hotspot": TorusNetwork((24, 24), buffer_size=1, capacity=1,
                                      link_caps=(((11, 0), 0, 3),)),
    }

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_engines_identical(self, name):
        net = self.NETWORKS[name]
        reqs = uniform_requests(net, 4000, 24, rng=0)
        policies = [GreedyPolicy("fifo"), GreedyPolicy("lifo"),
                    GreedyPolicy("longest"), NearestToGoPolicy(),
                    EarliestDeadlinePolicy()]
        with packed_calls() as packed:
            # one mixed stack: the merged greedy program and EDD's
            stacked = FastBatchEngine(
                [(net, policy, reqs, 120) for policy in policies]).run_many()
            assert any(packed), "no tick of the stack packed its sort"
            packed.clear()
            fast = [FastEngine(net, policy).run(reqs, 120)
                    for policy in policies]
            assert any(packed), "no tick of the fast runs packed its sort"
        for i, (policy, one, many) in enumerate(zip(policies, fast,
                                                     stacked)):
            ref = Simulator(net, policy).run(reqs, 120)
            context = f"{name} job {i}"
            for field in STAT_FIELDS:
                assert getattr(one.stats, field) == getattr(ref.stats, field) \
                    == getattr(many.stats, field), (context, field)
            assert one.status == ref.status == many.status, context
            assert one.stats.delivery_times == ref.stats.delivery_times \
                == many.stats.delivery_times, context


class TestSizeGuard:
    def test_oversized_grid_refused_before_allocating(self):
        """Under a 1 GB address-space cap a 40000x40000 grid (3.2e9 node
        cells) raises ValidationError instead of a MemoryError or an OOM
        kill (in a subprocess, so a regression fails this test, not the
        whole run)."""
        proc = subprocess.run(
            [sys.executable, "-c", _GUARD_SCRIPT], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == (
            "refused: stack too large: 1 job(s) with 1 request(s) on "
            "1600000000 node(s) of dimension 2 need 3200000000 array cells "
            f"> MAX_CELLS = {fast_batch_engine.MAX_CELLS}; shrink the grid "
            "or the request set")

    def test_sweep_over_the_cap_runs_in_several_stacks(self, monkeypatch):
        """Two 8x8 jobs (128 node cells each) fit under a cap of 200 cells
        alone but not together: they run as two stacks, with the results
        of one stack.  Requests count by the same cap, and only a job
        that alone exceeds it is refused."""
        net = GridNetwork((8, 8), 2, 2)
        jobs = [(net, GreedyPolicy(p), [Request((0, 0), (1, 1), 0),
                                        Request((0, 1), (3, 1), 1)], 10)
                for p in ("fifo", "lifo", "fifo")]
        one_stack = FastBatchEngine(jobs).run_many()
        stacks = []
        run_stack = fast_batch_engine._run_stack

        def counting(stack, engine):
            stacks.append(len(stack))
            return run_stack(stack, engine)

        monkeypatch.setattr(fast_batch_engine, "_run_stack", counting)
        monkeypatch.setattr(fast_batch_engine, "MAX_CELLS", 200)
        split = FastBatchEngine(jobs).run_many()
        assert stacks == [1, 1, 1]
        for a, b in zip(one_stack, split):
            assert_results_identical(a, b, "split stack")
        monkeypatch.setattr(fast_batch_engine, "MAX_CELLS", 256)
        stacks.clear()
        FastBatchEngine(jobs).run_many()
        assert stacks == [2, 1]
        line = LineNetwork(4, 2, 2)
        many = [Request.line(0, 1, t, rid=t) for t in range(257)]
        with pytest.raises(ValidationError,
                           match=r"1 job\(s\) with 257 request\(s\) on 4 "):
            FastBatchEngine([jobs[0], (line, GreedyPolicy("fifo"), many,
                                       300)]).run_many()


#: the oversized stack of test_oversized_grid_refused_before_allocating,
#: under RLIMIT_AS
_GUARD_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.baselines import run_greedy
from repro.network.packet import Request
from repro.network.topology import GridNetwork
from repro.util.errors import ValidationError
try:
    run_greedy(GridNetwork((40000, 40000), 1, 1),
               [Request((0, 0), (1, 1), 0)], 10, engine="fast")
except ValidationError as exc:
    print("refused:", exc)
"""


def _enforce_loads_unique(groups, per_node, limit, node_job, maxima,
                          message) -> None:
    """The load check before the count table: counts by ``np.unique``.
    The reference :func:`_enforce_loads` is pinned against."""
    uniq, counts = np.unique(groups, return_counts=True)
    limits = limit if np.isscalar(limit) else limit[uniq]
    over = counts > limits
    if over.any():
        i = int(np.flatnonzero(over)[0])
        raise CapacityError(
            message.format(int(counts[i]),
                           int(np.broadcast_to(limits, over.shape)[i]))
            + ("" if node_job is None else
               f" (batch scenario {int(node_job[uniq[i] // per_node])})"))
    if node_job is None:
        maxima[0] = max(maxima[0], counts.max())
    else:
        np.maximum.at(maxima, node_job[uniq // per_node], counts)


@st.composite
def load_checks(draw):
    """Consecutive load checks of one run: ``(groups, per_node, limit,
    node_job, jobs, calls)``, with ``groups`` group ids in all.
    ``per_node`` is 1 for buffers and ``d`` for links;
    ``limit`` is a scalar or a table over group ids (``link_caps``, or
    per-node ``B`` in a mixed stack); ``node_job`` maps nodes to
    scenarios (``None`` for a stack of one)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_nodes = draw(st.integers(1, 30))
    per_node = draw(st.integers(1, 3))
    jobs = draw(st.integers(1, 3))
    node_job = None if jobs == 1 \
        else np.sort(rng.integers(0, jobs, size=n_nodes))
    groups = n_nodes * per_node
    limit = rng.integers(0, 4, size=groups) if draw(st.booleans()) \
        else draw(st.integers(0, 3))
    # rows crowd into the first few groups, so counts collide
    calls = [rng.integers(0, draw(st.integers(1, groups)),
                          size=draw(st.integers(1, 40)))
             for _ in range(draw(st.integers(1, 4)))]
    return groups, per_node, limit, node_job, jobs, calls


def _outcome(check, *args):
    try:
        check(*args)
    except CapacityError as exc:
        return str(exc)
    return None


class TestLoadTable:
    MESSAGE = "decision forwards {} > c={} on a link"

    @settings(max_examples=300)
    @given(load_checks())
    def test_matches_unique_counts(self, draw):
        """Same errors (the smallest offending group, its scenario) and
        the same per-scenario maxima as the ``np.unique`` count, call
        after call through one table."""
        n_groups, per_node, limit, node_job, jobs, calls = draw
        table = np.zeros(n_groups, dtype=np.int64)
        want, got = np.zeros(jobs, np.int64), np.zeros(jobs, np.int64)
        for groups in calls:
            expected = _outcome(_enforce_loads_unique, groups, per_node,
                                limit, node_job, want, self.MESSAGE)
            assert _outcome(_enforce_loads, groups, per_node, limit,
                            node_job, got, self.MESSAGE, table) == expected
            assert not table.any(), "the table kept counts between calls"
            if expected is not None:
                break  # a run ends at its first error
            assert got.tolist() == want.tolist()

    def test_second_call_not_inflated(self):
        table = np.zeros(8, dtype=np.int64)
        maxima = np.zeros(1, dtype=np.int64)
        _enforce_loads(np.array([3, 3, 5]), 1, 2, None, maxima,
                       self.MESSAGE, table)
        _enforce_loads(np.array([3, 5]), 1, 1, None, maxima,
                       self.MESSAGE, table)  # one row each: within c=1
        assert maxima.tolist() == [2]
        with pytest.raises(CapacityError,
                           match=r"^decision forwards 2 > c=1 on a link$"):
            _enforce_loads(np.array([6, 3, 6, 7]), 1, 1, None, maxima,
                           self.MESSAGE, table)

    def test_mixed_stack_error_names_scenario(self):
        """A labelled vector program that stores every packet, in a
        stack of two scenarios with different B (a per-node B table):
        of the second scenario's two overfull nodes, the error names the
        first, with its scenario -- the text it had before the table."""

        class Hoarder:
            batch_program = "hoard"

            def decide_vector(self, view):
                return VectorDecision(
                    forward=np.zeros(view.size, bool),
                    axis=np.zeros(view.size, np.int64),
                    store=np.ones(view.size, bool))

        big = LineNetwork(6, buffer_size=3, capacity=1)
        small = LineNetwork(6, buffer_size=1, capacity=1)
        jobs = [
            (big, Hoarder(), [Request.line(0, 5, 0, rid=i)
                              for i in range(3)], 20),
            (small, Hoarder(), [Request.line(2 + 2 * (i % 2), 5, 0,
                                             rid=10 + i)
                                for i in range(5)], 20),
        ]
        with pytest.raises(CapacityError) as info:
            FastBatchEngine(jobs).run_many()
        assert str(info.value) \
            == "decision stores 3 > B=1 at a node (batch scenario 1)"


class _ScalarOnlyPolicy(Policy):
    """EDD's scalar decision alone: only the batched adapter lifts it."""

    def decide(self, node, t, candidates, network) -> Decision:
        return EarliestDeadlinePolicy().decide(node, t, candidates, network)


class _StatefulVectorPolicy(EarliestDeadlinePolicy):
    """EDD that drops everything on every third step: per-step state that
    changes the decision, so it cannot share a stacked clock."""

    batch_program = "stateful"

    def on_step_begin(self, t: int) -> None:
        self.paused = t % 3 == 2

    def decide(self, node, t, candidates, network) -> Decision:
        if self.paused:
            return Decision()
        return super().decide(node, t, candidates, network)

    def decide_vector(self, view: StepView) -> VectorDecision:
        decision = super().decide_vector(view)
        if self.paused:
            decision.forward[:] = False
            decision.store[:] = False
        return decision


class _UnlabelledVectorPolicy(EarliestDeadlinePolicy):
    """EDD without the batch_program opt-in."""

    batch_program = None


class TestEligibility:
    def test_supported_policies(self):
        for policy in (GreedyPolicy("fifo"), GreedyPolicy("longest"),
                       NearestToGoPolicy(), EarliestDeadlinePolicy()):
            assert FastBatchEngine.supports(policy), \
                FastBatchEngine.unsupported_reason(policy)

    def test_scalar_policy_rejected(self):
        reason = FastBatchEngine.unsupported_reason(_ScalarOnlyPolicy())
        assert reason is not None and "batch program" in reason

    def test_stateful_vector_policy_rejected(self):
        assert FastBatchEngine.unsupported_reason(
            _StatefulVectorPolicy()) is not None

    def test_unlabelled_vector_policy_rejected(self):
        """decide_vector alone is not enough: the policy must opt in with
        batch_program (the group-locality promise)."""
        assert FastBatchEngine.unsupported_reason(
            _UnlabelledVectorPolicy()) is not None

    @pytest.mark.parametrize("policy_cls,reason", [
        (_ScalarOnlyPolicy,
         "policy has no batch program (scalar policies run per-scenario "
         "through the batched adapter)"),
        (_StatefulVectorPolicy,
         "policy keeps per-step state (on_step_begin); stacked scenarios "
         "share one clock"),
        (_UnlabelledVectorPolicy,
         "native vector policy declares no batch_program (the "
         "group-locality opt-in)"),
    ], ids=["scalar", "stateful", "unlabelled"])
    def test_constructor_rejects_ineligible_job(self, policy_cls, reason):
        """What only mixing jobs makes unsafe: rejected from a two-job
        stack with the eligibility reason, run alone on a one-job stack
        exactly like the reference engine."""
        net = LineNetwork(10, buffer_size=2, capacity=1)
        reqs = deadline_requests(net, 30, 12, slack=3, rng=5)
        assert FastBatchEngine.unsupported_reason(policy_cls()) == reason
        with pytest.raises(ValidationError, match=re.escape(reason)):
            FastBatchEngine([(net, policy_cls(), reqs, 40),
                             (net, GreedyPolicy("fifo"), reqs, 40)])
        alone, = FastBatchEngine([(net, policy_cls(), reqs, 40)]).run_many()
        reference = Simulator(net, policy_cls()).run(reqs, 40)
        assert_results_identical(alone, reference, policy_cls.__name__)

    def test_batch_reason_consults_registry(self):
        def scen(alg, params):
            return Scenario(
                network=NetworkSpec("grid", (4, 4), 3, 3),
                workload=WorkloadSpec("uniform", {"num": 5, "horizon": 8}),
                algorithm={"name": alg, "params": params},
                horizon=16, seed=0)

        assert _batch_reason(scen("greedy", {"priority": "lifo"})) is None
        assert _batch_reason(scen("ntg", {})) is None
        assert _batch_reason(scen("edd", {})) is None
        assert _batch_reason(scen("edd", {"adapter": True})) is not None
        assert _batch_reason(scen("det", {})) is not None


def _sweep_scenarios(engine=None):
    out = []
    for seed in range(2):
        for alg in ({"name": "greedy", "params": {"priority": "fifo"}},
                    "ntg",
                    {"name": "edd", "params": {}}):
            out.append(Scenario(
                network=NetworkSpec("grid", (5, 5), 2, 2),
                workload=WorkloadSpec("uniform",
                                      {"num": 20, "horizon": 12}),
                algorithm=alg, horizon=24, seed=seed, engine=engine))
    return out


class TestRunBatchIntegration:
    def test_stacked_reports_match_serial(self):
        serial = run_batch(_sweep_scenarios(), workers=1)
        stacked = run_batch(_sweep_scenarios(engine="batch"), workers=1)
        for one, many in zip(serial, stacked):
            assert many.engine == "batch"
            for field in ("requests", "throughput", "bound", "late",
                          "rejected", "preempted", "latency_mean",
                          "latency_max", "steps", "meta"):
                a, b = getattr(one, field), getattr(many, field)
                assert a == b or (a != a and b != b), field

    def test_stacked_sweep_over_the_cap_matches(self, monkeypatch):
        """A sweep above ``MAX_CELLS`` runs as several stacks and reports
        what one stack does (a 5x5 job is 50 cells, so 2 a stack)."""
        batch = _sweep_scenarios(engine="batch")
        one_stack = run_batch(batch)
        monkeypatch.setattr(fast_batch_engine, "MAX_CELLS", 120)
        stacks = []
        run_stack = fast_batch_engine._run_stack

        def counting(stack, engine):
            stacks.append(len(stack))
            return run_stack(stack, engine)

        monkeypatch.setattr(fast_batch_engine, "_run_stack", counting)
        assert list(run_batch(batch)) == list(one_stack)
        assert stacks == [2, 2, 2]

    def test_warmed_cache_spawns_no_stacked_execution(self, tmp_path,
                                                      monkeypatch):
        batch = _sweep_scenarios(engine="batch")
        warm = run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert warm.cache_stats.stores == len(batch)

        def boom(self):
            raise AssertionError("stacked execution ran on a warmed cache")

        monkeypatch.setattr(FastBatchEngine, "run_many", boom)
        replay = run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert replay.cache_stats.hits == len(batch)
        assert list(replay) == list(warm)

    def test_explicit_batch_all_ineligible_runs_per_scenario(self):
        """An explicit ``batch`` engine stacks what can stack and runs the
        rest per scenario, also when nothing in the batch can stack: the
        reports are the serial ``run`` reports, which run on ``fast``."""
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0, engine="batch")
        batch = [det.replace(seed=s) for s in range(3)]
        reports = run_batch(batch)
        assert [r.engine for r in reports] == ["fast"] * 3
        assert list(reports) == [run(s) for s in batch]

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_every_shard_of_an_explicit_batch_runs(self, tmp_path,
                                                   n_shards):
        """Whether a scenario runs never depends on how its batch is cut:
        every shard of 4 seeds x (``det``, ``ntg``) under an explicit
        ``batch`` engine runs, the ``det``-only shards included, and the
        shards merge equal to the serial batch."""
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0, engine="batch")
        batch = [det.replace(seed=s, algorithm=a)
                 for s in range(4) for a in ("det", "ntg")]
        serial = run_batch(batch)
        manifests = plan_shards(batch, n_shards)
        algorithms = [{item["scenario"]["algorithm"]["name"]
                       for item in m["scenarios"]} for m in manifests]
        assert {"det"} in algorithms  # a shard with nothing to stack
        for manifest in manifests:
            out = tmp_path / f"shard_{manifest['shard_index']}.jsonl"
            run_shard(manifest, out, cache="off")
        assert list(merge(tmp_path)) == list(serial)

    def test_explicit_batch_mixed_batch_falls_back(self):
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0, engine="batch")
        ntg = det.replace(algorithm="ntg")
        reports = run_batch([det, ntg])
        assert reports[0].engine in ("reference", "fast")
        assert reports[1].engine == "batch"

    def test_env_batch_selection_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0)
        reports = run_batch([det])  # ineligible, but not explicit: no error
        assert reports[0].engine == "fast"

    def test_stacked_wall_times_do_not_overlap(self):
        """Each stacked report's wall_time is its own build, bound and
        assembly plus its share of the stacked engine time, so a batch's
        reports never count the same second twice."""
        run_module._bound_cache.clear()
        batch = _sweep_scenarios(engine="batch")
        t0 = time.perf_counter()
        reports = run_batch(batch, compute_bound=True)
        elapsed = time.perf_counter() - t0
        assert len(reports) >= 3
        assert all(r.engine == "batch" for r in reports)
        assert sum(r.wall_time for r in reports) <= elapsed

    def test_duplicates_collapse_into_one_stacked_slot(self, monkeypatch):
        batch = _sweep_scenarios(engine="batch")
        batch = [batch[0], batch[0], batch[1], batch[0]]
        calls = []
        original = FastBatchEngine.run_many

        def counting(self):
            calls.append(len(self.jobs))
            return original(self)

        monkeypatch.setattr(FastBatchEngine, "run_many", counting)
        reports = run_batch(batch)
        assert calls == [2]  # 4 positions, 2 unique scenarios, 1 stack
        assert reports[0] == reports[1] == reports[3]


class TestBoundDiskCache:
    def test_bound_computed_once_per_instance_across_algorithms(
            self, tmp_path, monkeypatch):
        import repro.baselines.offline as offline

        calls = []
        original = offline.offline_bound

        def counting(network, requests, horizon, method="maxflow"):
            calls.append(1)
            return original(network, requests, horizon, method=method)

        monkeypatch.setattr(offline, "offline_bound", counting)
        run_module._bound_cache.clear()
        batch = _sweep_scenarios()  # 2 seeds x 3 algorithms, 2 instances
        run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert len(calls) == 2  # once per (seed, instance), not per algorithm

        # a fresh process (simulated by clearing the in-process memo) now
        # serves the bound from disk: zero recomputation
        run_module._bound_cache.clear()
        run_batch([batch[0].replace(
            algorithm={"name": "greedy", "params": {"priority": "longest"}})],
            cache="read", cache_dir=tmp_path)
        assert len(calls) == 2
        run_module._bound_cache.clear()

    def test_bound_entry_guards_against_collisions(self, tmp_path):
        from repro.api.cache import ResultCache

        store = ResultCache(tmp_path)
        scenario = _sweep_scenarios()[0]
        store.store_bound(scenario, 12.5)
        assert store.load_bound(scenario) == 12.5
        other = scenario.replace(seed=scenario.seed + 1)
        assert store.load_bound(other) is None
        # corruption degrades to a miss, never a wrong bound
        store.bound_path(scenario).write_text("{not json")
        assert store.load_bound(scenario) is None


class _RequestsProbe(EarliestDeadlinePolicy):
    """EDD that records what ``view.requests`` says about its rows."""

    batch_program = "probe"

    def __init__(self):
        self.views = []

    def decide_vector(self, view: StepView) -> VectorDecision:
        self.views.append((type(view.requests), [
            view.requests[i] for i in view.index.tolist()], view.rid))
        return super().decide_vector(view)


class TestStackedRequests:
    """``StepView.requests`` of a multi-job stack: one table over the
    stacked columns when no job is padded, every job's own objects when
    one is; either way ``requests[index[i]]`` is row ``i``'s request."""

    @pytest.mark.parametrize("dims", [((4, 4), (5, 3)), ((6,), (4, 4))])
    def test_rows_see_their_requests(self, dims):
        jobs, originals = [], {}
        probe = _RequestsProbe()
        for k, side in enumerate(dims):
            net = (LineNetwork(side[0], 1, 1) if len(side) == 1
                   else GridNetwork(side, 1, 1))
            reqs = uniform_requests(net, 30, 6, rng=k)
            originals.update((r.rid, r) for r in reqs)
            jobs.append((net, probe, reqs if k else list(reqs), 30))
        FastBatchEngine(jobs).run_many()
        padded = len(dims[0]) != len(dims[1])
        assert probe.views
        for kind, requests, rid in probe.views:
            assert kind is (tuple if padded else RequestTable)
            assert [r.rid for r in requests] == rid.tolist()
            for r in requests:
                want = originals[r.rid]
                assert (r.source, r.dest, r.arrival, r.deadline) == \
                    (want.source, want.dest, want.arrival, want.deadline)
                assert r is want or not padded
