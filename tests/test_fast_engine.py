"""Reference <-> fast engine parity and engine-selection tests.

The array-backed :class:`~repro.network.fast_engine.FastEngine` must be a
bit-identical drop-in for :class:`~repro.network.simulator.Simulator` on
the policies it supports: same final ``status`` map, same stats counters,
same delivery times -- across workload families, grid shapes, buffer and
capacity settings, and priority orders.
"""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import GreedyPolicy, run_greedy
from repro.baselines.nearest_to_go import NearestToGoPolicy, run_nearest_to_go
from repro.core.deterministic import DeterministicRouter
from repro.network.engine import make_engine, resolve_engine_name
from repro.network.fast_batch_engine import _StackedNetworkView
from repro.network.fast_engine import FastEngine, one_bend_axes
from repro.network.packet import Request, RequestTable
from repro.network.simulator import Decision, Policy, Simulator, execute_plan
from repro.network.topology import GridNetwork, LineNetwork
from repro.util.errors import CapacityError, ValidationError
from repro.workloads import (
    clogging_instance,
    deadline_requests,
    grid_crossfire_instance,
    poisson_requests,
    uniform_requests,
)

STAT_FIELDS = (
    "delivered", "late", "rejected", "preempted", "forwards", "stores",
    "max_link_load", "max_buffer_load", "steps",
)


def assert_parity(net, policy_a, policy_b, reqs, horizon):
    """Run both engines and assert identical results."""
    ref = Simulator(net, policy_a).run(reqs, horizon)
    fast = FastEngine(net, policy_b).run(reqs, horizon)
    for name in STAT_FIELDS:
        assert getattr(fast.stats, name) == getattr(ref.stats, name), name
    assert fast.status == ref.status
    assert fast.stats.delivery_times == ref.stats.delivery_times
    return ref, fast


NETWORK_GRID = [
    ((9,), 1, 1),
    ((9,), 0, 1),
    ((12,), 2, 2),
    ((4, 4), 1, 1),
    ((3, 5), 2, 1),
    ((4, 4), 0, 2),
    ((2, 3, 2), 1, 1),
]


def build(dims, B, c):
    if len(dims) == 1:
        return LineNetwork(dims[0], buffer_size=B, capacity=c)
    return GridNetwork(dims, buffer_size=B, capacity=c)


class TestGreedyFamilyParity:
    @pytest.mark.parametrize("dims,B,c", NETWORK_GRID)
    @pytest.mark.parametrize("priority", ["fifo", "lifo", "longest"])
    def test_uniform(self, dims, B, c, priority):
        net = build(dims, B, c)
        for seed in range(3):
            reqs = uniform_requests(net, 40, 15, rng=seed)
            assert_parity(net, GreedyPolicy(priority), GreedyPolicy(priority),
                          reqs, 60)

    @pytest.mark.parametrize("dims,B,c", NETWORK_GRID)
    def test_ntg_uniform(self, dims, B, c):
        net = build(dims, B, c)
        for seed in range(3):
            reqs = uniform_requests(net, 40, 15, rng=seed)
            assert_parity(net, NearestToGoPolicy(), NearestToGoPolicy(),
                          reqs, 60)

    @pytest.mark.parametrize("dims,B,c", [((9,), 1, 1), ((4, 4), 2, 2)])
    def test_poisson(self, dims, B, c):
        net = build(dims, B, c)
        for seed in range(3):
            reqs = poisson_requests(net, 2.5, 20, rng=seed)
            assert_parity(net, GreedyPolicy("fifo"), GreedyPolicy("fifo"),
                          reqs, 80)
            assert_parity(net, NearestToGoPolicy(), NearestToGoPolicy(),
                          reqs, 80)

    def test_deadlines_produce_identical_late_counts(self):
        net = LineNetwork(6, buffer_size=4, capacity=1)
        reqs = [Request.line(0, 3, 0, deadline=4 + i % 2, rid=1000 + i)
                for i in range(5)]
        ref, fast = assert_parity(net, GreedyPolicy("fifo"),
                                  GreedyPolicy("fifo"), reqs, 40)
        assert ref.stats.late > 0  # the scenario actually exercises lateness

    @pytest.mark.parametrize("slack", [0, 2])
    def test_random_deadlines(self, slack):
        net = GridNetwork((4, 4), buffer_size=1, capacity=1)
        for seed in range(3):
            reqs = deadline_requests(net, 40, 12, slack=slack, rng=seed,
                                     jitter=3)
            assert_parity(net, NearestToGoPolicy(), NearestToGoPolicy(),
                          reqs, 60)

    def test_adversarial_clogging(self):
        net = LineNetwork(12, buffer_size=1, capacity=1)
        reqs = clogging_instance(net, duration=6)
        assert_parity(net, GreedyPolicy("fifo"), GreedyPolicy("fifo"), reqs, 60)
        assert_parity(net, NearestToGoPolicy(), NearestToGoPolicy(), reqs, 60)

    def test_adversarial_crossfire(self):
        net = GridNetwork((8, 8), buffer_size=1, capacity=1)
        reqs = grid_crossfire_instance(net)
        assert_parity(net, NearestToGoPolicy(), NearestToGoPolicy(), reqs, 80)

    def test_arrival_beyond_horizon_and_trivial(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        reqs = [
            Request.line(0, 2, 50, rid=0),  # never injected within horizon
            Request.line(2, 2, 3, rid=1),   # trivial: delivered at injection
        ]
        ref, fast = assert_parity(net, GreedyPolicy("fifo"),
                                  GreedyPolicy("fifo"), reqs, 10)
        assert fast.status[0].value == "rejected"
        assert fast.status[1].value == "delivered"

    def test_empty_requests(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        ref, fast = assert_parity(net, GreedyPolicy("fifo"),
                                  GreedyPolicy("fifo"), [], 10)
        assert fast.status == {} and fast.stats.steps == 0


class TestPlanParity:
    def test_deterministic_router_replay(self):
        net = LineNetwork(16, buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 40, 16, rng=3)
        paths = DeterministicRouter(net, 96).route(reqs).all_executable_paths()
        ref = execute_plan(net, paths, reqs, 96, engine="reference")
        fast = execute_plan(net, paths, reqs, 96, engine="fast")
        for name in STAT_FIELDS:
            assert getattr(fast.stats, name) == getattr(ref.stats, name), name
        assert fast.status == ref.status
        assert fast.stats.delivery_times == ref.stats.delivery_times

    def test_infeasible_plan_raises_on_both_engines(self):
        from repro.spacetime.graph import STPath

        net = LineNetwork(3, buffer_size=1, capacity=1)
        plans = {
            0: STPath((0, 0), (0, 0), rid=0),
            1: STPath((0, 0), (0, 0), rid=1),
        }
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        for engine in ("reference", "fast"):
            with pytest.raises(CapacityError):
                execute_plan(net, plans, reqs, 10, engine=engine)


class TestEngineSelection:
    def test_run_helpers_accept_engine(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 10, 8, rng=0)
        for runner in (run_greedy, run_nearest_to_go):
            ref = runner(net, reqs, 40, engine="reference")
            fast = runner(net, reqs, 40, engine="fast")
            assert fast.status == ref.status

    def test_unknown_engine_rejected(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        with pytest.raises(ValidationError):
            make_engine(net, GreedyPolicy(), engine="warp")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert resolve_engine_name() == "fast"
        assert resolve_engine_name("reference") == "reference"  # arg wins
        net = LineNetwork(8, buffer_size=1, capacity=1)
        assert isinstance(make_engine(net, GreedyPolicy()), FastEngine)

    def test_default_engine_is_reference(self, monkeypatch):
        # no argument and no REPRO_ENGINE: nothing else picks an engine
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine_name() == "reference"
        net = LineNetwork(8, buffer_size=1, capacity=1)
        assert isinstance(make_engine(net, GreedyPolicy()), Simulator)

    def test_custom_scalar_policy_runs_on_fast_via_adapter(self):
        # the PR-4 decision ABI: custom scalar policies no longer fall
        # back -- the batched adapter lifts them onto the fast engine
        class Custom(Policy):
            def decide(self, node, t, candidates, network):
                return Decision()

        net = LineNetwork(8, buffer_size=1, capacity=1)
        engine = make_engine(net, Custom(), engine="fast")
        assert isinstance(engine, FastEngine)
        assert FastEngine.supports(Custom())

    def test_policy_without_decide_falls_back_to_reference(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        engine = make_engine(net, object(), engine="fast")
        assert isinstance(engine, Simulator)
        with pytest.raises(ValidationError):
            FastEngine(net, object())

    def test_vectorize_false_pins_the_reference_engine(self):
        # an order-sensitive policy that cannot honour the ABI contract
        # opts out explicitly and keeps the safe per-packet path
        class OrderSensitive(Policy):
            vectorize = False

            def decide(self, node, t, candidates, network):
                return Decision(store=candidates[:network.buffer_size])

        net = LineNetwork(8, buffer_size=1, capacity=1)
        assert not FastEngine.supports(OrderSensitive())
        engine = make_engine(net, OrderSensitive(), engine="fast")
        assert isinstance(engine, Simulator)

    def test_trace_falls_back_to_reference(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        engine = make_engine(net, GreedyPolicy(), engine="fast", trace=True)
        assert isinstance(engine, Simulator)
        with pytest.raises(ValidationError):
            FastEngine(net, GreedyPolicy(), trace=True)

    def test_fast_engine_supports(self):
        assert FastEngine.supports(GreedyPolicy("lifo"))
        assert FastEngine.supports(NearestToGoPolicy())
        assert not FastEngine.supports(object())


class TestVectorABI:
    """The vectorized decision ABI: custom policies on the fast engine."""

    def _instance(self, B=1, c=1):
        net = LineNetwork(10, buffer_size=B, capacity=c)
        reqs = uniform_requests(net, 30, 12, rng=5)
        return net, reqs

    def test_native_vector_policy_matches_scalar_reference(self):
        # EDD implements both interfaces; the ABI must produce the
        # decision the scalar reference loop produces, bit for bit
        from repro.baselines.edd import EarliestDeadlinePolicy

        net, reqs = self._instance(B=2, c=2)
        assert_parity(net, EarliestDeadlinePolicy(),
                      EarliestDeadlinePolicy(), reqs, 60)

    def test_batched_adapter_matches_reference(self):
        from repro.baselines.edd import EarliestDeadlinePolicy, _ScalarOnly

        net, reqs = self._instance(B=2, c=1)
        assert_parity(net, EarliestDeadlinePolicy(),
                      _ScalarOnly(EarliestDeadlinePolicy()), reqs, 60)

    def test_adapter_forwards_on_step_begin(self):
        calls = []

        class Coordinated(Policy):
            def on_step_begin(self, t):
                calls.append(t)

            def decide(self, node, t, candidates, network):
                return Decision()

        net, reqs = self._instance()
        FastEngine(net, Coordinated()).run(reqs, 30)
        assert calls and calls == sorted(calls)

    def test_drop_everything_vector_policy(self):
        import numpy as np

        from repro.network.engine import VectorDecision

        class DropAll:
            def decide_vector(self, view):
                zeros = np.zeros(view.size, dtype=bool)
                return VectorDecision(forward=zeros,
                                      axis=np.zeros(view.size, np.int64),
                                      store=zeros)

        net, reqs = self._instance()
        result = FastEngine(net, DropAll()).run(reqs, 60)
        # everything except source==dest trivia is rejected at injection
        trivial = sum(r.source == r.dest for r in reqs)
        assert result.stats.delivered == trivial
        assert result.stats.rejected == len(reqs) - trivial

    def test_engine_enforces_capacity_on_vector_decisions(self):
        import numpy as np

        from repro.network.engine import VectorDecision

        class ForwardAll:
            def decide_vector(self, view):
                ones = np.ones(view.size, dtype=bool)
                return VectorDecision(forward=ones,
                                      axis=np.zeros(view.size, np.int64),
                                      store=np.zeros(view.size, bool))

        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 5, 0, rid=i) for i in range(3)]
        with pytest.raises(CapacityError):
            FastEngine(net, ForwardAll()).run(reqs, 30)

    def test_engine_rejects_double_scheduling(self):
        import numpy as np

        from repro.network.engine import VectorDecision

        class Both:
            def decide_vector(self, view):
                ones = np.ones(view.size, dtype=bool)
                return VectorDecision(forward=ones,
                                      axis=np.zeros(view.size, np.int64),
                                      store=ones)

        net = LineNetwork(6, buffer_size=1, capacity=1)
        with pytest.raises(ValidationError):
            FastEngine(net, Both()).run([Request.line(0, 5, 0, rid=0)], 30)

    def test_engine_rejects_off_grid_axis(self):
        import numpy as np

        from repro.network.engine import VectorDecision

        class WrongAxis:
            def decide_vector(self, view):
                ones = np.ones(view.size, dtype=bool)
                return VectorDecision(forward=ones,
                                      axis=np.ones(view.size, np.int64),
                                      store=np.zeros(view.size, bool))

        net = LineNetwork(6, buffer_size=1, capacity=1)  # d=1: axis 1 invalid
        with pytest.raises(ValidationError):
            FastEngine(net, WrongAxis()).run([Request.line(0, 5, 0, rid=0)], 30)

    def test_adapter_rejects_overfull_store(self):
        class Hoarder(Policy):
            def decide(self, node, t, candidates, network):
                return Decision(store=list(candidates))

        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 5, 0, rid=i) for i in range(3)]
        with pytest.raises(CapacityError):
            FastEngine(net, Hoarder()).run(reqs, 30)
        with pytest.raises(CapacityError):
            Simulator(net, Hoarder()).run(reqs, 30)


class TestRequestColumns:
    """The array engines and the report read a ``RequestTable``'s columns
    and build none of its request objects."""

    def test_fast_engine_run_leaves_table_unmaterialized(self):
        net = GridNetwork((8, 8), buffer_size=1, capacity=1)
        table = uniform_requests(net, 300, 24, rng=0)
        copy = RequestTable(*table.columns())
        for policy in (GreedyPolicy("fifo"), NearestToGoPolicy()):
            fast = FastEngine(net, policy).run(table, 64)
            ref = Simulator(net, policy).run(copy, 64)
            assert fast.status == ref.status
            assert fast.stats.delivery_times == ref.stats.delivery_times
        assert table._requests is None
        assert copy._requests is not None

    @pytest.mark.parametrize("network, algorithm", [
        (("grid", (8, 8), 1, 1), "ntg"),
        (("grid", (8, 8), 2, 2), {"name": "greedy",
                                  "params": {"priority": "lifo"}}),
        (("line", (32,), 3, 1), "ntg-model2"),
    ])
    def test_run_builds_no_request(self, monkeypatch, network, algorithm):
        from repro.api import NetworkSpec, Scenario, WorkloadSpec, run, run_batch

        scenario = Scenario(NetworkSpec(*network),
                            WorkloadSpec("uniform", {"num": 200,
                                                     "horizon": 16}),
                            algorithm, horizon=80, seed=3)
        want = run(scenario.replace(engine="reference"), compute_bound=False)

        def refuse(table):
            raise AssertionError("a Request object was built")

        monkeypatch.setattr(RequestTable, "_objects", refuse)
        for engine in ("fast", "batch"):
            got = run(scenario.replace(engine=engine), compute_bound=False)
            assert got == want.replace(scenario=got.scenario,
                                       engine=got.engine)
            assert got.engine == "fast"
        if algorithm != "ntg-model2":  # a stack of two jobs
            stacked = run_batch([scenario.replace(engine="batch"),
                                 scenario.replace(engine="batch", seed=4)],
                                compute_bound=False)
            assert stacked[0] == want.replace(scenario=stacked[0].scenario,
                                              engine="batch")


#: jobs of one step's candidate rows: (side lengths, wrapping axes)
AXIS_JOBS = {
    "line": [((9,), (False,))],
    "ring": [((7,), (True,))],
    "grid": [((5, 4), (False, False))],
    "3-d grid": [((3, 4, 2), (False, False, False))],
    "torus": [((4, 5), (True, True))],
    "padded stack": [((6,), (False,)), ((4, 3), (False, False)),
                     ((3, 3), (True, True))],
    "padded 3-d stack": [((5,), (True,)), ((3, 2, 4), (False,) * 3)],
}


@st.composite
def candidate_rows(draw):
    """``(loc, dst, dims, wrap)`` of one step's candidates, padded to the
    widest job like the stacked loop pads them; no row is at its
    destination (deliveries come first)."""
    jobs = AXIS_JOBS[draw(st.sampled_from(sorted(AXIS_JOBS)))]
    d = max(len(dims) for dims, _wrap in jobs)
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        dims, wrap = draw(st.sampled_from(jobs))
        loc = [draw(st.integers(0, side - 1)) for side in dims]
        dst = [draw(st.integers(0 if w else x, side - 1))
               for x, side, w in zip(loc, dims, wrap)]
        if loc != dst:
            pad = d - len(dims)
            rows.append((loc + [0] * pad, dst + [0] * pad,
                         list(dims) + [1] * pad, list(wrap) + [False] * pad))
    hypothesis.assume(rows)
    loc, dst, dims, wrap = (np.array(column) for column in zip(*rows))
    return loc, dst, dims, wrap.astype(bool)


class TestOneBendAxis:
    """``one_bend_axes`` reads up to two axes off the first column; it
    must pick what ``np.argmax(togo > 0, axis=1)`` picks."""

    @settings(max_examples=150, deadline=None)
    @given(candidate_rows())
    def test_matches_argmax(self, rows):
        loc, dst, dims, wrap = rows
        network = _StackedNetworkView(loc.shape[1], 1, 1, dims, wrap)
        togo = network.togo_array(loc, dst)
        axis = one_bend_axes(togo)
        assert axis.dtype == np.int64
        np.testing.assert_array_equal(axis, np.argmax(togo > 0, axis=1))
