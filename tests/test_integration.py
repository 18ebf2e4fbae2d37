"""Cross-module integration tests: every router's plan must replay exactly
in the synchronous simulator, and measured ratios must be sane."""

import pytest

from repro import (
    BufferlessLineRouter,
    DeterministicRouter,
    LargeCapacityRouter,
    LineNetwork,
    GridNetwork,
    RandomizedLineRouter,
    execute_plan,
    offline_bound,
    run_greedy,
    run_nearest_to_go,
)
from repro.workloads import (
    bursty_requests,
    deadline_requests,
    poisson_requests,
    uniform_requests,
)


def assert_replay(net, router, reqs, horizon):
    plan = router.route(reqs)
    result = execute_plan(net, plan.all_executable_paths(), reqs, horizon)
    assert plan.consistent_with_simulation(result)
    return plan


class TestAllRoutersReplay:
    """The numpy-ledger planners and the step simulator must agree."""

    def test_deterministic_uniform(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 60, 32, rng=0)
        assert_replay(net, DeterministicRouter(net, 128), reqs, 128)

    def test_deterministic_poisson(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = poisson_requests(net, 1.5, 40, rng=1, max_requests=80)
        assert_replay(net, DeterministicRouter(net, 160), reqs, 160)

    def test_deterministic_bursty(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = bursty_requests(net, 4, 10, 32, rng=2)
        assert_replay(net, DeterministicRouter(net, 128), reqs, 128)

    def test_deterministic_deadlines(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = deadline_requests(net, 40, 32, slack=10, rng=3, jitter=6)
        plan = assert_replay(net, DeterministicRouter(net, 128), reqs, 128)
        # every delivered packet arrived before its deadline
        for rid, path in plan.paths.items():
            r = next(x for x in reqs if x.rid == rid)
            if r.deadline is not None:
                assert path.arrival_time(1) <= r.deadline

    def test_deterministic_grid(self):
        net = GridNetwork((6, 6), buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 40, 20, rng=4)
        assert_replay(net, DeterministicRouter(net, 80), reqs, 80)

    def test_randomized_both_classes(self):
        net = LineNetwork(64, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 80, 64, rng=5)
        for cls in ("far", "near"):
            router = RandomizedLineRouter(net, 256, rng=0, lam=0.5, force_class=cls)
            assert_replay(net, router, reqs, 256)

    def test_bufferless(self):
        net = LineNetwork(16, buffer_size=0, capacity=2)
        reqs = uniform_requests(net, 40, 16, rng=6)
        assert_replay(net, BufferlessLineRouter(net, 64), reqs, 64)

    def test_large_capacity(self):
        net = LineNetwork(32, buffer_size=16, capacity=16)
        reqs = uniform_requests(net, 80, 32, rng=7)
        assert_replay(net, LargeCapacityRouter(net, 96), reqs, 96)


class TestRatiosSane:
    def test_deterministic_ratio_reasonable_light_load(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 25, 48, rng=8)
        plan = assert_replay(net, DeterministicRouter(net, 160), reqs, 160)
        assert plan.throughput > 0
        ratio = offline_bound(net, reqs, 160) / plan.throughput
        assert 1.0 <= ratio < 8.0

    def test_online_below_bound_everywhere(self):
        net = LineNetwork(16, buffer_size=2, capacity=1)
        reqs = uniform_requests(net, 50, 16, rng=9)
        bound = offline_bound(net, reqs, 80)
        assert run_greedy(net, reqs, 80).throughput <= bound
        assert run_nearest_to_go(net, reqs, 80).throughput <= bound

    def test_deterministic_beats_nothing_delivered_never(self):
        # sanity: with ample capacity the algorithm delivers something
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 10, 16, rng=10)
        plan = DeterministicRouter(net, 128).route(reqs)
        assert plan.throughput >= 5


class TestStatusAccounting:
    def test_statuses_partition_requests(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 70, 24, rng=11)
        plan = DeterministicRouter(net, 128).route(reqs)
        result = execute_plan(net, plan.all_executable_paths(), reqs, 128)
        st = result.stats
        assert st.delivered + st.late + st.rejected + st.preempted == len(reqs)

    def test_plan_outcome_matches_sim_statuses(self):
        from repro.core.base import RouteOutcome
        from repro.network.packet import DeliveryStatus

        net = LineNetwork(32, buffer_size=3, capacity=3)
        reqs = uniform_requests(net, 50, 24, rng=12)
        plan = DeterministicRouter(net, 128).route(reqs)
        result = execute_plan(net, plan.all_executable_paths(), reqs, 128)
        for r in reqs:
            if plan.outcome[r.rid] == RouteOutcome.DELIVERED:
                assert result.status[r.rid] == DeliveryStatus.DELIVERED
            else:
                assert result.status[r.rid] != DeliveryStatus.DELIVERED
