"""Tests for the Section 7.7 / 7.8 variants (Table 2 regimes)."""

import pytest

from repro.core.base import RouteOutcome
from repro.core.randomized import LargeBufferLineRouter, SmallBufferLineRouter
from repro.network.packet import Request
from repro.network.simulator import execute_plan
from repro.network.topology import LineNetwork
from repro.util.errors import ValidationError
from repro.workloads.uniform import uniform_requests


class TestLargeBuffers:
    """Section 7.7: log n <= B/c <= poly(n)."""

    def make(self, n=32, B=None, c=1, lam=1.0, horizon=512, rng=0):
        B = B if B is not None else 8 * max(1, n.bit_length())
        net = LineNetwork(n, buffer_size=B, capacity=c)
        return net, LargeBufferLineRouter(net, horizon, rng=rng, lam=lam)

    def test_requires_large_ratio(self):
        net = LineNetwork(64, buffer_size=2, capacity=1)
        with pytest.raises(ValidationError):
            LargeBufferLineRouter(net, 128)

    def test_tau_even_and_near_ratio(self):
        net, router = self.make(n=32, B=48, c=1)
        assert router.tau % 2 == 0
        assert abs(router.tau - 48) <= 2

    def test_delivery(self):
        net, router = self.make()
        plan = router.route([Request.line(1, 20, 1, rid=0)])
        outcomes = set(plan.outcome.values())
        # either delivered or classified out of R+; never preempted
        assert RouteOutcome.PREEMPTED not in outcomes

    def test_some_delivered_bulk(self):
        net, router = self.make(rng=3)
        reqs = uniform_requests(net, 60, 64, rng=1)
        plan = router.route(reqs)
        assert plan.throughput >= 1

    def test_plan_replays(self):
        net, router = self.make(rng=5)
        reqs = uniform_requests(net, 50, 64, rng=2)
        plan = router.route(reqs)
        result = execute_plan(net, plan.all_executable_paths(), reqs, 512)
        assert plan.consistent_with_simulation(result)

    def test_loads_within_capacity(self):
        net, router = self.make(rng=7)
        reqs = uniform_requests(net, 100, 64, rng=3)
        router.route(reqs)
        assert router.ledger.max_load_ratio() <= 1.0

    def test_nonpreemptive(self):
        net, router = self.make(rng=9)
        reqs = uniform_requests(net, 80, 64, rng=4)
        plan = router.route(reqs)
        assert not plan.truncated


class TestSmallBuffers:
    """Section 7.8: B <= log n <= c."""

    def make(self, n=32, B=1, c=None, lam=1.0, horizon=256, rng=0):
        c = c if c is not None else 2 * max(1, n.bit_length())
        net = LineNetwork(n, buffer_size=B, capacity=c)
        return net, SmallBufferLineRouter(net, horizon, rng=rng, lam=lam)

    def test_requires_regime(self):
        net = LineNetwork(64, buffer_size=1, capacity=1)
        with pytest.raises(ValidationError):
            SmallBufferLineRouter(net, 128)

    def test_q_even(self):
        net, router = self.make()
        assert router.Q % 2 == 0

    def test_delivery(self):
        net, router = self.make()
        reqs = [Request.line(0, 20, 0, rid=0)]
        plan = router.route(reqs)
        assert RouteOutcome.PREEMPTED not in set(plan.outcome.values())

    def test_some_delivered_bulk(self):
        net, router = self.make(rng=1)
        reqs = uniform_requests(net, 60, 32, rng=5)
        plan = router.route(reqs)
        assert plan.throughput >= 1

    def test_plan_replays(self):
        net, router = self.make(rng=2)
        reqs = uniform_requests(net, 50, 32, rng=6)
        plan = router.route(reqs)
        result = execute_plan(net, plan.all_executable_paths(), reqs, 256)
        assert plan.consistent_with_simulation(result)

    def test_loads_within_capacity(self):
        net, router = self.make(rng=4)
        reqs = uniform_requests(net, 120, 32, rng=7)
        router.route(reqs)
        assert router.ledger.max_load_ratio() <= 1.0

    def test_iroute_cap(self):
        net, router = self.make(rng=6)
        reqs = uniform_requests(net, 150, 16, rng=8)
        router.route(reqs)
        for count in router.iroute_exits.values():
            assert count <= router.iroute_cap


@pytest.mark.parametrize("algorithm, B, c, horizon, throughput, meta", [
    pytest.param("rand-large-buffers", 48, 1, 512, 45,
                 {"large_buffers": {"not_rplus": 90, "ipp_rejected": 0,
                                    "coin_rejected": 50, "load_rejected": 0,
                                    "detail_rejected": 7, "delivered": 45}},
                 id="large-buffers"),
    pytest.param("rand-small-buffers", 2, 12, 256, 54,
                 {"small_buffers": {"not_rplus": 96, "ipp_rejected": 0,
                                    "coin_rejected": 41, "load_rejected": 1,
                                    "detail_rejected": 0, "delivered": 54}},
                 id="small-buffers"),
])
def test_pinned_counters(algorithm, B, c, horizon, throughput, meta):
    """E7's instance of each regime: the throughput and every counter of
    the shared pipeline, pinned to literal values."""
    from repro.api import AlgorithmSpec, NetworkSpec, Scenario, WorkloadSpec, run

    report = run(Scenario(NetworkSpec("line", (64,), B, c),
                          WorkloadSpec("uniform", {"num": 192, "horizon": 64}),
                          AlgorithmSpec(algorithm, {"lam": 0.5}),
                          horizon=horizon, seed=0),
                 compute_bound=False)
    assert report.throughput == throughput
    assert report.meta == meta
