"""Geometric edge cases of the deterministic pipeline.

These pin behaviours that the uniform-workload tests rarely exercise:
forced bends under load, sources on tile boundaries, negative-column
geometry, and theorem13's space-time digraph (det2's, on capacities
scaled down by ``k``).
"""

import pytest

from repro.core.base import RouteOutcome
from repro.core.deterministic import DeterministicRouter
from repro.core.deterministic.variants import LargeCapacityRouter
from repro.network.packet import Request
from repro.network.simulator import execute_plan
from repro.network.topology import LineNetwork
from repro.spacetime.graph import SpaceTimeGraph


class TestForcedBends:
    def test_saturation_forces_buffer_segments(self):
        """Many duplicates of one request saturate the pure-north sketch
        route; later accepted paths must detour east (buffer moves)."""
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 256, k=6)
        reqs = [Request.line(2, 20, 0, rid=i) for i in range(30)]
        plan = router.route(reqs)
        delivered_paths = list(plan.paths.values())
        assert delivered_paths, "something must be delivered"
        detours = [p for p in delivered_paths if 1 in p.moves]
        assert detours, "under saturation some delivered path must bend east"
        # and the whole thing still replays
        result = execute_plan(net, plan.all_executable_paths(), reqs, 256)
        assert plan.consistent_with_simulation(result)

    def test_multi_bend_paths_reach_destination(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 256, k=6)
        reqs = [Request.line(0, 30, t % 3, rid=t) for t in range(24)]
        plan = router.route(reqs)
        for rid, path in plan.paths.items():
            assert path.end(1)[0] == 30
        result = execute_plan(net, plan.all_executable_paths(), reqs, 256)
        assert plan.consistent_with_simulation(result)


class TestBoundaryGeometry:
    def test_source_at_tile_corner(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 128, k=8)
        # source vertex (8, 0): exactly a tile origin with k = 8
        r = Request.line(8, 25, 8, rid=0)
        plan = router.route([r])
        assert plan.outcome[0] == RouteOutcome.DELIVERED

    def test_source_at_last_row_of_band(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 128, k=8)
        r = Request.line(7, 25, 0, rid=0)  # top row of band 0
        plan = router.route([r])
        assert plan.outcome[0] == RouteOutcome.DELIVERED

    def test_negative_columns(self):
        # node 30 at t = 0 has column -30: deep in negative territory
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 128, k=8)
        r = Request.line(29, 31, 0, rid=0)
        plan = router.route([r])
        assert plan.outcome[0] == RouteOutcome.DELIVERED
        assert plan.paths[0].start == (29, -29)

    def test_dest_is_last_node(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 128)
        plan = router.route([Request.line(0, 31, 0, rid=0)])
        assert plan.outcome[0] == RouteOutcome.DELIVERED

    def test_arrival_at_horizon_edge(self):
        net = LineNetwork(32, buffer_size=3, capacity=3)
        router = DeterministicRouter(net, 40)
        plan = router.route([Request.line(0, 8, 39, rid=0)])
        # cannot finish within the horizon: must be rejected/preempted
        assert plan.outcome[0] != RouteOutcome.DELIVERED


class TestSpaceTimeDigraph:
    @pytest.fixture
    def router(self):
        net = LineNetwork(8, buffer_size=4, capacity=4)
        return LargeCapacityRouter(net, 16, k=2)

    def test_capacities(self, router):
        g = router.digraph
        tail = g.vertex((2,), 5)  # untilted vertex (2, 3)
        assert g.capacity(tail * g.moves + 0) == 2  # axis: 4 // 2
        assert g.capacity(tail * g.moves + 1) == 2  # buffer: 4 // 2

    def test_zero_buffer_scaled_out(self):
        """With ``B // k == 0`` no path buffers: once the direct diagonal
        is too heavy, a request that would have to wait is rejected."""
        reqs = [Request.line(0, 5, 0, rid=i) for i in range(16)]
        plans = {}
        for B in (1, 2):
            net = LineNetwork(8, buffer_size=B, capacity=4)
            router = LargeCapacityRouter(net, 16, k=2, strict=False)
            plans[B] = router.route(reqs)
        waits = {B: any(1 in path.moves for path in plan.paths.values())
                 for B, plan in plans.items()}
        assert waits == {1: False, 2: True}
        rejected = [rid for rid, outcome in plans[1].outcome.items()
                    if outcome == RouteOutcome.REJECTED]
        assert rejected
        assert all(plans[2].outcome[rid] == RouteOutcome.DELIVERED
                   for rid in rejected)

    def test_sink_registration_window(self, router):
        reqs = [Request.line(1, 6, 2, deadline=10, rid=i) for i in range(12)]
        plan = router.route(reqs)
        assert plan.paths
        times = set()
        for path in plan.paths.values():
            assert path.end(1)[0] == 6
            times.add(path.arrival_time(1))
        # arrival + dist = 7 up to the deadline, every copy used
        assert times == {7, 8, 9, 10}

    def test_unreachable_sink_is_none(self, router):
        # horizon 16: request arriving at 16 with distance 5 cannot be served
        r = Request.line(1, 6, 16, rid=1)
        assert router.digraph.slack(r) == -5
        src = router.digraph.vertex(r.source, r.arrival)
        assert router.digraph.lightest_path(src, r) is None
        plan = router.route([r])
        assert plan.outcome == {1: RouteOutcome.REJECTED}
        assert router.ipp.stats.total == 0  # the packer never saw it


class TestLargeCapacityEdgeCases:
    def test_paths_are_valid_spacetime_paths(self):
        net = LineNetwork(16, buffer_size=16, capacity=16)
        router = LargeCapacityRouter(net, 64)
        from repro.workloads.uniform import uniform_requests

        reqs = uniform_requests(net, 40, 16, rng=5)
        plan = router.route(reqs)
        graph = SpaceTimeGraph(net, 64)
        for path in plan.paths.values():
            graph.check_path(path)

    def test_scaled_caps_floor(self):
        # one link of capacity 13 sets min_capacity for every axis edge
        net = LineNetwork(16, buffer_size=20, capacity=19,
                          link_caps={((5,), 0): 13})
        router = LargeCapacityRouter(net, 64, k=6, strict=False)
        g = router.digraph
        tail = g.vertex((3,), 10)
        assert g.capacity(tail * g.moves + 0) == 2  # axis: 13 // 6
        assert g.capacity(tail * g.moves + 1) == 3  # buffer: 20 // 6


class TestIdenticalIntervalPreemption:
    def test_det_plan_feasible_after_same_bounds_preemption(self):
        """Regression: on this instance two requests reserve *identical*
        track-1 intervals in sequence; owner-blind Interval equality let
        the victim's cleanup delete the preemptor's reservation, and the
        resulting plan forwarded 4 > c = 3 packets on one edge (caught by
        the replay engine as a CapacityError)."""
        from repro.api import NetworkSpec, Scenario, WorkloadSpec, run

        scenario = Scenario(
            network=NetworkSpec("line", (64,), buffer_size=3, capacity=3),
            workload=WorkloadSpec("uniform", {"num": 192, "horizon": 64}),
            algorithm="det",
            horizon=256,
            seed=1,
        )
        report = run(scenario)  # run() replays the plan; it must not raise
        assert report.throughput > 0


class TestDeadlineMissTruncation:
    def test_deadline_miss_is_preempted_not_late(self):
        """Regression (E12 port): a packet whose detailed path overshoots
        its deadline used to be 'truncated' at full length, so the replay
        delivered it late -- violating the Section 5.4 invariant
        (delivered => on time).  The truncation must cut strictly before
        the destination so the replay preempts instead."""
        from repro.api import NetworkSpec, Scenario, WorkloadSpec, run

        for seed in range(3):
            report = run(Scenario(
                network=NetworkSpec("line", (32,), 3, 3),
                workload=WorkloadSpec("deadline", {"num": 96, "horizon": 32,
                                                   "slack": 2}),
                algorithm="det",
                horizon=128,
                seed=seed,
            ))
            assert report.late == 0
            # the specific instances above all contain a deadline miss;
            # the miss must surface as a detailed-routing preemption
            assert report.meta["detailed"]["deadline_miss"] >= 1
            assert report.preempted >= report.meta["detailed"]["deadline_miss"]
