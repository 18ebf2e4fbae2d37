"""Failure injection: corrupted plans and hostile inputs must be caught.

The plan/simulator cross-check in ``planner_adapter`` is the safety net of
the whole reproduction: every planning router's plan is replayed through
the engine on every run.  These tests corrupt plans in targeted ways and
assert the net catches each one.
"""

import pytest

from repro.api.registry import planner_adapter
from repro.core.base import Plan, RouteOutcome, Router
from repro.core.deterministic import DeterministicRouter
from repro.network.packet import Request
from repro.network.simulator import execute_plan
from repro.network.topology import LineNetwork
from repro.spacetime.graph import STPath
from repro.util.errors import CapacityError, ReproError
from repro.workloads.uniform import uniform_requests


@pytest.fixture
def net():
    return LineNetwork(16, buffer_size=3, capacity=3)


@pytest.fixture
def routed(net):
    reqs = uniform_requests(net, 25, 16, rng=0)
    plan = DeterministicRouter(net, 64).route(reqs)
    return reqs, plan


def _adapter_returning(plan):
    """A registry algorithm whose planning router hands back ``plan``."""

    class FixedRouter(Router):
        def __init__(self, network, horizon):
            pass

        def route(self, requests):
            return plan

    return planner_adapter(FixedRouter, "corrupted")


class TestCorruptedPlans:
    def test_duplicated_path_overloads(self, net, routed):
        reqs, plan = routed
        rid, path = next(iter(plan.paths.items()))
        extra = [Request.line(path.start[0],
                              path.end(1)[0],
                              path.start[1] + path.start[0], rid=9999)]
        corrupted = dict(plan.all_executable_paths())
        # four clones of the same unit-track path must breach a capacity
        clones = {
            10_000 + i: STPath(path.start, path.moves, rid=10_000 + i)
            for i in range(4)
        }
        corrupted.update(clones)
        all_reqs = list(reqs) + [
            Request.line(path.start[0], path.end(1)[0],
                         path.start[1] + path.start[0], rid=r)
            for r in clones
        ]
        if len(path.moves) == 0:
            pytest.skip("trivial path drawn")
        with pytest.raises(CapacityError):
            execute_plan(net, corrupted, all_reqs, 64)

    def test_wrong_destination_detected(self, net, routed):
        reqs, plan = routed
        rid, path = next(iter(plan.paths.items()))
        if len(path.moves) == 0:
            pytest.skip("trivial path drawn")
        # truncate the path one move early but keep claiming delivery
        plan.paths[rid] = STPath(path.start, path.moves[:-1], rid=rid)
        run = _adapter_returning(plan)
        for engine in ("reference", "fast"):
            with pytest.raises(ReproError, match=r"corrupted: plan/simulation "
                               rf"mismatch: planned-only=\[{rid}\] "
                               r"simulated-only=\[\]"):
                run(net, reqs, 64, engine=engine)

    def test_foreign_claimed_delivery_detected(self, net):
        reqs = [Request.line(0, 5, 0, rid=0)]
        plan = Plan()
        # claim rid 0 delivered via a path that belongs to nobody
        plan.record(0, RouteOutcome.DELIVERED, STPath((0, 0), (), rid=0))
        with pytest.raises(ReproError, match=r"planned-only=\[0\] "
                           r"simulated-only=\[\]"):
            _adapter_returning(plan)(net, reqs, 64)

    def test_plan_with_invalid_vertex_rejected_by_checker(self, net):
        from repro.spacetime.graph import SpaceTimeGraph
        from repro.util.errors import ValidationError

        graph = SpaceTimeGraph(net, 10)
        rogue = STPath((15, -20), (0, 0), rid=1)  # before time zero
        with pytest.raises(ValidationError):
            graph.check_path(rogue)


class TestHostileInputs:
    def test_router_validates_requests(self, net):
        router = DeterministicRouter(net, 64)
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError):
            router.route([Request.line(0, 40, 0)])  # outside the grid

    def test_router_survives_duplicate_rids(self, net):
        # duplicate ids are the caller's bug, but must not corrupt state:
        # the second occurrence simply overwrites the plan entry
        reqs = [Request.line(0, 8, 0, rid=7), Request.line(1, 9, 0, rid=7)]
        plan = DeterministicRouter(net, 64).route(reqs)
        assert 7 in plan.outcome

    def test_empty_request_list(self, net):
        plan = DeterministicRouter(net, 64).route([])
        assert plan.throughput == 0

    def test_all_trivial(self, net):
        reqs = [Request.line(i, i, 0, rid=i) for i in range(5)]
        plan = DeterministicRouter(net, 64).route(reqs)
        assert plan.throughput == 5

    def test_zero_horizon(self, net):
        router = DeterministicRouter(net, 0)
        plan = router.route([Request.line(0, 5, 0, rid=0)])
        assert plan.outcome[0] == RouteOutcome.REJECTED
