"""det2's and theorem13's integer-indexed search, pinned against the slow
paths it replaced.

:class:`ReferenceDigraph` is det2's residual space-time digraph as it was
before the search moved onto integer ids: tuple vertex and edge keys, one
sink node per request, and the generic
:func:`repro.packing.oracle.lightest_path` searching every vertex of the
graph.  :class:`ReferenceScaledDigraph` and
:class:`ReferenceLargeCapacityRouter` are theorem13's own copies of that
digraph and route loop, as they were before theorem13 became det2's router
on scaled capacities.  On every draw the fast router must return the same
plans, outcomes, ``meta``, edge weights, loads and packing statistics as
its reference -- or raise the same error.
"""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import NetworkSpec, Scenario, WorkloadSpec, run, \
    unavailable_reason
from repro.core.base import Plan, RouteOutcome, Router
from repro.core.deterministic.frontier import ImprovedDeterministicRouter
from repro.core.deterministic.variants import LargeCapacityRouter
from repro.network.packet import Request
from repro.network.topology import GridNetwork, LineNetwork, Network
from repro.packing.ipp import OnlinePathPacking
from repro.packing.oracle import lightest_path
from repro.spacetime.graph import STPath, SpaceTimeGraph
from repro.util.errors import ValidationError

INF = math.inf


class ReferenceDigraph:
    """Tuple-keyed residual space-time digraph (the slow path).

    Nodes are ``("v", vertex)`` plus per-request ``("sink", rid)`` targets;
    edge keys are ``("e", tail, move)`` and infinite-capacity
    ``("k", vertex, rid)`` sink edges.  ``flow`` is bound to the packer's
    loads; saturated edges vanish from ``out_edges``.
    """

    def __init__(self, graph: SpaceTimeGraph):
        self.graph = graph
        self.flow: dict = {}
        self._sink_edges: dict = {}  # vertex -> [(edge_key, sink_node)]

    def register_sink(self, request):
        rid = request.rid
        node = ("sink", rid)
        count = 0
        for col in self.graph.dest_columns(request):
            v = (*request.dest, col)
            if not self.graph.valid_vertex(v):
                continue
            if self.graph.vertex_time(v) < request.arrival + \
                    self.graph.network.dist(request.source, request.dest):
                continue
            self._sink_edges.setdefault(v, []).append((("k", v, rid), node))
            count += 1
        return node if count else None

    def out_edges(self, node):
        if node[0] == "sink":
            return
        v = node[1]
        for move in range(self.graph.d + 1):
            key = ("e", v, move)
            cap = self.capacity(key)
            if cap <= 0 or self.flow.get(key, 0) >= cap:
                continue
            head = self.graph.move_head(v, move)
            if self.graph.valid_vertex(head):
                yield key, ("v", head)
        yield from self._sink_edges.get(v, ())

    def capacity(self, edge_key) -> float:
        if edge_key[0] == "k":
            return INF
        v, move = edge_key[1], edge_key[2]
        if move == self.graph.buffer_move:
            return self.graph.network.buffer_size
        return self.graph.network.capacity_of(v[:-1], move)

    def is_sink(self, node) -> bool:
        return node[0] == "sink"


class ReferenceRouter(Router):
    """det2's router over :class:`ReferenceDigraph`."""

    def __init__(self, network: Network, horizon: int,
                 pmax: int | None = None):
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.pmax = network.pmax() if pmax is None else int(pmax)
        self.digraph = ReferenceDigraph(self.graph)
        self.ipp = OnlinePathPacking(self.digraph, pmax=self.pmax,
                                     oracle=lightest_path)
        self.digraph.flow = self.ipp.flow

    def route(self, requests) -> Plan:
        plan = Plan()
        for r in self.arrival_order(requests):
            self.network.check_request(r)
            src = self.graph.source_vertex(r)
            if r.is_trivial():
                if self.graph.valid_vertex(src):
                    plan.record(r.rid, RouteOutcome.DELIVERED,
                                STPath(src, (), rid=r.rid))
                else:
                    plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            sink = self.digraph.register_sink(r)
            if sink is None or not self.graph.valid_vertex(src):
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            path = self.ipp.route(("v", src), sink)
            if path is None:
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            moves = tuple(
                edge_key[2] for edge_key in path.edges if edge_key[0] == "e"
            )
            plan.record(r.rid, RouteOutcome.DELIVERED,
                        STPath(src, moves, rid=r.rid))
        plan.meta["algorithm"] = "det2-frontier"
        plan.meta["ipp"] = {
            "accepted": self.ipp.stats.accepted,
            "rejected": self.ipp.stats.rejected,
            "max_load_ratio": self.ipp.max_load_ratio(),
        }
        return plan


class ReferenceScaledDigraph:
    """Digraph adapter exposing a space-time graph to the IPP algorithm.

    Nodes are ``("v", vertex)`` plus per-request sinks; edge keys are
    ``("e", tail, move)`` with the *scaled* capacities of Theorem 13 and
    ``("k", vertex, rid)`` sink edges of infinite capacity.
    """

    def __init__(self, graph: SpaceTimeGraph, buffer_cap: int, link_cap: int):
        self.graph = graph
        self.buffer_cap = int(buffer_cap)
        self.link_cap = int(link_cap)
        self._sink_edges: dict = {}  # vertex -> [(edge_key, sink_node)]

    def register_sink(self, request):
        rid = request.rid
        node = ("sink", rid)
        count = 0
        for col in self.graph.dest_columns(request):
            v = (*request.dest, col)
            if not self.graph.valid_vertex(v):
                continue
            if self.graph.vertex_time(v) < request.arrival + \
                    self.graph.network.dist(request.source, request.dest):
                continue  # unreachable copies: arrival time physics
            self._sink_edges.setdefault(v, []).append((("k", v, rid), node))
            count += 1
        return node if count else None

    def out_edges(self, node):
        if node[0] == "sink":
            return
        v = node[1]
        for move in range(self.graph.d + 1):
            cap = self.buffer_cap if move == self.graph.d else self.link_cap
            if cap <= 0:
                continue
            head = self.graph.move_head(v, move)
            if self.graph.valid_vertex(head):
                yield ("e", v, move), ("v", head)
        yield from self._sink_edges.get(v, ())

    def capacity(self, edge_key) -> float:
        if edge_key[0] == "k":
            return INF
        move = edge_key[2]
        return self.buffer_cap if move == self.graph.d else self.link_cap

    def is_sink(self, node) -> bool:
        return node[0] == "sink"


class ReferenceLargeCapacityRouter(Router):
    """Theorem 13: ``O(log n)``-competitive routing for large ``B`` and
    ``c`` via online path packing on the space-time graph with capacities
    scaled down by the tile side ``k``.  Non-preemptive."""

    def __init__(self, network: Network, horizon: int, k: int | None = None,
                 pmax: int | None = None, strict: bool = True):
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.pmax = network.pmax() if pmax is None else int(pmax)
        self.k = network.tile_side_k(self.pmax) if k is None else int(k)
        B, c = network.buffer_size, network.min_capacity
        if strict and (B < self.k or c < self.k):
            raise ValidationError(
                f"Theorem 13 requires B, c >= k = {self.k}; got B={B}, c={c}"
            )
        self.digraph = ReferenceScaledDigraph(
            self.graph, buffer_cap=B // self.k, link_cap=c // self.k
        )
        self.ipp = OnlinePathPacking(self.digraph, pmax=self.pmax)

    def route(self, requests) -> Plan:
        plan = Plan()
        for r in self.arrival_order(requests):
            self.network.check_request(r)
            src = self.graph.source_vertex(r)
            if r.is_trivial():
                if self.graph.valid_vertex(src):
                    plan.record(r.rid, RouteOutcome.DELIVERED, STPath(src, (), rid=r.rid))
                else:
                    plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            sink = self.digraph.register_sink(r)
            if sink is None or not self.graph.valid_vertex(src):
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            path = self.ipp.route(("v", src), sink)
            if path is None:
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            moves = tuple(
                edge_key[2] for edge_key in path.edges if edge_key[0] == "e"
            )
            plan.record(r.rid, RouteOutcome.DELIVERED, STPath(src, moves, rid=r.rid))
        plan.meta["algorithm"] = "theorem13-large-capacity"
        plan.meta["k"] = self.k
        plan.meta["ipp"] = {
            "accepted": self.ipp.stats.accepted,
            "rejected": self.ipp.stats.rejected,
            "max_load_ratio": self.ipp.max_load_ratio(),
        }
        return plan


#: algorithm -> (reference router, fast router)
PAIRS = {
    "det2": (ReferenceRouter, ImprovedDeterministicRouter),
    "theorem13": (ReferenceLargeCapacityRouter, LargeCapacityRouter),
}


def edge_id(router, key) -> int:
    """The fast router's id of the reference's ``("e", vertex, move)``."""
    *node, col = key[1]
    t = col + sum(node)
    return router.digraph.vertex(tuple(node), t) * router.digraph.moves \
        + key[2]


def route(factory, network, horizon, requests, params):
    """``(plan, router)``, or ``(error, None)`` when routing raises."""
    try:
        router = factory(network, horizon, **params)
        return router.route(requests), router
    except ValidationError as exc:
        return (type(exc), str(exc)), None


@st.composite
def instances(draw):
    algorithm = draw(st.sampled_from(sorted(PAIRS)))
    # theorem13 scales B and c down by k, so it needs larger ones
    top = 12 if algorithm == "theorem13" else 3
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 5 if d == 1 else 4 if d == 2 else 3))
                 for _ in range(d))
    B, c = draw(st.integers(0, top)), draw(st.integers(1, top))
    edges = [(node, axis) for node in Network(dims, B, c).nodes()
             for axis in range(d) if node[axis] + 1 < dims[axis]]
    link_caps = {}
    if edges and draw(st.booleans()):
        for edge in draw(st.lists(st.sampled_from(edges), max_size=6,
                                  unique=True)):
            link_caps[edge] = draw(st.integers(1, top))
    network = Network(dims, B, c, link_caps=link_caps)
    horizon = draw(st.integers(0, 3 * network.diameter + 6))
    count = draw(st.integers(0, 25))
    # a narrow window congests the links; a wide one runs past the horizon
    window = draw(st.integers(0, horizon + 2))
    # on a fifth of the draws one request is invalid: its destination may
    # lie behind its source, or its deadline is one step too early
    faulty = draw(st.sampled_from((None,) * 8 + ("dest", "deadline")))
    culprit = draw(st.integers(0, max(0, count - 1)))
    requests = []
    for rid in range(count):
        source = tuple(draw(st.integers(0, l - 1)) for l in dims)
        if faulty == "dest" and rid == culprit:
            dest = tuple(draw(st.integers(0, l - 1)) for l in dims)
        else:
            dest = tuple(draw(st.integers(s, l - 1))
                         for s, l in zip(source, dims))
        arrival = draw(st.integers(0, window))
        earliest = arrival + sum(b - a for a, b in zip(source, dest))
        if faulty == "deadline" and rid == culprit:
            deadline = earliest - 1
        elif draw(st.booleans()):
            deadline = earliest + draw(st.integers(0, 6))
        else:
            deadline = None
        requests.append(Request(source, dest, arrival, deadline, rid=rid))
    # an explicit pmax on a fifth of the draws, 0 included (an error)
    params = {}
    if draw(st.integers(0, 4)) == 0:
        params["pmax"] = draw(st.integers(0, 8))
    # theorem13 mostly runs with an explicit k and no B, c >= k check, so
    # the scaled capacities B // k and min_capacity // k reach 0
    if algorithm == "theorem13" and draw(st.integers(0, 4)) > 0:
        params.update(k=draw(st.integers(1, 8)), strict=False)
    return algorithm, network, horizon, requests, params


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_same_plans_as_tuple_keyed_search(instance):
    algorithm, network, horizon, requests, params = instance
    reference, router = PAIRS[algorithm]
    want, slow = route(reference, network, horizon, requests, params)
    got, fast = route(router, network, horizon, requests, params)
    if slow is None or fast is None:
        assert got == want  # the same error, raised at the same request
        return
    assert got.paths == want.paths
    assert got.outcome == want.outcome
    assert got.truncated == want.truncated
    assert got.meta == want.meta
    # bit-identical weights and loads on every real edge; the reference's
    # sink edges carry load but never weight
    assert fast.ipp.x == {edge_id(fast, k): w for k, w in slow.ipp.x.items()}
    assert fast.ipp.flow == {edge_id(fast, k): f
                             for k, f in slow.ipp.flow.items()
                             if k[0] == "e"}
    assert fast.ipp.stats == slow.ipp.stats
    fast.ipp.check_theorem1_invariants()
    if algorithm == "det2":
        assert fast.ipp.max_load_ratio() <= 1
    else:  # Theorem 13's loads may pass the scaled capacities
        assert fast.ipp.max_load_ratio() <= fast.ipp.load_bound()


class TestIds:
    def test_vertex_and_edge_ids(self):
        net = GridNetwork((3, 4), buffer_size=2, capacity=1)
        router = ImprovedDeterministicRouter(net, horizon=9)
        g = router.digraph
        assert (g.moves, g.times) == (3, 10)
        assert g.vertex((0, 0), 0) == 0
        assert g.vertex((1, 2), 5) == (1 * 4 + 2) * 10 + 5
        # an axis move advances the node by its stride and time by one
        assert g.vertex((2, 2), 6) - g.vertex((1, 2), 5) == g._steps[0]
        assert g.vertex((1, 3), 6) - g.vertex((1, 2), 5) == g._steps[1]
        assert g._steps[2] == 1

    def test_capacity_per_edge_id(self):
        net = LineNetwork(4, buffer_size=2, capacity=3,
                          link_caps={((1,), 0): 1})
        g = ImprovedDeterministicRouter(net, horizon=5).digraph
        assert g.capacity(g.vertex((0,), 2) * 2 + 0) == 3
        assert g.capacity(g.vertex((1,), 2) * 2 + 0) == 1
        assert g.capacity(g.vertex((1,), 2) * 2 + 1) == 2  # buffer: B

    def test_slack(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        g = ImprovedDeterministicRouter(net, horizon=10).digraph
        assert g.slack(Request.line(1, 5, 2)) == 10 - 2 - 4
        assert g.slack(Request.line(1, 5, 2, deadline=7)) == 1
        assert g.slack(Request.line(1, 5, 8)) == -2


#: det2's router and theorem13's; ``k = 1`` keeps theorem13's capacities
ROUTERS = (ImprovedDeterministicRouter, partial(LargeCapacityRouter, k=1))


class TestRejection:
    """Requests rejected before the packer sees them leave its stats alone,
    in det2's router and in theorem13's."""

    def test_source_past_horizon(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        for factory in ROUTERS:
            router = factory(net, horizon=8)
            plan = router.route([Request.line(0, 3, 9, rid=0),
                                 Request.line(2, 2, 9, rid=1)])
            assert plan.outcome == {0: RouteOutcome.REJECTED,
                                    1: RouteOutcome.REJECTED}
            assert router.ipp.stats.total == 0

    def test_no_reachable_copy(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        for factory in ROUTERS:
            router = factory(net, horizon=8)
            plan = router.route([Request.line(0, 5, 4, rid=0),
                                 Request.line(3, 3, 4, rid=1)])
            assert plan.outcome == {0: RouteOutcome.REJECTED,
                                    1: RouteOutcome.DELIVERED}
            assert router.ipp.stats.total == 0

    def test_pmax_below_one(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        for factory in ROUTERS:
            with pytest.raises(ValidationError, match="pmax must be >= 1"):
                factory(net, horizon=8, pmax=0)

    def test_hop_cap_counts_the_sink_edge(self):
        # 3 hops on the grid plus the sink edge: pmax 3 rejects, 4 accepts
        net = LineNetwork(4, buffer_size=1, capacity=1)
        for factory in ROUTERS:
            for pmax, outcome in ((3, RouteOutcome.REJECTED),
                                  (4, RouteOutcome.DELIVERED)):
                router = factory(net, horizon=8, pmax=pmax)
                plan = router.route([Request.line(0, 3, 0, rid=0)])
                assert plan.outcome[0] == outcome


@pytest.mark.parametrize("algorithm", ["det2", "theorem13"])
def test_one_node_grid_runs(algorithm):
    """A diameter-0 grid: the capability check and ``run`` agree, and every
    (trivial) request is delivered."""
    scenario = Scenario(NetworkSpec("grid", (1, 1), 2, 2),
                        WorkloadSpec("uniform", {"num": 5, "horizon": 4}),
                        algorithm, horizon=6, seed=3)
    assert unavailable_reason(scenario) is None
    report = run(scenario)
    assert report.requests == 5
    assert report.throughput == 5
