"""Improved deterministic grid routing (arXiv:1501.06140).

*Better Online Deterministic Packet Routing on Grids* improves the
source paper's deterministic algorithm by dropping the lossy
intermediate layers: instead of reducing each request to a sketch path
over tiles (paying the tiling constants) or splitting every capacity
``k``-fold (Theorem 13, paying a ``1/k`` throughput factor), the
improved router runs the online primal-dual path packing *directly on
the space-time graph with the true per-edge capacities*.

Two properties implement that frontier here:

* **True capacities.** Edge capacities come from
  :meth:`~repro.network.topology.Network.capacity_of` per tail node and
  axis (buffer edges carry the full ``B``), so heterogeneous links are
  priced individually instead of through the global minimum, and no
  ``k``-fold scaling discards capacity up front.
* **Saturation awareness.** The lightest-path search sees only
  *residual* edges -- an edge whose integral load has reached its
  capacity is skipped -- so the packing's ``beta`` is 1 by
  construction: every plan the router emits replays on the simulator
  without preemption or capacity violations, for any ``B >= 0`` and
  ``c >= 1`` (no ``B, c >= 3`` side condition).

Theorem 13 (:class:`~repro.core.deterministic.variants.LargeCapacityRouter`)
is this router with both properties undone: every edge carries the
scaled capacity ``min_capacity // k`` or ``B // k``, and saturated edges
stay visible, so loads may pass the scaled capacity as the theorem allows.

The search runs on integer vertex and edge ids and only where the
request's destination is still reachable (see
:class:`ResidualSpaceTimeDigraph`); its paths are exactly those of the
generic oracle of :mod:`repro.packing.oracle` on the whole graph.

The primal-dual admission rule (reject when the lightest residual path
has weight ``>= 1``) is unchanged, so the Theorem 1 competitiveness
machinery still applies -- now against the *unscaled* fractional
optimum, which is where the improvement over ``det``/``theorem13``
comes from.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.base import Plan, RouteOutcome, Router
from repro.network.topology import Network
from repro.packing.ipp import OnlinePathPacking
from repro.packing.oracle import OraclePath
from repro.spacetime.graph import STPath, SpaceTimeGraph

#: heap entry of the request's sink (vertex ids are non-negative)
_SINK = -1


class ResidualSpaceTimeDigraph:
    """Residual space-time graph with integer ids and its own oracle.

    **Ids.**  The vertex of grid node ``x`` at time ``t`` is
    ``node_index(x) * (horizon + 1) + t``; the edge leaving vertex ``v``
    with move ``m`` (axis ``0..d-1``, or the buffer move ``d``) is
    ``v * (d + 1) + m``.  An axis move ``i`` adds
    ``stride_i * (horizon + 1) + 1`` to the vertex id, where ``stride_i``
    is the row-major node stride of axis ``i``; a buffer move adds 1.

    **Residual capacities.**  Axis moves carry
    :meth:`~repro.network.topology.Network.capacity_of` of their tail node,
    buffer moves carry ``B``; ``caps``, one capacity per move (the axis
    moves, then the buffer move), replaces them at every node.  ``x`` is
    bound to the packer's edge weights after construction.  An edge whose
    ``flow`` has reached its capacity is invisible to :meth:`lightest_path`:
    bound to the packer's integral loads, ``flow`` keeps the packing's load
    ratio ``<= 1``; left empty, it hides only the zero-capacity edges.

    **Pruning.**  A path of request ``r`` must end on a destination copy
    ``(dest, t')`` with ``arrival + dist(source, dest) <= t' <=
    min(deadline, horizon)``.  :meth:`lightest_path` therefore takes an
    axis move ``i`` only while ``x_i < dest_i`` and a buffer move only
    while the buffers used so far are fewer than :meth:`slack`.  Every
    edge advances time by exactly one, so a pruned vertex has no path to
    a valid copy, and neither has any of its successors.

    **Why it is exact.**  Dijkstra over the whole graph pushes a vertex
    that can still reach a copy only while popping another such vertex.
    Dropping the others therefore leaves those vertices popped in the
    same order, with the same labels, parents and push-counter ties.  The
    path, its float weight and every later weight update are bit-identical
    to :func:`repro.packing.oracle.lightest_path` on the tuple-keyed graph
    with one sink node per request.
    """

    def __init__(self, graph: SpaceTimeGraph, caps: tuple | None = None):
        network, d = graph.network, graph.d
        self.graph = graph
        self.moves = d + 1  # edge ids per vertex
        self.times = graph.horizon + 1  # vertex ids per node
        self.flow: dict = {}  # OnlinePathPacking.flow, bound by det2's router
        self.x: dict = {}  # bound to OnlinePathPacking.x by the router
        # node index -> coordinates, the sum of its coordinates (untilted
        # column = t - level), and its capacities per move
        self._coords = list(network.nodes())
        self._level = [sum(node) for node in self._coords]
        if caps is None:
            self._caps = [
                (*(network.capacity_of(node, axis) for axis in range(d)),
                 network.buffer_size)
                for node in self._coords
            ]
        else:
            self._caps = [tuple(caps)] * len(self._coords)
        self._steps = [1] * self.moves
        stride = self.times
        for axis in reversed(range(d)):
            self._steps[axis] = stride + 1
            stride *= network.dims[axis]

    def vertex(self, node, t: int) -> int:
        """Id of the vertex of grid node ``node`` at time ``t``."""
        return self.graph.network.node_index(node) * self.times + t

    def last_time(self, request) -> int:
        """Latest time of a destination copy: ``min(deadline, horizon)``."""
        if request.deadline is None:
            return self.graph.horizon
        return min(request.deadline, self.graph.horizon)

    def slack(self, request) -> int:
        """Buffer moves a path of ``request`` can afford,
        ``min(deadline, horizon) - arrival - dist(source, dest)``; negative
        when no destination copy is reachable."""
        distance = self.graph.network.dist(request.source, request.dest)
        return self.last_time(request) - request.arrival - distance

    def capacity(self, edge: int) -> int:
        vertex, move = divmod(edge, self.moves)
        return self._caps[vertex // self.times][move]

    def lightest_path(self, source: int, request, weight=None,
                      max_hops=None) -> OraclePath | None:
        """Lightest path from vertex ``source`` to a destination copy of
        ``request``: the oracle :class:`OnlinePathPacking` calls.

        The search is :func:`repro.packing.oracle.lightest_path` restricted
        to the region that can still reach a copy (see the class
        docstring): a heap on ``(weight, hops, push counter)``, strict
        ``<`` improvement, and relaxation of the axis moves ``0..d-1``,
        then the buffer move, then -- from a copy -- the sink edge.  The
        sink edge counts as a hop but is left out of the returned path: its
        weight is 0 and its capacity infinite, so no weight or load the
        packer checks depends on it.  ``weight`` is the packer's reader of
        ``x``; the search reads the bound ``x`` dict directly.

        Returns ``None`` when no copy is reachable, or when the lightest
        path has more than ``max_hops`` hops.
        """
        if self.slack(request) < 0:
            # the source lies past the region; an axis move from it could
            # step past the horizon, onto the next node's time-0 vertex id
            return None
        times, steps = self.times, self._steps
        coords, level, caps = self._coords, self._level, self._caps
        flow, x = self.flow.get, self.x.get
        dest = request.dest
        dest_node = self.graph.network.node_index(dest)
        # untilted coordinates (x, t - sum(x)) of the region's far corner:
        # axis moves raise x_i, buffer moves raise the column
        limit = (*dest, self.last_time(request) - sum(dest))
        counter = 0
        heap = [(0.0, 0, counter, source)]
        label = {source: 0.0}
        parent = {}  # vertex -> id of the edge that reached it
        sink = None  # (weight, hops, copy) of the lightest copy so far
        while heap:
            w, h, _, v = heappop(heap)
            if v == _SINK:
                break
            if w > label[v]:
                # superseded by a lighter push; with non-negative weights
                # and a vertex's hops fixed by its time, this skips what
                # the generic oracle's settled set skips
                continue
            node, t = divmod(v, times)
            here = (*coords[node], t - level[node])
            cap = caps[node]
            tail = v * self.moves
            h += 1
            for move in range(self.moves):
                if here[move] >= limit[move]:
                    continue  # pruned: no copy reachable past the corner
                edge = tail + move
                if flow(edge, 0) >= cap[move]:
                    continue  # absent or saturated
                head = v + steps[move]
                nw = w + x(edge, 0.0)
                cur = label.get(head)
                if cur is None or nw < cur:
                    label[head] = nw
                    parent[head] = edge
                    counter += 1
                    heappush(heap, (nw, h, counter, head))
            if node == dest_node and (sink is None or (w, h) < sink[:2]):
                sink = (w, h, v)
                counter += 1
                heappush(heap, (w, h, counter, _SINK))
        else:
            return None
        w, hops, v = sink
        if max_hops is not None and hops > max_hops:
            return None
        edges, nodes = [], [v]
        while v != source:
            edge = parent[v]
            v = edge // self.moves
            edges.append(edge)
            nodes.append(v)
        edges.reverse()
        nodes.reverse()
        return OraclePath(tuple(edges), tuple(nodes), w)


class ImprovedDeterministicRouter(Router):
    """arXiv:1501.06140: saturation-aware primal-dual path packing on
    the space-time graph with true per-edge capacities.  Non-preemptive;
    emitted plans are feasible by construction (``beta = 1``)."""

    def __init__(self, network: Network, horizon: int,
                 pmax: int | None = None):
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.pmax = network.pmax() if pmax is None else int(pmax)
        self.digraph = ResidualSpaceTimeDigraph(self.graph)
        self.ipp = OnlinePathPacking(
            self.digraph, pmax=self.pmax,
            oracle=ResidualSpaceTimeDigraph.lightest_path)
        # the adapter reads the packer's own loads and weights: acceptance
        # immediately hides any edge it saturates
        self.digraph.flow = self.ipp.flow
        self.digraph.x = self.ipp.x

    def route(self, requests) -> Plan:
        plan = Plan()
        for r in self.arrival_order(requests):
            src = self.graph.source_vertex(r)
            if r.is_trivial():
                if self.graph.valid_vertex(src):
                    plan.record(r.rid, RouteOutcome.DELIVERED,
                                STPath(src, (), rid=r.rid))
                else:
                    plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            # no destination copy by min(deadline, horizon); this covers
            # a source past the horizon too
            if self.digraph.slack(r) < 0:
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            path = self.ipp.route(self.digraph.vertex(r.source, r.arrival), r)
            if path is None:
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            moves = tuple(edge % self.digraph.moves for edge in path.edges)
            plan.record(r.rid, RouteOutcome.DELIVERED,
                        STPath(src, moves, rid=r.rid))
        plan.meta.update(self.meta())
        return plan

    def meta(self) -> dict:
        """The plan's ``meta``: the algorithm and the packer's counts."""
        return {
            "algorithm": "det2-frontier",
            "ipp": {
                "accepted": self.ipp.stats.accepted,
                "rejected": self.ipp.stats.rejected,
                "max_load_ratio": self.ipp.max_load_ratio(),
            },
        }


# -- registry entry ---------------------------------------------------------

from repro.api.registry import planner_adapter, register_algorithm  # noqa: E402
from repro.network.topology import grid_geometry_reason  # noqa: E402


def _det2_requires(network, horizon) -> str | None:
    # the space-time construction is the only constraint: any B >= 0 and
    # c >= 1 works (saturated edges simply vanish from the residual graph)
    return grid_geometry_reason(network)


register_algorithm(
    "det2",
    description="improved deterministic router (arXiv:1501.06140): "
    "saturation-aware path packing on the space-time graph with true "
    "per-edge capacities; any B >= 0, c >= 1",
    requires=_det2_requires,
    fast_engine="plan",
)(planner_adapter(ImprovedDeterministicRouter, "det2"))
