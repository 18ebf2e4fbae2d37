"""Classify-and-select: the complete randomized algorithm (Section 7.6).

1. choose the tiling parameters ``tau, Q`` (Definition 15);
2. draw phase shifts ``phi_tau, phi_Q`` uniformly at random;
3. flip a fair coin ``b``;
4. serve only ``Far+`` requests (with the Far+ algorithm) when ``b = 1``,
   only ``Near`` requests (greedy vertical routing) when ``b = 0``.

Theorem 29: for ``B, c in [1, log n]`` the expected competitive ratio is
``O(log n)``.  The per-source-event cap of Proposition 14 (at most the
``B + c`` closest requests per node and time step) is applied up front.

:class:`RegimeLineRouter` is the pipeline of the two other regimes of
Table 2 (Sections 7.7 and 7.8), which apply the same cap.
"""

from __future__ import annotations

from repro.core.base import Plan, RouteOutcome, Router
from repro.core.deterministic.geometry import plain_sketch_tiles
from repro.core.randomized.far_plus import FarPlusRouter
from repro.core.randomized.near import NearRouter
from repro.core.randomized.params import PAPER_GAMMA, RandomizedParams
from repro.network.topology import Network
from repro.spacetime.graph import STPath
from repro.util.rng import as_generator


def proposition14_filter(requests, cap: int):
    """Keep, per source event ``(node, t)``, only the ``cap`` requests with
    the closest destinations (Proposition 14); returns (kept, dropped)."""
    groups: dict = {}
    for r in requests:
        groups.setdefault((r.source, r.arrival), []).append(r)
    kept, dropped = [], []
    for group in groups.values():
        group.sort(key=lambda r: (r.distance, r.rid))
        kept.extend(group[:cap])
        dropped.extend(group[cap:])
    return kept, dropped


class RegimeLineRouter(Router):
    """The pipeline the Section 7.7 and 7.8 routers share.

    After the Proposition 14 filter, every non-trivial request in ``R+``
    (:meth:`in_r_plus`) goes through online path packing on the plain
    sketch graph, the sparsification coin ``lam`` and the 1/4 load cap on
    the sketch edges, then the regime's detailed routing
    (:meth:`_detailed`).  The counters land in ``plan.meta[meta_key]``.
    Subclasses build the graph, sketch, packer, ledger and counters.
    """

    #: the ``plan.meta`` key of the counters
    meta_key: str

    def route(self, requests) -> Plan:
        plan = Plan()
        kept, dropped = proposition14_filter(
            self.network.check_requests(requests),
            self.network.buffer_size + self.network.min_capacity,
        )
        for r in self.arrival_order(kept):
            if r.is_trivial():
                src = self.graph.source_vertex(r)
                if self.graph.valid_vertex(src):
                    plan.record(r.rid, RouteOutcome.DELIVERED, STPath(src, (), rid=r.rid))
                else:
                    plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            if not self.in_r_plus(r):
                self.counters["not_rplus"] += 1
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            outcome, path = self._route_one(r)
            plan.record(r.rid, outcome, path)
        for r in dropped:
            plan.record(r.rid, RouteOutcome.REJECTED)
        plan.meta[self.meta_key] = dict(self.counters)
        return plan

    def _route_one(self, request):
        src = self.graph.source_vertex(request)
        if not self.graph.valid_vertex(src):
            return RouteOutcome.REJECTED, None
        sink = self.sketch.register_sink(
            ("dest", request.dest), request.dest, 0, self.graph.horizon
        )
        if sink is None:
            return RouteOutcome.REJECTED, None
        sketch_path = self.ipp.route(self.sketch.source_node(request), sink)
        if sketch_path is None:
            self.counters["ipp_rejected"] += 1
            return RouteOutcome.REJECTED, None
        if self.rng.random() >= self.lam:
            self.counters["coin_rejected"] += 1
            return RouteOutcome.REJECTED, None
        edges = [e for e in sketch_path.edges if e[0] == "e"]
        for e in edges:
            if (self.sparse_load.get(e, 0) + 1) >= self.sketch.capacity(e) / 4.0:
                self.counters["load_rejected"] += 1
                return RouteOutcome.REJECTED, None
        tiles = plain_sketch_tiles(sketch_path)
        path = self._detailed(request, src, tiles)
        if path is None:
            self.counters["detail_rejected"] += 1
            return RouteOutcome.REJECTED, None
        for e in edges:
            self.sparse_load[e] = self.sparse_load.get(e, 0) + 1
        self.counters["delivered"] += 1
        return RouteOutcome.DELIVERED, path

    #: one straight run of cells, checked against ``graph`` and ``ledger``
    _try_run = FarPlusRouter._try_run


class RandomizedLineRouter(Router):
    """The full classify-and-select router (Theorem 29).

    Parameters
    ----------
    network:
        A line with ``B, c in [1, log n]``.
    horizon:
        Simulation horizon.
    rng:
        Seedable randomness source (phase shifts, class coin, sparsification
        coins).
    gamma / lam:
        Sparsification constant (paper: 200) or a direct override of the
        probability ``lambda``; see :class:`RandomizedParams`.
    force_class:
        ``"far"`` or ``"near"`` pins the class coin (used by the analysis
        benches that study one class); ``None`` flips fairly.
    """

    def __init__(self, network: Network, horizon: int, rng=None,
                 gamma: float = PAPER_GAMMA, lam: float | None = None,
                 force_class: str | None = None):
        self.network = network
        self.horizon = int(horizon)
        self.rng = as_generator(rng)
        self.params = RandomizedParams.for_network(network, gamma=gamma, lam=lam)
        self.force_class = force_class
        # step 2: random phase shifts
        self.phases = (
            int(self.rng.integers(0, self.params.Q)),
            int(self.rng.integers(0, self.params.tau)),
        )
        # step 3: fair class coin
        if force_class is None:
            self.serve_far = bool(self.rng.integers(0, 2))
        else:
            self.serve_far = force_class == "far"
        self.far_router = FarPlusRouter(
            network, horizon, self.params, phases=self.phases, rng=self.rng
        )
        self.near_router = NearRouter(
            network, horizon, self.params, phases=self.phases
        )

    def plan_class(self) -> str:
        """Which class this instance's coin selected ("far+" or "near")."""
        return "far+" if self.serve_far else "near"

    def route(self, requests) -> Plan:
        kept, dropped = proposition14_filter(
            self.network.check_requests(requests), self.params.B + self.params.c
        )
        active = self.far_router if self.serve_far else self.near_router
        plan = active.route(kept)
        for r in dropped:
            plan.record(r.rid, RouteOutcome.REJECTED)
        plan.meta["class"] = "far+" if self.serve_far else "near"
        plan.meta["phases"] = self.phases
        plan.meta["prop14_dropped"] = len(dropped)
        return plan
