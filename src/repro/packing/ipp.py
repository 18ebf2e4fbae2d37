"""Online integral path packing -- Algorithm 3 of Appendix E.

The primal-dual online path packing algorithm of Awerbuch-Azar-Plotkin /
Buchbinder-Naor, as listed in the paper.  Upon a request ``(a_i, b_i)``:

1. find a lightest path ``p`` from ``a_i`` to ``b_i`` under the current edge
   weights ``x_e`` (at most ``p_max`` edges);
2. if ``alpha(p) = sum_{e in p} x_e >= 1`` reject; otherwise route along
   ``p`` and update every edge ``e in p``:

   ``x_e <- x_e * 2^(1/c(e)) + (2^(1/c(e)) - 1) / p_max``.

Theorem 1: the algorithm is ``(2, log(1 + 3 p_max))``-competitive -- its
throughput is at least half the optimal *fractional* packing, and the load
of every edge is at most ``log2(1 + 3 p_max) * c(e)``.

The implementation also maintains the primal variables ``z_i`` and the
primal/dual objective values so tests can check the invariants of the
Theorem 1 proof (``Delta P <= 2 Delta D``, weak duality, the load bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api.registry import register_algorithm
from repro.packing.oracle import OraclePath, lightest_path
from repro.util.errors import ValidationError


@dataclass
class IPPStats:
    """Running accounting of an :class:`OnlinePathPacking` instance."""

    accepted: int = 0
    rejected: int = 0
    primal_cost: float = 0.0  # sum_e x_e c(e) + sum_i z_i
    dual_value: float = 0.0  # number of routed requests (unit flows)
    z: list = field(default_factory=list)  # per-request primal z_i

    @property
    def total(self) -> int:
        return self.accepted + self.rejected


class OnlinePathPacking:
    """Algorithm 3 over any digraph exposing ``out_edges``/``capacity``.

    Parameters
    ----------
    graph:
        Digraph protocol object (e.g. a sketch graph or a space-time graph
        adapter).
    pmax:
        Maximum number of edges of a legal path; also the denominator of the
        weight-update additive term.
    oracle:
        Lightest-path function with the signature of
        :func:`repro.packing.oracle.lightest_path`; injectable for tests.
    """

    def __init__(self, graph, pmax: int, oracle=lightest_path):
        if pmax < 1:
            raise ValidationError(f"pmax must be >= 1, got {pmax}")
        self.graph = graph
        self.pmax = int(pmax)
        self.oracle = oracle
        self.x: dict = {}  # edge weights, default 0.0
        self.flow: dict = {}  # integral loads per edge
        self.stats = IPPStats()

    # -- weights --------------------------------------------------------------

    def weight(self, edge_key) -> float:
        return self.x.get(edge_key, 0.0)

    def load(self, edge_key) -> int:
        return self.flow.get(edge_key, 0)

    def load_bound(self) -> float:
        """Theorem 1's guaranteed bound: ``log2(1 + 3 p_max)`` times capacity."""
        return math.log2(1 + 3 * self.pmax)

    # -- the online step --------------------------------------------------------

    def route(self, source, target) -> OraclePath | None:
        """Process one request; returns the packed path or ``None`` (reject).

        Mirrors Algorithm 3: oracle call, the ``alpha(p, i) < 1`` test, the
        multiplicative weight update and the primal bookkeeping.
        """
        path = self.oracle(self.graph, source, target, self.weight, self.pmax)
        if path is None or path.weight >= 1.0:
            self.stats.rejected += 1
            self.stats.z.append(0.0)
            return None
        # accept: route along path (f(i, p) <- 1)
        for edge_key in path.edges:
            cap = self.graph.capacity(edge_key)
            self.flow[edge_key] = self.flow.get(edge_key, 0) + 1
            if math.isinf(cap):
                continue  # sink edges: 2^(1/inf) = 1, additive term 0
            factor = 2.0 ** (1.0 / cap)
            old = self.x.get(edge_key, 0.0)
            new = old * factor + (factor - 1.0) / self.pmax
            self.stats.primal_cost += (new - old) * cap
            self.x[edge_key] = new
        z_i = 1.0 - path.weight
        self.stats.z.append(z_i)
        self.stats.primal_cost += z_i
        self.stats.accepted += 1
        self.stats.dual_value += 1.0
        return path

    # -- verification helpers (used by tests and benches) ------------------------

    def max_load_ratio(self) -> float:
        """Maximum ``flow(e) / c(e)`` over all edges (the packing's beta)."""
        worst = 0.0
        for edge_key, f in self.flow.items():
            cap = self.graph.capacity(edge_key)
            if math.isinf(cap):
                continue
            worst = max(worst, f / cap)
        return worst

    def check_theorem1_invariants(self) -> None:
        """Raise when a Theorem 1 invariant is violated.

        Checks (i) primal cost <= 2 * dual value (the per-step
        ``Delta P <= 2 Delta D`` summed), and (ii) every edge load is at
        most ``log2(1 + 3 p_max) * c(e)``.
        """
        if self.stats.primal_cost > 2.0 * self.stats.dual_value + 1e-9:
            raise AssertionError(
                f"primal {self.stats.primal_cost} exceeds twice the dual "
                f"{self.stats.dual_value}"
            )
        bound = self.load_bound()
        for edge_key, f in self.flow.items():
            cap = self.graph.capacity(edge_key)
            if math.isinf(cap):
                continue
            if f > bound * cap + 1e-9:
                raise AssertionError(
                    f"edge {edge_key}: load {f} exceeds {bound} * capacity {cap}"
                )


def _ipp_sketch_requires(network, horizon) -> str | None:
    from repro.network.topology import grid_geometry_reason

    if network.d != 1:
        return "targets lines (d = 1)"
    return grid_geometry_reason(network)


@register_algorithm(
    "ipp-sketch",
    description="Theorem 1 audit: online integral path packing on the tiled "
    "sketch graph (accept/reject only; no packet-level replay).  meta "
    "carries opt_f, max_load_ratio, load_bound",
    requires=_ipp_sketch_requires,
)
def _run_ipp_sketch(network, requests, horizon, *, rng=None, engine=None,
                    tile: int = 4, pmax: int | None = None):
    """Run Algorithm 3 over the plain sketch of ``network``'s space-time
    graph and report acceptances as a synthetic simulation result.

    The throughput is the number of IPP-accepted sketch paths -- the
    quantity Theorem 1 bounds against half the fractional optimum -- not a
    replayed packet count, so reported ratios may drop below 1 (the sketch
    capacities are inflated by the load bound).  Theorem 1's primal-dual
    and load invariants are asserted on every run.
    """
    from repro.network.packet import DeliveryStatus
    from repro.network.stats import NetworkStats
    from repro.network.simulator import SimulationResult
    from repro.network.trace import TraceRecorder
    from repro.packing.lp import fractional_opt
    from repro.spacetime.graph import SpaceTimeGraph
    from repro.spacetime.sketch import PlainSketchGraph
    from repro.spacetime.tiling import Tiling

    requests = network.check_requests(requests)
    graph = SpaceTimeGraph(network, horizon)
    sketch = PlainSketchGraph(graph, Tiling((tile, tile)))
    ipp = OnlinePathPacking(sketch, pmax=network.pmax() if pmax is None else pmax)
    stats = NetworkStats()
    status = {}
    for r in requests:
        sink = sketch.register_sink(("d", r.dest), r.dest, 0, horizon)
        accepted = (sink is not None
                    and ipp.route(sketch.source_node(r), sink) is not None)
        status[r.rid] = (DeliveryStatus.DELIVERED if accepted
                         else DeliveryStatus.REJECTED)
        stats.delivered += accepted
        stats.rejected += not accepted
    ipp.check_theorem1_invariants()
    result = SimulationResult(stats=stats, status=status,
                              trace=TraceRecorder(enabled=False),
                              engine="reference")
    result.plan_meta = {
        "opt_f": float(fractional_opt(network, requests, horizon)),
        "max_load_ratio": ipp.max_load_ratio(),
        "load_bound": ipp.load_bound(),
        "ipp": {"accepted": ipp.stats.accepted, "rejected": ipp.stats.rejected},
    }
    return result
