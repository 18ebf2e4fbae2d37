"""Algorithm 1: the deterministic framework (Section 4).

Upon arrival of request ``r_i = (a_i, b_i, t_i, d_i)``:

1. reduce it to a path request on the ``{1, d+1, inf}``-sketch graph: source
   is the half-tile ``s_in`` of the tile containing ``(a_i, t_i)``,
   destination is a per-request sink wired to every tile holding a copy
   ``(b_i, t')`` with ``t_i <= t' <= d_i`` (Sections 5.1, 5.4);
2. run online integral path packing; a rejection there rejects the request;
3. perform detailed routing of the sketch path in the space-time graph;
   failures preempt the request (Section 5.2).

Parameters follow the paper: ``p_max = 2n(1 + n(B/c + 1))`` on a line
(Section 3.6.1), tile side ``k = ceil(log2(1 + 3 p_max))``, and the packing
bound ``p_max <- 2 p_max + 1`` after node splitting (Section 5.1).  Both are
overridable for the ablation benches (E16) -- the defaults reproduce the
theorems, smaller ``k`` explores the practical trade-off.
"""

from __future__ import annotations

from repro.core.base import Plan, RouteOutcome, Router
from repro.core.deterministic.detailed import DetailedRouting
from repro.core.deterministic.geometry import sketch_tiles, tile_moves
from repro.network.topology import Network
from repro.packing.ipp import OnlinePathPacking
from repro.spacetime.graph import STPath, SpaceTimeGraph
from repro.spacetime.sketch import SplitSketchGraph
from repro.spacetime.tiling import Tiling
from repro.util.errors import ValidationError


class DeterministicRouter(Router):
    """Centralized deterministic online packet routing for uni-directional
    grids (Theorem 4 for ``d = 1``, Theorem 10 in general, Theorem 11 with
    ``B = 0``).

    Parameters
    ----------
    network:
        Grid with ``B, c in [3, log n]`` (Theorem 4/10) or ``B = 0, c >= 3``
        (Theorem 11).  ``strict=False`` disables the range check for
        exploratory runs.
    horizon:
        Simulation horizon ``T``; all deadlines are truncated to it.
    k, pmax:
        Tile side and path-length bound; default to the paper's formulas.
    """

    def __init__(self, network: Network, horizon: int, k: int | None = None,
                 pmax: int | None = None, strict: bool = True):
        B, c = network.buffer_size, network.min_capacity
        if strict:
            ok = (B >= 3 and c >= 3) or (B == 0 and c >= 3)
            if not ok:
                raise ValidationError(
                    f"deterministic algorithm requires B, c >= 3 (or B = 0, "
                    f"c >= 3); got B={B}, c={c}.  Pass strict=False to "
                    f"experiment outside the theorem's range."
                )
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.pmax = network.pmax() if pmax is None else int(pmax)
        self.k = network.tile_side_k(self.pmax) if k is None else int(k)
        self.tiling = Tiling.cubes(network.d, self.k)
        self.sketch = SplitSketchGraph(self.graph, self.tiling)
        # Section 5.1: node splitting doubles path lengths (plus the sink hop)
        self.ipp = OnlinePathPacking(self.sketch, pmax=2 * self.pmax + 1)
        self.detail = DetailedRouting(self.graph, self.tiling)

    def route(self, requests) -> Plan:
        plan = Plan()
        counters = {"trivial": 0, "ipp_rejected": 0, "no_sink": 0, "accepted": 0}
        for request in self.arrival_order(requests):
            if request.is_trivial():
                # source == destination: delivered at injection
                src = self.graph.source_vertex(request)
                if self.graph.valid_vertex(src):
                    plan.record(
                        request.rid,
                        RouteOutcome.DELIVERED,
                        STPath(src, (), rid=request.rid),
                    )
                    counters["trivial"] += 1
                else:
                    plan.record(request.rid, RouteOutcome.REJECTED)
                continue
            sink = self.sketch.register_sink(
                request.rid, request.dest, request.arrival, request.deadline
            )
            if sink is None:
                plan.record(request.rid, RouteOutcome.REJECTED)
                counters["no_sink"] += 1
                continue
            source = self.sketch.source_node(request)
            sketch_path = self.ipp.route(source, sink)
            if sketch_path is None:
                plan.record(request.rid, RouteOutcome.REJECTED)
                counters["ipp_rejected"] += 1
                continue
            counters["accepted"] += 1
            tiles = sketch_tiles(sketch_path)
            moves = tile_moves(tiles)
            self.detail.route_request(request, tiles, moves)
        self.detail.finalize(plan)
        plan.meta["framework"] = counters
        plan.meta["k"] = self.k
        plan.meta["pmax"] = self.pmax
        plan.meta["ipp"] = {
            "accepted": self.ipp.stats.accepted,
            "rejected": self.ipp.stats.rejected,
            "max_load_ratio": self.ipp.max_load_ratio(),
        }
        return plan
