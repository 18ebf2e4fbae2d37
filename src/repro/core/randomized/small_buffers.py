"""Section 7.8: small buffers, large link capacities (``B <= log n <= c``).

Tiles are single-column slivers of height ``Q ~ log n / B``; each tile is
split into a lower and an upper half.  ``R+`` holds the requests whose
source lies in the lower half.  I-routing climbs the first ``3c/4``
requests of a tile vertically (the remaining ``c/4`` of each column's
capacity stays reserved for paths entering from the south); horizontal
(buffer) crossings are confined to the upper half, where the paper places
a single-column X-routing.
"""

from __future__ import annotations

import math

from repro.core.deterministic.geometry import tile_moves
from repro.core.randomized.combined import RegimeLineRouter
from repro.network.topology import Network
from repro.packing.ipp import OnlinePathPacking
from repro.spacetime.graph import STPath, SpaceTimeGraph
from repro.spacetime.sketch import PlainSketchGraph
from repro.spacetime.tiling import Tiling
from repro.util.errors import ValidationError
from repro.util.rng import as_generator

NORTH, EAST = 0, 1


class SmallBufferLineRouter(RegimeLineRouter):
    """Theorem 31: O(log n)-competitive routing when ``B <= log n <= c``."""

    meta_key = "small_buffers"

    def __init__(self, network: Network, horizon: int, rng=None,
                 gamma: float = 200.0, lam: float | None = None,
                 strict: bool = True):
        if network.d != 1:
            raise ValidationError("SmallBufferLineRouter targets lines")
        n, B, c = network.n, network.buffer_size, network.min_capacity
        logn = max(1.0, math.log2(n))
        if strict and (B > logn or c < logn):
            raise ValidationError(
                f"Section 7.8 requires B <= log n <= c; got B={B}, c={c}, n={n}"
            )
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.rng = as_generator(rng)
        self.Q = 2 * max(1, math.ceil(logn / (2 * max(1, B))))
        # Section 7.8: p_max = 2 (n-1)(1 + B/c), polynomial without tiling
        self.pmax = max(1, math.ceil(2 * (n - 1) * (1 + B / c)))
        self.k = max(1, math.ceil(math.log2(1 + 3 * self.pmax)))
        self.lam = lam if lam is not None else 1.0 / (gamma * self.k)
        phase = int(self.rng.integers(0, self.Q))
        self.tiling = Tiling((self.Q, 1), (phase, 0))
        self.sketch = PlainSketchGraph(self.graph, self.tiling)
        self.ipp = OnlinePathPacking(self.sketch, pmax=self.pmax)
        self.ledger = self.graph.ledger()
        self.sparse_load: dict = {}
        self.iroute_exits: dict = {}  # tile -> vertically I-routed count
        self.iroute_cap = max(1, (3 * c) // 4)
        self.counters = {
            "not_rplus": 0, "ipp_rejected": 0, "coin_rejected": 0,
            "load_rejected": 0, "detail_rejected": 0, "delivered": 0,
        }

    def in_r_plus(self, request) -> bool:
        """Source in the lower half of its tile (Section 7.8)."""
        v = self.graph.source_vertex(request)
        return self.tiling.local(v)[0] < self.Q // 2

    # -- detailed routing over single-column tiles --------------------------

    def _detailed(self, request, src, tiles):
        moves = tile_moves(tiles)
        cells: list = []
        b = request.dest[0]
        tile0 = tiles[0]
        r0, _ = self.tiling.origin(tile0)
        mid_r = r0 + self.Q // 2
        if self.iroute_exits.get(tile0, 0) >= self.iroute_cap:
            return None
        if len(tiles) == 1:
            # near-like: the destination's row lies inside the source tile
            pos = self._try_run(cells, src, NORTH, b - src[0])
        else:
            # I-routing: climb out of the lower half
            pos = self._try_run(cells, src, NORTH, mid_r - src[0])
            if pos is None:
                return None
            entry = "south_own"
            for idx, tile in enumerate(tiles):
                if idx == len(tiles) - 1:
                    if pos[0] > b:
                        return None
                    pos = self._try_run(cells, pos, NORTH, b - pos[0])
                    break
                pos = self._through_tile(cells, pos, tile, entry, moves[idx])
                if pos is None:
                    return None
                entry = "south" if moves[idx] == NORTH else "west"
        if pos is None:
            return None
        t = self.graph.vertex_time(pos)
        if request.deadline is not None and t > request.deadline:
            return None
        for axis, tail in cells:
            self.ledger.add_edge(axis, tail)
        self.iroute_exits[tile0] = self.iroute_exits.get(tile0, 0) + 1
        return STPath(src, tuple(a for a, _ in cells), rid=request.rid)

    def _through_tile(self, cells, pos, tile, entry, exit_axis):
        r0, _ = self.tiling.origin(tile)
        mid_r, hi_r = r0 + self.Q // 2, r0 + self.Q
        if entry == "west" and pos[0] < mid_r:
            return None  # invariant: buffer crossings in the upper half
        if exit_axis == NORTH:
            return self._try_run(cells, pos, NORTH, hi_r - pos[0])
        # exit east: climb into the upper half, buffer east at the first
        # feasible row (single-column X-routing)
        start = max(pos[0], mid_r)
        lead = self._try_run(cells, pos, NORTH, start - pos[0])
        if lead is None:
            return None
        for r in range(start, hi_r):
            probe: list = []
            p = self._try_run(probe, lead, NORTH, r - lead[0])
            if p is None:
                return None
            p2 = self._try_run(probe, p, EAST, 1)
            if p2 is not None:
                cells.extend(probe)
                return p2
        return None
