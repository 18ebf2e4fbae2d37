"""Section 7.7: large buffers (``log n <= B/c <= poly(n)``).

Tiling degenerates to ``Q = 1`` (every tile is a single row of length
``tau ~ B/c``), so there are no near requests.  ``R+`` is the set of
requests whose source lies in the *left half* of its tile; the phase shift
``phi_tau`` makes ``E[opt(R+)] >= opt/2``.  I-routing is horizontal only
(buffering at the source node); vertical crossings happen in the right
half of each tile; T-routing degenerates to "buffer east, climb at the
first feasible column".
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


class LargeBufferLineRouter(RegimeLineRouter):
    """Theorem 30: O(log n)-competitive routing when ``B/c >= log n``."""

    meta_key = "large_buffers"

    def __init__(self, network: Network, horizon: int, rng=None,
                 gamma: float = 200.0, lam: float | None = None,
                 strict: bool = True):
        if network.d != 1:
            raise ValidationError("LargeBufferLineRouter targets lines")
        n, B, c = network.n, network.buffer_size, network.min_capacity
        logn = max(1.0, math.log2(n))
        if strict and B < logn * c:
            raise ValidationError(
                f"Section 7.7 requires B/c >= log n; got B={B}, c={c}, n={n}"
            )
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.rng = as_generator(rng)
        # tau ~ B/c, forced even so halves are well defined
        self.tau = 2 * max(1, math.ceil(B / (2 * c)))
        self.pmax = 4 * n
        self.k = max(1, math.ceil(math.log2(1 + 3 * self.pmax)))
        self.lam = lam if lam is not None else 1.0 / (gamma * self.k)
        phase = int(self.rng.integers(0, self.tau))
        self.tiling = Tiling((1, self.tau), (0, phase))
        self.sketch = PlainSketchGraph(self.graph, self.tiling)
        self.ipp = OnlinePathPacking(self.sketch, pmax=self.pmax)
        self.ledger = self.graph.ledger()
        self.sparse_load: dict = {}
        self.east_exits: dict = {}  # tile -> count of I-routed exits
        self.side_cap = max(1, min(B, self.tau * c) // 4)
        self.counters = {
            "not_rplus": 0, "ipp_rejected": 0, "coin_rejected": 0,
            "load_rejected": 0, "detail_rejected": 0, "delivered": 0,
        }

    def in_r_plus(self, request) -> bool:
        """Source in the left half of its tile (Section 7.7)."""
        v = self.graph.source_vertex(request)
        return self.tiling.local(v)[1] < self.tau // 2

    # -- detailed routing over 1-row tiles ---------------------------------

    def _detailed(self, request, src, tiles):
        if len(tiles) < 2:
            return None  # Q = 1: a non-trivial request always crosses tiles
        moves = tile_moves(tiles)
        cells: list = []
        tile0 = tiles[0]
        _, c0 = self.tiling.origin(tile0)
        mid_c = c0 + self.tau // 2
        if self.east_exits.get(tile0, 0) >= self.side_cap:
            return None
        # I-routing: buffer east out of the left half
        pos = self._try_run(cells, src, EAST, mid_c - src[1])
        if pos is None:
            return None
        entry = "lhalf"
        b = request.dest[0]
        for idx, tile in enumerate(tiles):
            if idx == len(tiles) - 1:
                if pos[0] != b:
                    return None  # Q = 1: the last tile *is* the dest row
                break
            exit_axis = moves[idx]
            pos = self._through_tile(cells, pos, tile, entry, exit_axis)
            if pos is None:
                return None
            entry = "south" if exit_axis == NORTH else "west"
        t = self.graph.vertex_time(pos)
        if request.deadline is not None and t > request.deadline:
            return None
        for axis, tail in cells:
            self.ledger.add_edge(axis, tail)
        self.east_exits[tile0] = self.east_exits.get(tile0, 0) + 1
        return STPath(src, tuple(a for a, _ in cells), rid=request.rid)

    def _through_tile(self, cells, pos, tile, entry, exit_axis):
        _, c0 = self.tiling.origin(tile)
        mid_c, hi_c = c0 + self.tau // 2, c0 + self.tau
        if entry == "south" and pos[1] < mid_c:
            return None  # invariant: vertical crossings in the right half
        if exit_axis == EAST:
            return self._try_run(cells, pos, EAST, hi_c - pos[1])
        # exit north: buffer east to the first column (right half) with a
        # feasible vertical edge, then climb one row
        start = max(pos[1], mid_c)
        lead = self._try_run(cells, pos, EAST, start - pos[1])
        if lead is None:
            return None
        for x in range(start, hi_c):
            probe: list = []
            p = self._try_run(probe, lead, EAST, x - lead[1])
            if p is None:
                return None
            p2 = self._try_run(probe, p, NORTH, 1)
            if p2 is not None:
                cells.extend(probe)
                return p2
        return None
