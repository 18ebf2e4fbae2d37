"""Sketch graphs over tiles (Sections 3.4, 5.1, 5.4).

The *sketch graph* coalesces every tile of the space-time graph into a
single node; a directed edge connects tiles that share crossing space-time
edges.  Capacities:

* crossing a space-axis boundary: ``c * prod(other sides)`` (on a line,
  ``c * tau`` -- the paper's "vertical" sketch edge);
* crossing the column-axis boundary: ``B * prod(space sides)`` (on a line,
  ``B * Q`` -- the "horizontal" sketch edge).

Two flavours are provided:

* :class:`PlainSketchGraph` -- used by the randomized algorithm (Section 7):
  tile nodes with the full (summed) capacities above.
* :class:`SplitSketchGraph` -- the ``{1, d+1, inf}``-sketch graph of the
  deterministic algorithm (Section 5.1): every tile is split into ``s_in``
  and ``s_out`` joined by an *interior edge* of capacity ``d + 1`` (2 on a
  line), inter-tile edges are downscaled to capacity 1, and sink edges have
  infinite capacity.

Sink nodes (Sections 3.1 and 5.4): a sink is registered per destination (no
deadlines, shared) or per request (deadlines); it receives an edge from
every tile containing a valid copy of the destination.

Both classes expose the digraph protocol consumed by
:mod:`repro.packing.oracle` / :mod:`repro.packing.ipp`:
``out_edges(node) -> [(edge_key, head)]`` and ``capacity(edge_key)``.
"""

from __future__ import annotations

import math

from repro.spacetime.graph import SpaceTimeGraph
from repro.spacetime.tiling import Tiling
from repro.util.errors import ValidationError

INF = math.inf


class _SketchBase:
    """Shared machinery: tile enumeration and sink registration."""

    def __init__(self, graph: SpaceTimeGraph, tiling: Tiling):
        if tiling.naxes != graph.d + 1:
            raise ValidationError(
                f"tiling has {tiling.naxes} axes but the space-time graph has {graph.d + 1}"
            )
        self.graph = graph
        self.tiling = tiling
        self.d = graph.d
        self._tiles = set(tiling.all_tiles(graph))
        # sink_key -> sink node; tile -> list of (edge_key, sink_node)
        self._sink_edges: dict = {}
        self._sinks: dict = {}

    # -- tiles ----------------------------------------------------------------

    @property
    def tiles(self):
        return self._tiles

    def tile_of_vertex(self, v: tuple) -> tuple:
        return self.tiling.tile_of(v)

    def source_node(self, request):
        """Sketch node holding the request's source event (the half-tile
        ``s_in`` on a split sketch graph, Alg. 1 step 1a)."""
        v = self.graph.source_vertex(request)
        tile = self.tile_of_vertex(v)
        if tile not in self._tiles:
            raise ValidationError(f"source vertex {v} falls outside the tiled region")
        return self.node_of_tile(tile)

    def tile_neighbors(self, tile: tuple):
        """Outgoing tile neighbours ``tile + e_axis`` that exist and are
        reachable (zero-capacity boundaries -- e.g. the column axis when
        ``B = 0`` -- carry no sketch edge)."""
        for axis in range(self.d + 1):
            if self.boundary_capacity(axis) <= 0:
                continue
            nxt = list(tile)
            nxt[axis] += 1
            nxt = tuple(nxt)
            if nxt in self._tiles:
                yield axis, nxt

    def boundary_capacity(self, axis: int) -> float:
        """Capacity of the sketch edge crossing ``axis`` (sum over crossing
        space-time edges, Section 3.4)."""
        per_edge = (
            self.graph.network.buffer_size
            if axis == self.d
            else self.graph.network.min_capacity
        )
        face = 1
        for other, side in enumerate(self.tiling.sides):
            if other != axis:
                face *= side
        return per_edge * face

    def node_capacity(self, tile: tuple) -> float:
        """Node capacity of a tile: ``(d+1) * vol * (B + d*c)``.

        For cube tiles of side ``k`` this is the paper's
        ``2 k^2 (B + c)`` at ``d = 1`` (Section 3.4) and
        ``(d+1) k^{d+1} (B + d c)`` in general (Section 6 item (3))."""
        B = self.graph.network.buffer_size
        c = self.graph.network.min_capacity
        return (self.d + 1) * math.prod(self.tiling.sides) * (B + self.d * c)

    # -- sinks ------------------------------------------------------------------

    def register_sink(self, key, dest: tuple, t_lo: int, t_hi: int | None = None):
        """Create (or return) sink node ``key`` for destination ``dest``.

        The sink receives an infinite-capacity edge from every tile that
        contains a copy ``(dest, t')`` with ``t_lo <= t' <= t_hi`` (Section
        5.4; ``t_hi=None`` means the horizon)."""
        node = ("sink", key)
        if key in self._sinks:
            return node
        hi = self.graph.horizon if t_hi is None else t_hi
        tiles = [
            t
            for t in self.tiling.tiles_with_dest_copies(self.graph, dest, t_lo, hi)
            if t in self._tiles
        ]
        if not tiles:
            return None
        self._sinks[key] = (dest, t_lo, hi, tiles)
        for tile in tiles:
            self._sink_edges.setdefault(tile, []).append(
                (("k", tile, key), node)
            )
        return node

    def sink_tiles(self, key) -> list:
        """Tiles wired to sink ``key`` (the candidate last tiles)."""
        return list(self._sinks[key][3])

    def is_sink(self, node) -> bool:
        return isinstance(node, tuple) and len(node) == 2 and node[0] == "sink"

    def _sink_edges_from(self, tile: tuple):
        return self._sink_edges.get(tile, ())


class PlainSketchGraph(_SketchBase):
    """Sketch graph with full summed capacities (randomized algorithm).

    Nodes: ``("t", tile)`` and ``("sink", key)``.  Edge keys:
    ``("e", tile, axis)`` for the boundary edge leaving ``tile`` along
    ``axis`` and ``("k", tile, key)`` for sink edges.
    """

    def node_of_tile(self, tile: tuple):
        return ("t", tile)

    def out_edges(self, node):
        kind = node[0]
        if kind == "sink":
            return
        tile = node[1]
        for axis, nxt in self.tile_neighbors(tile):
            yield ("e", tile, axis), ("t", nxt)
        yield from self._sink_edges_from(tile)

    def capacity(self, edge_key) -> float:
        kind = edge_key[0]
        if kind == "e":
            return self.boundary_capacity(edge_key[2])
        if kind == "k":
            return INF
        raise ValidationError(f"unknown edge key {edge_key}")

    def min_capacity(self) -> float:
        return min(self.boundary_capacity(axis) for axis in range(self.d + 1))


class SplitSketchGraph(_SketchBase):
    """The ``{1, d+1, inf}``-sketch graph of Section 5.1.

    Nodes: ``("in", tile)``, ``("out", tile)``, ``("sink", key)``.  Edges:

    * interior ``("i", tile)``: ``in -> out``, capacity ``d + 1``;
    * boundary ``("e", tile, axis)``: ``out -> in`` of the next tile,
      capacity 1;
    * sink ``("k", tile, key)``: ``out -> sink``, capacity ``inf``.
    """

    def node_of_tile(self, tile: tuple):
        return ("in", tile)

    def interior_capacity(self) -> int:
        return self.d + 1

    def out_edges(self, node):
        kind = node[0]
        if kind == "sink":
            return
        tile = node[1]
        if kind == "in":
            yield ("i", tile), ("out", tile)
            return
        # kind == "out"
        for axis, nxt in self.tile_neighbors(tile):
            yield ("e", tile, axis), ("in", nxt)
        yield from self._sink_edges_from(tile)

    def capacity(self, edge_key) -> float:
        kind = edge_key[0]
        if kind == "i":
            return self.d + 1
        if kind == "e":
            return 1.0
        if kind == "k":
            return INF
        raise ValidationError(f"unknown edge key {edge_key}")

    def min_capacity(self) -> float:
        return 1.0
