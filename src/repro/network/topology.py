"""Uni-directional topology family: lines, grids, rings, and tori.

A d-dimensional uni-directional grid over ``dims = (l_1, ..., l_d)`` has
vertex set ``[0, l_1) x ... x [0, l_d)`` and, for each axis ``i``, edges
``x -> x + e_i`` whenever that stays inside the grid (Section 2.2 of the
paper).  Axes may additionally *wrap*: a wrapping axis also has the seam
edge ``(..., l_i - 1, ...) -> (..., 0, ...)``, which turns a line into a
ring and a grid into a torus.  Distances along a wrapping axis are taken
mod ``l_i`` (always forward -- edges stay uni-directional).

Capacities default to the paper's uniform model -- every edge carries
``c`` packets per step and every node buffers ``B`` -- but individual
links may be overridden through ``link_caps``, a map from ``(tail
node, axis)`` to a per-edge capacity.  This models hotspot links without
giving up the closed-form geometry.  Algorithms whose guarantees need
the pure grid (the space-time-graph planners) must gate on
:func:`grid_geometry_reason` and plan against :attr:`Network.min_capacity`,
the binding constraint on heterogeneous networks.

Coordinates are 0-based (the paper uses 1-based; the shift is immaterial).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.network.packet import Node, RequestTable
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class Edge:
    """A directed grid edge ``tail -> tail + e_axis`` (mod the side length
    when the axis wraps, in which case ``wrap_len`` holds that length)."""

    tail: Node
    axis: int
    wrap_len: int | None = None

    @property
    def head(self) -> Node:
        head = list(self.tail)
        head[self.axis] += 1
        if self.wrap_len is not None:
            head[self.axis] %= self.wrap_len
        return tuple(head)


def _normalize_link_caps(link_caps, d: int):
    """Normalize ``link_caps`` into ``{(tail, axis): cap}``.

    Accepts a mapping keyed by ``(tail, axis)`` or an iterable of
    ``(tail, axis, cap)`` triples; tails are coerced to int tuples.
    """
    if not link_caps:
        return {}
    if hasattr(link_caps, "items"):
        triples = [(tail, axis, cap) for (tail, axis), cap in link_caps.items()]
    else:
        triples = list(link_caps)
    out = {}
    for entry in triples:
        try:
            tail, axis, cap = entry
            tail = tuple(int(x) for x in tail)
            axis = int(axis)
            cap = int(cap)
        except (TypeError, ValueError):
            raise ValidationError(
                f"link_caps entries must be (tail, axis, cap) triples, got {entry!r}"
            ) from None
        if len(tail) != d:
            raise ValidationError(
                f"link_caps tail {tail} does not match grid dimension {d}"
            )
        out[(tail, axis)] = cap
    return out


class Network:
    """A uni-directional grid network, optionally with wraparound axes
    and per-edge capacity overrides.

    Parameters
    ----------
    dims:
        Side lengths ``(l_1, ..., l_d)``; the number of nodes is
        ``n = l_1 * ... * l_d``.
    buffer_size:
        Buffer size ``B >= 0`` of every node.
    capacity:
        Default link capacity ``c >= 1`` of every edge.
    wrap:
        Per-axis wraparound flags (a single bool applies to all axes).
        A wrapping axis adds the seam edge ``l_i - 1 -> 0``.
    link_caps:
        Optional per-edge capacity overrides: a ``{(tail, axis): cap}``
        mapping or an iterable of ``(tail, axis, cap)`` triples.  Edges
        not listed keep the scalar ``capacity``.
    """

    def __init__(self, dims, buffer_size: int, capacity: int, wrap=None, link_caps=None):
        dims = tuple(int(l) for l in dims)
        if not dims or any(l < 1 for l in dims):
            raise ValidationError(f"dims must be positive, got {dims}")
        if buffer_size < 0:
            raise ValidationError(f"buffer size B must be >= 0, got {buffer_size}")
        if capacity < 1:
            raise ValidationError(f"link capacity c must be >= 1, got {capacity}")
        self.dims = dims
        self.buffer_size = int(buffer_size)
        self.capacity = int(capacity)
        if wrap is None:
            wrap = (False,) * len(dims)
        elif isinstance(wrap, bool):
            wrap = (wrap,) * len(dims)
        else:
            wrap = tuple(bool(w) for w in wrap)
        if len(wrap) != len(dims):
            raise ValidationError(
                f"wrap flags {wrap} do not match grid dimension {len(dims)}"
            )
        self.wrap = wrap
        self.link_caps = _normalize_link_caps(link_caps, len(dims))
        for (tail, axis), cap in self.link_caps.items():
            if not (0 <= axis < self.d):
                raise ValidationError(f"link_caps axis {axis} outside 0..{self.d - 1}")
            self.check_node(tail)
            if not self.has_edge(tail, axis):
                raise ValidationError(f"link_caps names a non-edge: {tail} axis {axis}")
            if cap < 1:
                raise ValidationError(
                    f"link capacity c must be >= 1, got {cap} for edge {tail} axis {axis}"
                )
        self._dims_arr = np.asarray(self.dims, dtype=np.int64)
        self._wrap_arr = np.asarray(self.wrap, dtype=bool)
        self._any_wrap = bool(self._wrap_arr.any())
        self._cap_flat = None  # lazily built dense (n * d,) capacity table

    # -- basic shape ----------------------------------------------------

    @property
    def d(self) -> int:
        """Grid dimension."""
        return len(self.dims)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return math.prod(self.dims)

    @property
    def any_wrap(self) -> bool:
        """Whether any axis wraps (ring / torus geometry)."""
        return self._any_wrap

    @property
    def diameter(self) -> int:
        """Length of the longest shortest path, ``sum(l_i - 1)``.

        The formula also holds on wrapping axes: the farthest forward
        target is one step behind, ``l_i - 1`` hops away.
        """
        return sum(l - 1 for l in self.dims)

    def nodes(self):
        """Iterate over all nodes in lexicographic order."""
        return itertools.product(*(range(l) for l in self.dims))

    def has_edge(self, node: Node, axis: int) -> bool:
        """Whether the edge ``node -> node + e_axis`` exists."""
        l = self.dims[axis]
        return node[axis] + 1 < l or (self.wrap[axis] and l > 1)

    def edges(self):
        """Iterate over all directed edges."""
        for node in self.nodes():
            for axis in range(self.d):
                if self.has_edge(node, axis):
                    wrap_len = self.dims[axis] if self.wrap[axis] else None
                    yield Edge(node, axis, wrap_len)

    def num_edges(self) -> int:
        total = 0
        for axis, l in enumerate(self.dims):
            per_axis = l if (self.wrap[axis] and l > 1) else l - 1
            total += per_axis * (self.n // l)
        return total

    # -- membership / geometry ------------------------------------------

    def contains(self, node: Node) -> bool:
        return len(node) == self.d and all(0 <= x < l for x, l in zip(node, self.dims))

    def check_node(self, node: Node) -> None:
        if not self.contains(node):
            raise ValidationError(f"node {node} outside grid {self.dims}")

    def dist(self, a: Node, b: Node) -> int:
        """Directed hop distance ``a -> b``.

        On a wrapping axis the distance is ``(b_i - a_i) mod l_i``; on a
        non-wrapping axis it is ``b_i - a_i`` and requires ``a_i <= b_i``.
        """
        total = 0
        for x, y, l, w in zip(a, b, self.dims, self.wrap):
            if w:
                total += (y - x) % l
            else:
                if x > y:
                    raise ValidationError(
                        f"no directed path {a} -> {b} in a uni-directional grid"
                    )
                total += y - x
        return total

    def out_neighbors(self, node: Node):
        """Successors of ``node`` (at most ``d`` of them)."""
        for axis in range(self.d):
            if self.has_edge(node, axis):
                head = list(node)
                head[axis] = (head[axis] + 1) % self.dims[axis]
                yield axis, tuple(head)

    # -- vectorized geometry (shared by every engine) ---------------------

    def togo_array(self, loc, dst):
        """Per-axis remaining hops ``loc -> dst`` as an ``(k, d)`` array.

        This is the one vectorized distance used by the fast engines and
        the decision ABI; it matches :meth:`dist` axis by axis.
        """
        togo = dst - loc
        if self._any_wrap:
            togo = np.where(self._wrap_arr, togo % self._dims_arr, togo)
        return togo

    def hops_array(self, src, loc):
        """Per-axis hops travelled ``src -> loc`` as an ``(k, d)`` array.

        On wrapping axes this reconstructs travel mod ``l_i``, which is
        exact for 1-bend routes (per-axis travel is below ``l_i``).
        """
        hops = loc - src
        if self._any_wrap:
            hops = np.where(self._wrap_arr, hops % self._dims_arr, hops)
        return hops

    # -- capacities -------------------------------------------------------

    def capacity_of(self, node: Node, axis: int) -> int:
        """Capacity of the edge ``node -> node + e_axis``."""
        if not self.link_caps:
            return self.capacity
        return self.link_caps.get((tuple(node), axis), self.capacity)

    @property
    def min_capacity(self) -> int:
        """Minimum capacity over all edges -- the binding constraint for
        capability checks and planners on heterogeneous networks."""
        if not self.link_caps:
            return self.capacity
        caps = min(self.link_caps.values())
        if len(self.link_caps) >= self.num_edges():
            return caps
        return min(self.capacity, caps)

    def capacity_array(self):
        """Dense per-edge capacity table, flat-indexed by
        ``node_index(node) * d + axis`` (non-edges keep the scalar), or
        ``None`` when capacities are uniform."""
        if not self.link_caps:
            return None
        if self._cap_flat is None:
            flat = np.full(self.n * self.d, self.capacity, dtype=np.int64)
            for (tail, axis), cap in self.link_caps.items():
                flat[self.node_index(tail) * self.d + axis] = cap
            self._cap_flat = flat
        return self._cap_flat

    def edge_capacity(self, node_id, axis):
        """Vector form of :meth:`capacity_of` for the decision ABI:
        ``node_id`` and ``axis`` are arrays; returns the scalar ``c``
        when capacities are uniform, else a per-row int64 array."""
        flat = self.capacity_array()
        if flat is None:
            return self.capacity
        return flat[np.asarray(node_id) * self.d + np.asarray(axis)]

    # -- node indexing (flat ids for array-backed ledgers) ---------------

    def node_index(self, node: Node) -> int:
        """Flat row-major index of ``node``."""
        idx = 0
        for x, l in zip(node, self.dims):
            idx = idx * l + x
        return idx

    def node_from_index(self, idx: int) -> Node:
        coords = []
        for l in reversed(self.dims):
            coords.append(idx % l)
            idx //= l
        return tuple(reversed(coords))

    # -- request validation ----------------------------------------------

    def check_request(self, request) -> None:
        """Validate one request (Section 2.1): this grid's dimension,
        ``arrival >= 0``, endpoints on the grid, the destination reachable
        and ``deadline >= arrival + distance``.  The oracle and error text
        of :meth:`check_requests`, which is what consumers call."""
        if request.dim != self.d:
            raise ValidationError(
                f"request dimension {request.dim} does not match grid dimension {self.d}"
            )
        if request.arrival < 0:  # Request refuses it; a table may hold one
            raise ValidationError(f"arrival must be >= 0, got {request.arrival}")
        self.check_node(request.source)
        self.check_node(request.dest)
        distance = self.dist(request.source, request.dest)
        if request.deadline is not None and request.deadline < request.arrival + distance:
            raise ValidationError(
                f"infeasible deadline {request.deadline} for request "
                f"{request.source} -> {request.dest} arriving at {request.arrival} "
                f"(distance {distance})"
            )

    def check_requests(self, requests) -> RequestTable:
        """Check a whole request sequence by :meth:`check_request`'s rule, in
        one vectorized pass, and return its columns: a :class:`RequestTable`
        as is, any other sequence as a table over its own objects (an empty
        one at this grid's width).  On a failure the first offending row, or
        each row of a sequence that mixes dimensions, goes through
        :meth:`check_request`: the error is the one a per-request loop
        raises."""
        if not isinstance(requests, RequestTable):
            requests = tuple(requests)
            try:
                requests = RequestTable.from_requests(requests)
            except ValidationError:  # ragged: the requests mix dimensions
                for r in requests:
                    self.check_request(r)
                raise AssertionError("check_request accepted mixed dimensions")
        src, dst, arrival, deadline, _rid = requests.columns()
        if src.shape[1] != self.d:
            if not len(requests):
                return RequestTable(*[np.zeros((0, self.d))] * 2, (), (), ())
            self.check_request(requests[0])
            raise AssertionError("check_request accepted a wrong dimension")
        # on the grid, and no backward step on a non-wrapping axis
        dims = self._dims_arr
        ok = ((src >= 0) & (src < dims) & (dst >= 0) & (dst < dims)
              & ((src <= dst) | self._wrap_arr)).all(axis=1)
        ok &= (arrival >= 0) & (
            deadline >= arrival + self.togo_array(src, dst).sum(axis=1))
        if not ok.all():
            self.check_request(requests[int(np.flatnonzero(~ok)[0])])
            raise AssertionError("check_request accepted an invalid request")
        return requests

    # -- paper parameters -------------------------------------------------

    def pmax(self) -> int:
        """The paper's maximum useful path length in the space-time graph.

        Section 3.6.1: for a line ``p_max = 2n(1 + n(B/c + 1))``; for a
        d-dimensional grid ``p_max = 2 diam(G) (1 + n(B/c + d))``.  Both are
        instances of ``(nu + 2) diam(G)`` from Lemma 2 (up to rounding).
        On heterogeneous networks the minimum capacity is the binding one.
        A grid of diameter 0 still gets ``p_max = 1``: a path with no edges
        is legal, and the path packing needs ``p_max >= 1``.
        """
        n, B, c, d = self.n, self.buffer_size, self.min_capacity, self.d
        if d == 1:
            return math.ceil(2 * n * (1 + n * (B / c + 1)))
        return max(1, math.ceil(2 * self.diameter * (1 + n * (B / c + d))))

    def tile_side_k(self, pmax: int | None = None) -> int:
        """Tile side ``k = ceil(log2(1 + 3 p_max))`` (Section 5, Parameters)."""
        p = self.pmax() if pmax is None else pmax
        return max(1, math.ceil(math.log2(1 + 3 * p)))

    def __repr__(self) -> str:
        extra = ""
        if self._any_wrap:
            extra += f", wrap={self.wrap}"
        if self.link_caps:
            extra += f", link_caps={len(self.link_caps)} edges"
        return (
            f"{type(self).__name__}(dims={self.dims}, B={self.buffer_size}, "
            f"c={self.capacity}{extra})"
        )


def grid_geometry_reason(network: Network) -> str | None:
    """Capability gate for algorithms that assume pure grid geometry.

    The space-time-graph planners (and the Model 2 stack) encode the
    closed-form Manhattan metric; wraparound axes break their window
    constructions.  Returns a human-readable reason, or ``None`` when
    the network is a plain (non-wrapping) grid.
    """
    if network.any_wrap:
        return "requires grid geometry (no wraparound axes)"
    return None


class LineNetwork(Network):
    """Uni-directional line with ``n`` nodes ``0 -> 1 -> ... -> n-1``."""

    def __init__(self, n: int, buffer_size: int = 1, capacity: int = 1, link_caps=None):
        super().__init__((n,), buffer_size, capacity, link_caps=link_caps)

    @property
    def length(self) -> int:
        return self.dims[0]


class GridNetwork(Network):
    """Uni-directional d-dimensional grid (``d >= 2`` typical)."""

    def __init__(self, dims, buffer_size: int = 1, capacity: int = 1, link_caps=None):
        super().__init__(dims, buffer_size, capacity, link_caps=link_caps)
        if self.d < 1:
            raise ValidationError("grid needs at least one dimension")


class RingNetwork(Network):
    """Uni-directional ring: a line whose last node feeds node 0."""

    def __init__(self, n: int, buffer_size: int = 1, capacity: int = 1, link_caps=None):
        super().__init__((n,), buffer_size, capacity, wrap=True, link_caps=link_caps)

    @property
    def length(self) -> int:
        return self.dims[0]


class TorusNetwork(Network):
    """Uni-directional torus: a grid wrapping around every axis."""

    def __init__(self, dims, buffer_size: int = 1, capacity: int = 1, link_caps=None):
        super().__init__(dims, buffer_size, capacity, wrap=True, link_caps=link_caps)
