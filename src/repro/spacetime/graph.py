"""The finite-horizon space-time graph and its load ledgers.

:class:`SpaceTimeGraph` realises ``G^st`` (Section 3.1) of a uni-directional
grid over a finite time horizon ``[0, T]``, in *untilted* coordinates
(Section 3.2): a (d+1)-dimensional grid DAG in which

* a **space move** along axis ``i < d`` is the transmit edge
  ``(x, col) -> (x + e_i, col)`` (an ``E0`` edge of capacity ``c``), and
* a **buffer move** (``BUFFER == d``) is the edge
  ``(x, col) -> (x, col + 1)`` (an ``E1`` edge of capacity ``B``).

A space-time path is a start vertex plus a sequence of moves
(:class:`STPath`).  All monotone paths between two fixed vertices have the
same number of edges, which is why the paper can treat the path-length bound
``p_max`` as an analysis device (Lemma 2).

Load accounting is done by :class:`LoadLedger`, one dict per move kind
mapping the tail vertex of each charged edge to its load; a ledger holds
only the edges its caller has charged, whatever the size of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.topology import Network
from repro.spacetime.coords import time_of
from repro.util.errors import CapacityError, ValidationError

#: Sentinel move index for buffer (E1) edges.  Space moves use the axis
#: index ``0 .. d-1``; ``BUFFER`` is defined per-graph as ``d`` and exposed
#: here as the conventional name for the 1-dimensional case.
BUFFER = -1


@dataclass(frozen=True)
class STPath:
    """A space-time path: ``start`` vertex (untilted) plus ``moves``.

    ``moves[j]`` is an axis index ``0..d-1`` for a transmit step or the
    graph's buffer index ``d`` for a buffering step.  The path for request
    ``r`` starts at the untilted image of ``(a_r, t_r)`` and, when delivered,
    ends on a copy of ``b_r``.
    """

    start: tuple
    moves: tuple
    rid: int | None = None

    def __len__(self) -> int:
        return len(self.moves)

    def vertices(self, d: int):
        """Yield the untilted vertices along the path (``len(moves)+1``)."""
        v = list(self.start)
        yield tuple(v)
        for m in self.moves:
            if m == d:
                v[-1] += 1
            else:
                v[m] += 1
            yield tuple(v)

    def end(self, d: int) -> tuple:
        v = list(self.start)
        for m in self.moves:
            if m == d:
                v[-1] += 1
            else:
                v[m] += 1
        return tuple(v)

    def edges(self, d: int):
        """Yield ``(move, tail_vertex)`` pairs along the path."""
        v = list(self.start)
        for m in self.moves:
            yield m, tuple(v)
            if m == d:
                v[-1] += 1
            else:
                v[m] += 1

    def arrival_time(self, d: int) -> int:
        """Real time at the path's final vertex."""
        return time_of(self.end(d))


class SpaceTimeGraph:
    """Untilted space-time graph of ``network`` over times ``0..horizon``.

    Vertices are tuples ``(x_1..x_d, col)`` with ``x`` a grid node and
    ``0 <= col + sum(x) <= horizon``.  Columns range over
    ``[-sum(dims - 1), horizon]``; :attr:`col_offset` shifts them to
    non-negative indices.
    """

    def __init__(self, network: Network, horizon: int):
        if horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {horizon}")
        if network.any_wrap:
            # the tilt/column construction encodes the closed-form grid
            # metric; wraparound axes have no consistent column value
            raise ValidationError(
                "space-time graph requires grid geometry (no wraparound axes)")
        self.network = network
        self.horizon = int(horizon)
        self.d = network.d
        #: move index used for buffer edges
        self.buffer_move = self.d
        self.col_offset = sum(l - 1 for l in network.dims)
        #: number of distinct column values: cols in [-col_offset, horizon]
        self.ncols = self.horizon + self.col_offset + 1

    # -- geometry ---------------------------------------------------------

    def valid_vertex(self, v: tuple) -> bool:
        """True when ``v = (x.., col)`` is inside the grid and the horizon."""
        if len(v) != self.d + 1:
            return False
        space, col = v[:-1], v[-1]
        if not self.network.contains(space):
            return False
        t = col + sum(space)
        return 0 <= t <= self.horizon

    def check_vertex(self, v: tuple) -> None:
        if not self.valid_vertex(v):
            raise ValidationError(f"invalid space-time vertex {v}")

    def vertex_time(self, v: tuple) -> int:
        return v[-1] + sum(v[:-1])

    def move_head(self, v: tuple, move: int) -> tuple:
        """Head vertex of the edge leaving ``v`` with ``move``."""
        if move == self.buffer_move:
            return (*v[:-1], v[-1] + 1)
        head = list(v)
        head[move] += 1
        return tuple(head)

    def edge_capacity(self, move: int) -> int:
        """Capacity of an edge of kind ``move`` (uniform per kind).

        Planners use the *minimum* edge capacity: identical on uniform
        networks, conservative (and hence replay-safe -- the engines
        enforce true per-edge caps) on heterogeneous ones.
        """
        if move == self.buffer_move:
            return self.network.buffer_size
        return self.network.min_capacity

    def valid_move(self, v: tuple, move: int) -> bool:
        """True when edge ``(v, move)`` exists (head valid and capacity > 0)."""
        if not (0 <= move <= self.d):
            return False
        if self.edge_capacity(move) <= 0:
            return False
        return self.valid_vertex(self.move_head(v, move))

    def moves_from(self, v: tuple):
        """All valid moves leaving ``v`` (space axes first, then buffer)."""
        for move in range(self.d + 1):
            if self.valid_move(v, move):
                yield move

    def source_vertex(self, request) -> tuple:
        """Untilted image of the request's source event ``(a_i, t_i)``."""
        a, t = request.source, request.arrival
        return (*a, t - sum(a))

    def dest_columns(self, request, t_lo: int | None = None, t_hi: int | None = None):
        """Columns ``col`` of valid destination copies ``(b_i, col)``.

        The copy at column ``col`` has real time ``t' = col + sum(b)``; valid
        copies satisfy ``t_lo <= t' <= t_hi`` (defaults: arrival and
        min(deadline, horizon))."""
        b = request.dest
        sb = sum(b)
        lo = request.arrival if t_lo is None else t_lo
        hi = self.horizon if request.deadline is None else min(request.deadline, self.horizon)
        if t_hi is not None:
            hi = min(hi, t_hi)
        return range(lo - sb, hi - sb + 1)

    def check_path(self, path: STPath) -> None:
        """Raise unless every edge of ``path`` exists in the graph."""
        v = path.start
        self.check_vertex(v)
        for m in path.moves:
            if not self.valid_move(v, m):
                raise ValidationError(f"path uses invalid move {m} at {v}")
            v = self.move_head(v, m)

    def path_between(self, v_from: tuple, v_to: tuple) -> bool:
        """True when a monotone path ``v_from -> v_to`` exists."""
        return all(a <= b for a, b in zip(v_from, v_to))

    def hops_between(self, v_from: tuple, v_to: tuple) -> int:
        """Hop count of every monotone path ``v_from -> v_to``."""
        if not self.path_between(v_from, v_to):
            raise ValidationError(f"no monotone path {v_from} -> {v_to}")
        return sum(b - a for a, b in zip(v_from, v_to))

    # -- load ledgers -------------------------------------------------------

    def ledger(self, capacity_override: int | None = None) -> "LoadLedger":
        """Create a fresh load ledger for this graph.

        ``capacity_override`` replaces both B and c; used for the unit
        "tracks" of the deterministic detailed routing (Section 5.2.1)."""
        return LoadLedger(self, capacity_override)

    def __repr__(self) -> str:
        return f"SpaceTimeGraph({self.network!r}, horizon={self.horizon})"


class LoadLedger:
    """Per-edge load accounting over a :class:`SpaceTimeGraph`.

    One dict per move kind, mapping the *tail* vertex of each charged edge
    to its load; an edge never charged has load 0.  ``capacity_override``
    makes every edge capacity equal (used for the unit-capacity tracks of
    detailed routing); otherwise space edges have capacity ``c`` and
    buffer edges capacity ``B``.
    """

    def __init__(self, graph: SpaceTimeGraph, capacity_override: int | None = None):
        self.graph = graph
        self.capacity_override = capacity_override
        self._loads = [{} for _ in range(graph.d + 1)]

    def capacity(self, move: int) -> int:
        if self.capacity_override is not None:
            return self.capacity_override
        return self.graph.edge_capacity(move)

    def load(self, move: int, tail: tuple) -> int:
        return self._loads[move].get(tail, 0)

    def residual(self, move: int, tail: tuple) -> int:
        return self.capacity(move) - self.load(move, tail)

    def add_edge(self, move: int, tail: tuple, amount: int = 1, strict: bool = True) -> None:
        loads = self._loads[move]
        new = loads.get(tail, 0) + amount
        if strict and new > self.capacity(move):
            raise CapacityError(
                f"edge (move={move}, tail={tail}) exceeds capacity "
                f"{self.capacity(move)} (load would be {new})"
            )
        loads[tail] = new

    def add_path(self, path: STPath, amount: int = 1, strict: bool = True) -> None:
        """Charge every edge of ``path``; raises on violation when strict."""
        for move, tail in path.edges(self.graph.d):
            self.add_edge(move, tail, amount, strict)

    def remove_path(self, path: STPath, amount: int = 1) -> None:
        self.add_path(path, -amount, strict=False)

    def path_fits(self, path: STPath) -> bool:
        """True when adding ``path`` would violate no capacity."""
        return all(
            self.residual(move, tail) >= 1 for move, tail in path.edges(self.graph.d)
        )

    def max_load_ratio(self) -> float:
        """Maximum load divided by capacity over all edges (the beta of a
        beta-packing, Section 3.5)."""
        worst = 0.0
        for move, loads in enumerate(self._loads):
            cap = self.capacity(move)
            if cap <= 0:
                if any(loads.values()):
                    return float("inf")
                continue
            # worst starts at 0, the load of every uncharged edge
            worst = max(worst, float(max(loads.values(), default=0)) / cap)
        return worst

    def total_load(self) -> int:
        return sum(sum(loads.values()) for loads in self._loads)
