"""Tests for SpaceTimeGraph, STPath and LoadLedger."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packet import Request
from repro.network.topology import GridNetwork, LineNetwork, Network
from repro.spacetime.graph import LoadLedger, STPath, SpaceTimeGraph
from repro.util.errors import CapacityError, ValidationError


@pytest.fixture
def g_line():
    return SpaceTimeGraph(LineNetwork(8, buffer_size=2, capacity=1), horizon=20)


@pytest.fixture
def g_grid():
    return SpaceTimeGraph(GridNetwork((4, 4), buffer_size=1, capacity=1), horizon=16)


class TestVertices:
    def test_valid_vertex(self, g_line):
        assert g_line.valid_vertex((0, 0))
        assert g_line.valid_vertex((7, 20 - 7))

    def test_vertex_time(self, g_line):
        assert g_line.vertex_time((3, 4)) == 7

    def test_negative_col_valid(self, g_line):
        # node 7 at time 0 has column -7
        assert g_line.valid_vertex((7, -7))

    def test_invalid_before_time_zero(self, g_line):
        assert not g_line.valid_vertex((7, -8))

    def test_invalid_after_horizon(self, g_line):
        assert not g_line.valid_vertex((0, 21))

    def test_invalid_outside_grid(self, g_line):
        assert not g_line.valid_vertex((8, 0))

    def test_check_vertex_raises(self, g_line):
        with pytest.raises(ValidationError):
            g_line.check_vertex((9, 0))

    def test_wrong_arity(self, g_line):
        assert not g_line.valid_vertex((1, 2, 3))

    def test_ncols(self, g_line):
        # columns range over [-7, 20]
        assert g_line.ncols == 28
        assert g_line.col_offset == 7


class TestMoves:
    def test_space_move_head(self, g_line):
        assert g_line.move_head((2, 5), 0) == (3, 5)

    def test_buffer_move_head(self, g_line):
        assert g_line.move_head((2, 5), 1) == (2, 6)

    def test_buffer_move_index_is_d(self, g_grid):
        assert g_grid.buffer_move == 2
        assert g_grid.move_head((1, 1, 3), 2) == (1, 1, 4)

    def test_valid_move_capacity_gate(self):
        g = SpaceTimeGraph(LineNetwork(4, buffer_size=0, capacity=1), horizon=8)
        assert not g.valid_move((1, 0), 1)  # no buffering when B = 0
        assert g.valid_move((1, 0), 0)

    def test_moves_from(self, g_line):
        assert list(g_line.moves_from((2, 5))) == [0, 1]

    def test_moves_from_last_node(self, g_line):
        assert list(g_line.moves_from((7, 0))) == [1]

    def test_moves_from_horizon_edge(self, g_line):
        assert list(g_line.moves_from((0, 20))) == []

    def test_edge_capacity(self, g_line):
        assert g_line.edge_capacity(0) == 1
        assert g_line.edge_capacity(1) == 2


class TestSTPath:
    def test_vertices_and_end(self, g_line):
        p = STPath((0, 0), (0, 1, 0))
        assert list(p.vertices(1)) == [(0, 0), (1, 0), (1, 1), (2, 1)]
        assert p.end(1) == (2, 1)

    def test_edges(self, g_line):
        p = STPath((0, 0), (0, 1))
        assert list(p.edges(1)) == [(0, (0, 0)), (1, (1, 0))]

    def test_arrival_time(self):
        p = STPath((0, 0), (0, 0, 1))
        assert p.arrival_time(1) == 3

    def test_check_path_ok(self, g_line):
        g_line.check_path(STPath((0, 0), (0, 0, 1, 0)))

    def test_check_path_rejects_invalid(self, g_line):
        with pytest.raises(ValidationError):
            g_line.check_path(STPath((7, 0), (0,)))  # off the end of the line

    def test_len(self):
        assert len(STPath((0, 0), (0, 1, 0))) == 3

    def test_hops_between_constant(self, g_grid):
        # all monotone paths between fixed endpoints have equal hop count
        assert g_grid.hops_between((0, 0, 0), (2, 1, 3)) == 6

    def test_hops_between_rejects_non_monotone(self, g_grid):
        with pytest.raises(ValidationError):
            g_grid.hops_between((2, 0, 0), (1, 1, 3))


class TestSourceAndDest:
    def test_source_vertex(self, g_line):
        r = Request.line(3, 6, 5)
        assert g_line.source_vertex(r) == (3, 2)

    def test_dest_columns_no_deadline(self, g_line):
        r = Request.line(0, 6, 2)
        cols = list(g_line.dest_columns(r))
        # t' in [2, 20] -> col in [-4, 14]
        assert cols[0] == 2 - 6 and cols[-1] == 20 - 6

    def test_dest_columns_deadline(self, g_line):
        r = Request.line(0, 6, 2, deadline=10)
        cols = list(g_line.dest_columns(r))
        assert cols[-1] == 10 - 6


class TestLoadLedger:
    def test_add_and_residual(self, g_line):
        led = g_line.ledger()
        assert led.residual(1, (2, 3)) == 2
        led.add_edge(1, (2, 3))
        assert led.residual(1, (2, 3)) == 1
        assert led.load(1, (2, 3)) == 1

    def test_capacity_violation_raises(self, g_line):
        led = g_line.ledger()
        led.add_edge(0, (2, 3))
        with pytest.raises(CapacityError):
            led.add_edge(0, (2, 3))

    def test_override_capacity(self, g_line):
        track = g_line.ledger(capacity_override=1)
        track.add_edge(1, (2, 3))
        with pytest.raises(CapacityError):
            track.add_edge(1, (2, 3))

    def test_add_remove_path(self, g_line):
        led = g_line.ledger()
        p = STPath((0, 0), (0, 1, 0))
        led.add_path(p)
        assert led.total_load() == 3
        led.remove_path(p)
        assert led.total_load() == 0

    def test_path_fits(self, g_line):
        led = g_line.ledger()
        p = STPath((0, 0), (0, 0))
        led.add_path(p)
        assert not led.path_fits(p)  # c = 1, both edges saturated

    def test_max_load_ratio(self, g_line):
        led = g_line.ledger()
        led.add_edge(1, (2, 3))
        assert led.max_load_ratio() == pytest.approx(0.5)

    def test_bufferless_ledger_infinite_ratio_on_buffer_use(self):
        g = SpaceTimeGraph(LineNetwork(4, buffer_size=0, capacity=1), horizon=4)
        led = g.ledger()
        led.add_edge(1, (0, 0), strict=False)
        assert led.max_load_ratio() == float("inf")

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6))
    def test_path_edge_count_matches_moves(self, moves):
        g = SpaceTimeGraph(LineNetwork(16, buffer_size=2, capacity=2), horizon=40)
        p = STPath((0, 0), tuple(moves))
        assert len(list(p.edges(1))) == len(moves)
        assert g.vertex_time(p.end(1)) == len(moves)


class DenseLedger:
    """The preallocated ledger :class:`LoadLedger` replaced: one int32 array
    of shape ``dims x ncols`` per move kind, indexed by the tail vertex."""

    def __init__(self, graph: SpaceTimeGraph, capacity_override=None):
        self.graph = graph
        self.capacity_override = capacity_override
        shape = (*graph.network.dims, graph.ncols)
        self._loads = [np.zeros(shape, dtype=np.int32) for _ in range(graph.d + 1)]

    def _index(self, v: tuple) -> tuple:
        return (*v[:-1], v[-1] + self.graph.col_offset)

    def capacity(self, move: int) -> int:
        if self.capacity_override is not None:
            return self.capacity_override
        return self.graph.edge_capacity(move)

    def load(self, move: int, tail: tuple) -> int:
        return int(self._loads[move][self._index(tail)])

    def residual(self, move: int, tail: tuple) -> int:
        return self.capacity(move) - self.load(move, tail)

    def add_edge(self, move: int, tail: tuple, amount: int = 1, strict: bool = True) -> None:
        idx = self._index(tail)
        new = self._loads[move][idx] + amount
        if strict and new > self.capacity(move):
            raise CapacityError(
                f"edge (move={move}, tail={tail}) exceeds capacity "
                f"{self.capacity(move)} (load would be {new})"
            )
        self._loads[move][idx] = new

    def add_path(self, path: STPath, amount: int = 1, strict: bool = True) -> None:
        for move, tail in path.edges(self.graph.d):
            self.add_edge(move, tail, amount, strict)

    def remove_path(self, path: STPath, amount: int = 1) -> None:
        self.add_path(path, -amount, strict=False)

    def path_fits(self, path: STPath) -> bool:
        return all(
            self.residual(move, tail) >= 1 for move, tail in path.edges(self.graph.d)
        )

    def max_load_ratio(self) -> float:
        worst = 0.0
        for move, arr in enumerate(self._loads):
            cap = self.capacity(move)
            if cap <= 0:
                if arr.any():
                    return float("inf")
                continue
            worst = max(worst, float(arr.max()) / cap)
        return worst

    def total_load(self) -> int:
        return int(sum(arr.sum() for arr in self._loads))


@st.composite
def ledger_programs(draw):
    """A small graph, a capacity override and a sequence of ledger calls
    on valid tails."""
    d = draw(st.integers(1, 2))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(d))
    network = Network(dims, draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    graph = SpaceTimeGraph(network, draw(st.integers(0, 6)))
    override = draw(st.sampled_from((None, 0, 1, 3)))

    def vertex():
        node = tuple(draw(st.integers(0, l - 1)) for l in dims)
        return (*node, draw(st.integers(0, graph.horizon)) - sum(node))

    def path():
        v = start = vertex()
        moves = []
        for _ in range(draw(st.integers(0, 4))):
            heads = [m for m in range(d + 1)
                     if graph.valid_vertex(graph.move_head(v, m))]
            if not heads:
                break
            move = draw(st.sampled_from(heads))
            moves.append(move)
            v = graph.move_head(v, move)
        return STPath(start, tuple(moves))

    calls = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from((
            "add_edge", "add_path", "remove_path", "path_fits", "residual",
            "load", "max_load_ratio", "total_load")))
        if kind == "add_edge":
            args = (draw(st.integers(0, d)), vertex(), draw(st.integers(-2, 3)),
                    draw(st.booleans()))
        elif kind == "add_path":
            args = (path(), draw(st.integers(-1, 2)), draw(st.booleans()))
        elif kind == "remove_path":
            args = (path(), draw(st.integers(1, 2)))
        elif kind == "path_fits":
            args = (path(),)
        elif kind in ("residual", "load"):
            args = (draw(st.integers(0, d)), vertex())
        else:
            args = ()
        calls.append((kind, args))
    return graph, override, calls


def _call(ledger, kind, args):
    try:
        return getattr(ledger, kind)(*args)
    except CapacityError as exc:
        return "CapacityError", str(exc)


class TestLedgerAgainstDense:
    @settings(max_examples=300, deadline=None)
    @given(ledger_programs())
    def test_same_results_as_dense_arrays(self, program):
        graph, override, calls = program
        ledger, dense = graph.ledger(override), DenseLedger(graph, override)
        tails = set()
        for kind, args in calls:
            assert _call(ledger, kind, args) == _call(dense, kind, args), kind
            if kind == "add_edge":
                tails.add((args[0], args[1]))
            elif kind in ("add_path", "remove_path"):
                tails.update(args[0].edges(graph.d))
        for move, tail in tails:
            assert ledger.load(move, tail) == dense.load(move, tail)

    def test_large_graph_under_memory_cap(self):
        """A ledger holds only the edges it charges: under a ~1 GB
        address-space cap, one over a 4096-node line and 100k steps (dense
        arrays of 1.59 GiB) charges a path and reads it back (run in a
        subprocess so a regression fails this test, not the whole run)."""
        proc = subprocess.run(
            [sys.executable, "-c", _LEDGER_SCRIPT], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.split() == ["3", "1", "1.0"]


#: the ledger of test_large_graph_under_memory_cap, under RLIMIT_AS
_LEDGER_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.network.topology import LineNetwork
from repro.spacetime.graph import STPath, SpaceTimeGraph
graph = SpaceTimeGraph(LineNetwork(4096, buffer_size=1, capacity=1), 100_000)
ledger = graph.ledger()
ledger.add_path(STPath((0, 50_000), (0, 1, 0)))
print(ledger.total_load(), ledger.load(1, (1, 50_000)), ledger.max_load_ratio())
"""
