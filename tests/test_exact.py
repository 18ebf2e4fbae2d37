"""Tests for the exact branch-and-bound optimum."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import NetworkSpec, Scenario, WorkloadSpec, run
from repro.network.packet import Request
from repro.network.topology import GridNetwork, LineNetwork
from repro.packing.exact import enumerate_paths, exact_opt_small
from repro.spacetime.graph import STPath, SpaceTimeGraph
from repro.util.errors import ValidationError


def recursive_enumerate_paths(graph, request, limit):
    """The recursive search ``enumerate_paths`` replaced, kept as the
    reference: one Python frame per move."""
    src = graph.source_vertex(request)
    if not graph.valid_vertex(src):
        return []
    b = request.dest
    t_hi = graph.horizon if request.deadline is None else min(request.deadline, graph.horizon)
    d = graph.d
    out: list = []

    def rec(v, moves):
        if len(out) >= limit:
            raise ValidationError(
                f"more than {limit} candidate paths for {request}; "
                "instance too large for exact_opt_small"
            )
        if v[:-1] == b:
            out.append(STPath(src, tuple(moves), rid=request.rid))
            return
        if graph.vertex_time(v) >= t_hi:
            return
        for move in graph.moves_from(v):
            head = graph.move_head(v, move)
            if move < d and head[move] > b[move]:
                continue
            if graph.vertex_time(head) + sum(
                bb - hh for bb, hh in zip(b, head[:-1])
            ) > t_hi:
                continue
            moves.append(move)
            rec(head, moves)
            moves.pop()

    rec(src, [])
    return out


@st.composite
def path_requests(draw):
    """A small grid, a horizon, one request (deadline or none) and a limit."""
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(d))
    network = GridNetwork(dims, buffer_size=draw(st.integers(0, 2)),
                          capacity=draw(st.integers(1, 2)))
    horizon = draw(st.integers(0, 14))
    source = tuple(draw(st.integers(0, l - 1)) for l in dims)
    dest = tuple(draw(st.integers(s, l - 1)) for s, l in zip(source, dims))
    arrival = draw(st.integers(0, horizon + 1))
    deadline = (arrival + draw(st.integers(0, 10))
                if draw(st.booleans()) else None)
    limit = draw(st.sampled_from([5, 50, 2000]))
    return (SpaceTimeGraph(network, horizon),
            Request(source, dest, arrival, deadline, rid=0), limit)


def _paths_or_error(search, graph, request, limit):
    try:
        return search(graph, request, limit)
    except ValidationError as exc:
        return str(exc)


class TestEnumeratePaths:
    def test_bufferless_single_path(self):
        net = LineNetwork(4, buffer_size=0, capacity=1)
        graph = SpaceTimeGraph(net, horizon=6)
        paths = enumerate_paths(graph, Request.line(0, 3, 0))
        assert len(paths) == 1
        assert paths[0].moves == (0, 0, 0)

    def test_buffered_path_count(self):
        # distance 2, deadline slack 1: shift the single buffer step into
        # 3 positions (before hop 1, between hops, after... arrival on time)
        net = LineNetwork(3, buffer_size=1, capacity=1)
        graph = SpaceTimeGraph(net, horizon=10)
        paths = enumerate_paths(graph, Request.line(0, 2, 0, deadline=3))
        moves = {p.moves for p in paths}
        assert (0, 0) in moves
        assert (1, 0, 0) in moves and (0, 1, 0) in moves
        assert len(paths) == 3  # buffering after arrival is not a path

    def test_limit_enforced(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        graph = SpaceTimeGraph(net, horizon=40)
        with pytest.raises(ValidationError):
            enumerate_paths(graph, Request.line(0, 3, 0), limit=5)

    def test_paths_end_at_destination(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        graph = SpaceTimeGraph(net, horizon=8)
        for p in enumerate_paths(graph, Request.line(1, 3, 2)):
            assert p.end(1)[0] == 3

    def test_path_longer_than_recursion_limit(self):
        # one bufferless path with more moves than Python has frames
        n = sys.getrecursionlimit() + 500
        graph = SpaceTimeGraph(LineNetwork(n, buffer_size=0, capacity=1), n)
        (path,) = enumerate_paths(graph, Request.line(0, n - 1, 0, rid=0))
        assert path.moves == (0,) * (n - 1)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(path_requests())
    def test_same_paths_as_recursive_search(self, drawn):
        graph, request, limit = drawn
        assert _paths_or_error(enumerate_paths, graph, request, limit) == \
            _paths_or_error(recursive_enumerate_paths, graph, request, limit)


class TestExactBoundRefusal:
    """A long slack must end in the path limit's ``ValidationError``,
    never in ``RecursionError``."""

    @pytest.mark.parametrize("horizon", [990, 1200, 5000])
    def test_long_horizon_refuses_naming_the_request(self, horizon):
        scenario = Scenario(
            network=NetworkSpec("line", (8,), 2, 2),
            workload=WorkloadSpec("uniform", {"num": 4, "horizon": 4}),
            algorithm="ntg", horizon=horizon)
        with pytest.raises(ValidationError, match=r"more than 2000 candidate "
                           r"paths for Request#\d+\(\(\d,\)->\(\d,\) @t=\d+ "):
            run(scenario, bound_method="exact")


class TestExactOpt:
    def test_no_contention(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = [Request.line(i, i + 1, 0, rid=i) for i in (0, 2, 4)]
        value, chosen = exact_opt_small(net, reqs, 5)
        assert value == 3 and set(chosen) == {0, 2, 4}

    def test_bufferless_contention(self):
        net = LineNetwork(3, buffer_size=0, capacity=1)
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        value, _ = exact_opt_small(net, reqs, 4)
        assert value == 1

    def test_buffering_resolves_contention(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        value, chosen = exact_opt_small(net, reqs, 8)
        assert value == 2
        # the chosen paths must be capacity-feasible
        ledger = SpaceTimeGraph(net, 8).ledger()
        for path in chosen.values():
            ledger.add_path(path)  # raises on violation

    def test_request_limit(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 1, t, rid=t) for t in range(20)]
        with pytest.raises(ValidationError):
            exact_opt_small(net, reqs, 30)

    def test_deadline_contention(self):
        net = LineNetwork(3, buffer_size=2, capacity=1)
        reqs = [
            Request.line(0, 2, 0, deadline=2, rid=0),
            Request.line(0, 2, 0, deadline=2, rid=1),
        ]
        value, _ = exact_opt_small(net, reqs, 6)
        assert value == 1  # second packet cannot make the deadline

    def test_witness_paths_serve_right_requests(self):
        net = LineNetwork(5, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 3, 0, rid=0), Request.line(1, 4, 1, rid=1)]
        value, chosen = exact_opt_small(net, reqs, 10)
        assert value == 2
        assert chosen[0].start == (0, 0)
        assert chosen[1].start == (1, 0)
