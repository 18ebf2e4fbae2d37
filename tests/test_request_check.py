"""One request check: ``Network.check_requests`` and its consumers.

``Network.check_request`` is the per-request rule of the paper's model
(Section 2.1) and the source of every error text.  ``check_requests``
applies that rule to a whole sequence as columns, and every consumer --
the engines, the planning routers, the offline bounds and ``ipp-sketch``
-- calls it once on its whole input.  A sequence with one corrupted row
must therefore be refused by every consumer with exactly the oracle's
message for that row, whatever the topology and wherever the row sits,
including rows that arrive after the horizon.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import NetworkSpec
from repro.api.registry import ALGORITHMS
from repro.baselines.greedy import GreedyPolicy
from repro.baselines.offline import BOUND_METHODS, offline_bound
from repro.core.deterministic import DeterministicRouter
from repro.core.deterministic.frontier import ImprovedDeterministicRouter
from repro.network.fast_batch_engine import FastBatchEngine
from repro.network.fast_engine import FastEngine
from repro.network.node_models import (
    FastModel2Engine,
    Model2LineSimulator,
    Model2Policy,
)
from repro.network.packet import NO_DEADLINE, Request, RequestTable
from repro.network.simulator import Simulator
from repro.network.topology import GridNetwork, LineNetwork
from repro.util.errors import ValidationError

#: ways to corrupt one row; the wrong dimension only fits a list and a
#: negative arrival only a table (``Request`` itself refuses one)
CORRUPTIONS = ("off_grid", "backward", "deadline", "dimension",
               "negative_arrival")


def oracle_message(network, request) -> str:
    with pytest.raises(ValidationError) as oracle:
        network.check_request(request)
    return str(oracle.value)


def consumers(network, horizon: int, other):
    """``(name, call)`` for every consumer of a request sequence that can
    run on ``network``; ``other`` is a valid sequence for the second job
    of a two-job stack."""
    def engine(cls):
        return lambda reqs: cls(network, GreedyPolicy("fifo")).run(reqs, horizon)

    yield "reference", engine(Simulator)
    yield "fast", engine(FastEngine)
    yield "batch", lambda reqs: FastBatchEngine(
        [(network, GreedyPolicy("fifo"), reqs, horizon)]).run_many()
    yield "batch stack", lambda reqs: FastBatchEngine(
        [(network, GreedyPolicy("lifo"), other, horizon),
         (network, GreedyPolicy("fifo"), reqs, horizon)]).run_many()
    if network.d == 1 and not network.any_wrap:  # Model 2 needs c = 1
        line = LineNetwork(network.dims[0], network.buffer_size, 1)
        for cls in (Model2LineSimulator, FastModel2Engine):
            yield cls.__name__, (
                lambda reqs, cls=cls: cls(line, Model2Policy()).run(reqs, horizon))
    for name, router in (("det", DeterministicRouter),
                         ("det2", ImprovedDeterministicRouter)):
        if ALGORITHMS.get(name).unavailable(network, horizon) is None:
            yield name, (lambda reqs, router=router:
                         router(network, horizon).route(reqs))
    for method in BOUND_METHODS:
        yield method, (lambda reqs, method=method:
                       offline_bound(network, reqs, horizon, method=method))


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(("line", "grid", "uniline", "ring", "torus")))
    if kind in ("grid", "torus"):
        dims = tuple(draw(st.integers(2, 4))
                     for _ in range(draw(st.integers(2, 3))))
    else:
        dims = (draw(st.integers(2, 9)),)
    link_caps = ()
    if draw(st.booleans()):  # a hotspot on the first axis-0 edge
        link_caps = (((0,) * len(dims), 0, draw(st.integers(1, 3))),)
    return NetworkSpec(kind, dims, buffer_size=draw(st.sampled_from((0, 1, 3))),
                       capacity=draw(st.sampled_from((1, 3))),
                       link_caps=link_caps).build()


@st.composite
def requests(draw, network, horizon: int):
    """Valid requests, some with deadlines and some arriving after the
    horizon."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        src = tuple(draw(st.integers(0, l - 1)) for l in network.dims)
        dst = tuple(draw(st.integers(0 if w else s, l - 1))
                    for s, l, w in zip(src, network.dims, network.wrap))
        arrival = draw(st.integers(0, horizon + 4))
        earliest = arrival + network.dist(src, dst)
        deadline = draw(st.none() | st.integers(earliest, earliest + 4))
        out.append(Request(src, dst, arrival, deadline))
    return out


def _corrupt(draw, network, r: Request, kind: str) -> Request:
    """``r`` with one fault of ``kind`` (all but ``negative_arrival``)."""
    src, dst = list(r.source), list(r.dest)
    if kind == "off_grid":
        axis = draw(st.integers(0, network.d - 1))
        coords = src if draw(st.booleans()) else dst
        coords[axis] = draw(st.sampled_from((-1, network.dims[axis])))
    elif kind == "backward":
        axis = draw(st.sampled_from([
            a for a in range(network.d)
            if not network.wrap[a] and network.dims[a] > 1]))
        src[axis] = draw(st.integers(1, network.dims[axis] - 1))
        dst[axis] = draw(st.integers(0, src[axis] - 1))
    elif kind == "deadline":
        earliest = r.arrival + network.dist(r.source, r.dest)
        return Request(r.source, r.dest, r.arrival,
                       earliest - draw(st.integers(1, 3)))
    else:
        assert kind == "dimension"
        src, dst = src + [0], dst + [0]
    return Request(tuple(src), tuple(dst), r.arrival)


@st.composite
def corrupted(draw):
    """``(network, horizon, sequence, bad row, other valid sequence)``
    with exactly one corrupted row at a drawn position."""
    network = draw(networks())
    horizon = draw(st.integers(3, 12))
    reqs = draw(requests(network, horizon))
    kinds = [k for k in CORRUPTIONS if k != "backward" or any(
        not w and l > 1 for w, l in zip(network.wrap, network.dims))]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(reqs) - 1))
    if kind == "negative_arrival":
        table = RequestTable.from_requests(reqs)
        arrival = table.arrival.copy()
        arrival[i] = -draw(st.integers(1, 5))
        seq = RequestTable(table.source, table.dest, arrival, table.deadline,
                           table.rid)
    else:
        reqs[i] = _corrupt(draw, network, reqs[i], kind)
        as_table = kind != "dimension" and draw(st.booleans())
        seq = RequestTable.from_requests(reqs) if as_table else reqs
    return network, horizon, seq, seq[i], draw(requests(network, horizon))


class TestOneCheck:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corrupted())
    def test_every_consumer_raises_the_oracle_message(self, case):
        network, horizon, seq, bad, other = case
        want = oracle_message(network, bad)
        for name, call in consumers(network, horizon, other):
            with pytest.raises(ValidationError) as err:
                call(seq)
            assert str(err.value) == want, name

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_valid_sequences_come_back_as_their_columns(self, data):
        network = data.draw(networks())
        reqs = data.draw(requests(network, data.draw(st.integers(3, 12))))
        table = RequestTable.from_requests(list(reqs))
        assert network.check_requests(table) is table
        got = network.check_requests(reqs)
        assert isinstance(got, RequestTable)
        for a, b in zip(got.columns(), table.columns()):
            np.testing.assert_array_equal(a, b)
        assert all(a is b for a, b in zip(got, reqs))

    @pytest.mark.parametrize("empty", [[], (), iter(())])
    def test_empty_sequence_has_the_grid_width(self, empty):
        table = GridNetwork((3, 4)).check_requests(empty)
        assert len(table) == 0 and table.source.shape == (0, 2)

    @pytest.mark.parametrize("cls", [Model2LineSimulator, FastModel2Engine])
    def test_engines_read_an_iterator_once(self, cls):
        # the Model 2 reference engine iterated its input twice and so
        # rejected every request of an iterator
        reqs = [Request.line(0, 3, 0), Request.line(1, 5, 1)]
        engine = cls(LineNetwork(8, 2, 1), Model2Policy())
        assert engine.run(iter(reqs), 10).status == engine.run(reqs, 10).status

    def test_mixed_dimensions_raise_the_first_bad_rows_message(self):
        net = LineNetwork(8, 1, 1)
        reqs = [Request.line(0, 3, 0), Request.line(5, 2, 1),
                Request((0, 0), (1, 1), 0)]
        with pytest.raises(ValidationError, match="no directed path"):
            net.check_requests(reqs)


class TestNegativeArrival:
    """A table may hold a negative arrival, which ``Request`` refuses:
    every engine and bound raises ``Request``'s own text for it."""

    def _table(self):
        return RequestTable([[0], [1]], [[3], [4]], [-2, 0],
                            [NO_DEADLINE] * 2, [900001, 900002])

    @pytest.mark.parametrize("cls", [Simulator, FastEngine])
    def test_engines(self, cls):
        engine = cls(LineNetwork(8, 1, 1), GreedyPolicy("fifo"))
        with pytest.raises(ValidationError,
                           match="^arrival must be >= 0, got -2$"):
            engine.run(self._table(), 10)

    @pytest.mark.parametrize("method", BOUND_METHODS)
    def test_bounds(self, method):
        with pytest.raises(ValidationError,
                           match="^arrival must be >= 0, got -2$"):
            offline_bound(LineNetwork(8, 1, 1), self._table(), 10,
                          method=method)


#: one invalid request of each kind a bound let through, by arrival
INVALID = {
    "off_grid": lambda t: Request.line(0, 9, t),
    "backward": lambda t: Request.line(5, 2, t),
    "deadline": lambda t: Request.line(0, 5, t, deadline=t + 2),
    "dimension": lambda t: Request((0, 0), (1, 1), t),
}


class TestBoundsCheckEveryRequest:
    """``exact`` checked nothing, ``lp`` and ``ipp-sketch`` skipped the
    requests arriving after the horizon, and ``cd`` checked only through
    its max-flow term."""

    NET = LineNetwork(8, 3, 3)
    HORIZON = 20

    def _raises(self, call, bad, alone=False):
        with pytest.raises(ValidationError) as err:
            call([bad] if alone else [Request.line(1, 4, 0), bad])
        assert str(err.value) == oracle_message(self.NET, bad)

    @pytest.mark.parametrize("kind", sorted(INVALID))
    @pytest.mark.parametrize("arrival", [0, 50])
    def test_exact(self, kind, arrival):
        self._raises(lambda reqs: offline_bound(self.NET, reqs, self.HORIZON,
                                                method="exact"),
                     INVALID[kind](arrival))

    @pytest.mark.parametrize("kind", sorted(INVALID))
    @pytest.mark.parametrize("method", ["lp", "cd"])
    @pytest.mark.parametrize("alone", [False, True])
    def test_past_the_horizon(self, kind, method, alone):
        # alone, the cut bound of ``cd`` is 0, which skipped the max-flow
        # bound and with it the only check
        self._raises(lambda reqs: offline_bound(self.NET, reqs, self.HORIZON,
                                                method=method),
                     INVALID[kind](50), alone)

    @pytest.mark.parametrize("kind", sorted(INVALID))
    def test_ipp_sketch_past_the_horizon(self, kind):
        run = ALGORITHMS.get("ipp-sketch").fn
        self._raises(lambda reqs: run(self.NET, reqs, self.HORIZON),
                     INVALID[kind](50))
