"""Tests for the single-commodity max-flow throughput upper bound."""

import os
import subprocess
import sys

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import NetworkSpec
from repro.network.packet import Request
from repro.network.topology import LineNetwork
from repro.packing.exact import exact_opt_small
from repro.packing.maxflow import _edge_count, _edges, _windows, throughput_upper_bound
from repro.workloads.deadline import deadline_requests
from repro.workloads.uniform import uniform_requests


@st.composite
def instances(draw):
    """A small network of any registered topology (size-1 axes included,
    ``link_caps`` overrides, ``B`` from 0 to 3), a uniform or deadline
    workload rotated on the wrapping axes so destinations lie across the
    seam, and a horizon that some arrivals may fall after."""
    kind = draw(st.sampled_from(("line", "grid", "ring", "uniline", "torus")))
    if kind in ("grid", "torus"):
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    else:
        dims = (draw(st.integers(1, 8)),)
    B, c = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    links = list(NetworkSpec(kind, dims, B, c).build().edges())
    overrides = draw(st.lists(st.tuples(st.sampled_from(links), st.integers(1, 4)),
                              max_size=4, unique_by=lambda o: o[0])) if links else []
    net = NetworkSpec(kind, dims, B, c, link_caps=tuple(
        (edge.tail, edge.axis, cap) for edge, cap in overrides)).build()
    horizon = draw(st.integers(0, 12))
    span = horizon + draw(st.integers(0, 4))
    num, seed = draw(st.integers(0, 16)), draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        reqs = uniform_requests(net, num, span, rng=seed)
    else:
        reqs = deadline_requests(net, num, span, slack=draw(st.integers(0, 4)),
                                 rng=seed, jitter=draw(st.integers(0, 2)))
    shift = [draw(st.integers(0, l - 1)) if w else 0
             for l, w in zip(net.dims, net.wrap)]

    def rotate(node):
        return tuple((x + s) % l for x, s, l in zip(node, shift, net.dims))

    reqs = [Request(rotate(r.source), rotate(r.dest), r.arrival,
                    deadline=r.deadline, rid=r.rid) for r in reqs]
    return net, reqs, horizon


def networkx_bound(network, requests, horizon):
    """The same relaxation built by a plain loop and solved by networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(("source", "sink"))
    for node in network.nodes():
        for t in range(horizon):
            if network.buffer_size > 0:
                g.add_edge((node, t), (node, t + 1), capacity=network.buffer_size)
            for axis, nbr in network.out_neighbors(node):
                g.add_edge((node, t), (nbr, t + 1),
                           capacity=network.capacity_of(node, axis))
    for i, r in enumerate(requests):
        if r.arrival > horizon:
            continue
        event = (r.source, r.arrival)
        fan_in = g.edges[("source", event)]["capacity"] \
            if g.has_edge("source", event) else 0
        g.add_edge("source", event, capacity=fan_in + 1)
        hi = horizon if r.deadline is None else min(r.deadline, horizon)
        for t in range(r.arrival + network.dist(r.source, r.dest), hi + 1):
            g.add_edge((r.dest, t), ("request", i), capacity=1)
        g.add_edge(("request", i), "sink", capacity=1)
    return nx.maximum_flow_value(g, "source", "sink")


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_matches_networkx(self, instance):
        net, reqs, horizon = instance
        assert throughput_upper_bound(net, reqs, horizon) \
            == networkx_bound(net, reqs, horizon)

    def test_capacities_beyond_int32(self):
        net = LineNetwork(4, buffer_size=1 << 40, capacity=1 << 33)
        reqs = uniform_requests(net, 12, 6, rng=5)
        assert throughput_upper_bound(net, reqs, 8) == networkx_bound(net, reqs, 8) > 0


class TestEdgeCount:
    """The guard's closed-form count equals the built network's, so it
    accepts and refuses exactly the instances whose built size it
    measures."""

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_closed_form_matches_built_edges(self, instance):
        net, reqs, horizon = instance
        source_events, first_copy, widths = _windows(net, reqs, horizon)
        events, counts = np.unique(source_events, return_counts=True)
        tail, head, cap = _edges(net, horizon, events, counts, first_copy, widths)
        assert _edge_count(net, horizon, len(events), widths) \
            == len(tail) == len(head) == len(cap)

    def test_edge_guard(self):
        """The guard refuses before allocating: under a ~1 GB address-space
        cap the oversized flow network raises ValidationError instead of
        exhausting memory (run in a subprocess so a regression fails this
        test, not the whole test run)."""
        proc = subprocess.run(
            [sys.executable, "-c", _GUARD_SCRIPT], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == "refused"


#: the oversized flow network of test_edge_guard (about 60M edges), under
#: RLIMIT_AS
_GUARD_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.network.topology import LineNetwork
from repro.packing.maxflow import throughput_upper_bound
from repro.util.errors import ValidationError
from repro.workloads.uniform import uniform_requests
net = LineNetwork(64, buffer_size=1, capacity=1)
reqs = uniform_requests(net, 500, 64, rng=0)
try:
    throughput_upper_bound(net, reqs, 100_000)
except ValidationError:
    print("refused")
"""


class TestThroughputUpperBound:
    def test_single_request(self):
        net = LineNetwork(5, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 4, 0)]
        assert throughput_upper_bound(net, reqs, 10) == 1

    def test_contention_on_unit_link(self):
        net = LineNetwork(3, buffer_size=0, capacity=1)
        # two packets must cross edge (0, 1) at the same step: only one fits
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        assert throughput_upper_bound(net, reqs, 2) == 1

    def test_buffering_allows_second(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        assert throughput_upper_bound(net, reqs, 10) == 2

    def test_deadline_restricts(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        reqs = [
            Request.line(0, 2, 0, deadline=2, rid=0),
            Request.line(0, 2, 0, deadline=2, rid=1),
        ]
        assert throughput_upper_bound(net, reqs, 10) == 1

    def test_requests_after_horizon_ignored(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 3, 100)]
        assert throughput_upper_bound(net, reqs, 10) == 0

    def test_empty(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        assert throughput_upper_bound(net, [], 10) == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_upper_bounds_exact(self, seed):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 5, 4, rng=seed)
        bound = throughput_upper_bound(net, reqs, 9)
        exact, _ = exact_opt_small(net, reqs, 9)
        assert bound >= exact
