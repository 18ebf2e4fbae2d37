"""Tests for the workload generators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packet import Request
from repro.network.topology import (
    GridNetwork,
    LineNetwork,
    Network,
    RingNetwork,
    TorusNetwork,
)
from repro.util.errors import ValidationError
from repro.workloads import uniform as uniform_module
from repro.workloads import (
    bursty_requests,
    clogging_instance,
    deadline_requests,
    dense_area_instance,
    distance_cascade_instance,
    grid_crossfire_instance,
    permutation_requests,
    poisson_requests,
    uniform_requests,
    with_deadlines,
)


class TestUniform:
    def test_count_and_validity(self):
        net = GridNetwork((4, 4), buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 30, 10, rng=0)
        assert len(reqs) == 30
        for r in reqs:
            net.check_request(r)
            assert r.distance >= 1
            assert 0 <= r.arrival <= 10

    def test_reproducible(self):
        net = LineNetwork(8)
        a = uniform_requests(net, 10, 5, rng=42)
        b = uniform_requests(net, 10, 5, rng=42)
        assert [(r.source, r.dest, r.arrival) for r in a] == [
            (r.source, r.dest, r.arrival) for r in b
        ]

    def test_min_distance(self):
        net = LineNetwork(16)
        reqs = uniform_requests(net, 20, 5, rng=1, min_distance=4)
        assert all(r.distance >= 4 for r in reqs)

    def test_arrival_range(self):
        # arrivals lie in 0..horizon-1, and are 0 when horizon <= 1
        net = GridNetwork((4, 4))
        reqs = uniform_requests(net, 4000, 5, rng=0)
        assert {r.arrival for r in reqs} == set(range(5))
        for horizon in (0, 1):
            reqs = uniform_requests(net, 50, horizon, rng=0)
            assert {r.arrival for r in reqs} == {0}


def scalar_uniform(network, num, horizon, rng, min_distance=1):
    """``uniform_requests`` as it was before its draws came from raw-word
    blocks: one ``rng.integers`` call per coordinate.  Returns
    ``(source, dest, arrival, deadline)`` tuples."""
    out = []
    dims = network.dims
    for _ in range(num):
        for _attempt in range(64):
            src = tuple(int(rng.integers(0, l)) for l in dims)
            dst = tuple(int(rng.integers(s, l)) for s, l in zip(src, dims))
            if sum(d - s for s, d in zip(src, dst)) >= min_distance:
                break
        else:
            src = tuple(0 for _ in dims)
            dst = tuple(l - 1 for l in dims)
        out.append((src, dst, int(rng.integers(0, max(1, horizon))), None))
    return out


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)

#: arrival ranges: a range of 1 takes no word, 2**31 + 1 rejects about
#: half its words, and 2**32 and up leave the Lemire step
HORIZONS = (0, 1, 2, 7, 10**6, 2**31 + 1, 2**32, 2**40)


@st.composite
def uniform_calls(draw):
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    diameter = sum(l - 1 for l in dims)
    # both sides of VECTOR_MIN; 600-700 requests on 3 axes need more
    # than one window
    num = draw(st.integers(0, 40) | st.integers(600, 700))
    # min_distance = diameter + 1 forces the far-corner fallback after 64
    # attempts a request: keep that to the small calls
    top = diameter + 1 if num <= 40 else diameter
    return (Network(dims, 1, 1), num, draw(st.sampled_from(HORIZONS)),
            draw(st.integers(-1, top)), draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(BIT_GENERATORS)))


def same_state(a, b) -> bool:
    """Equal bit-generator states (MT19937 keeps an array in its own)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def assert_same_as_scalar(network, num, horizon, min_distance, seed,
                          bit_generator=np.random.PCG64):
    want_rng = np.random.Generator(bit_generator(seed))
    got_rng = np.random.Generator(bit_generator(seed))
    want = scalar_uniform(network, num, horizon, want_rng, min_distance)
    got = uniform_requests(network, num, horizon, rng=got_rng,
                           min_distance=min_distance)
    assert [(r.source, r.dest, r.arrival, r.deadline) for r in got] == want
    assert all(type(x) is int
               for r in got for x in (*r.source, *r.dest, r.arrival))
    if got:
        assert [r.rid for r in got] == list(range(got[0].rid,
                                                  got[0].rid + num))
    # deadline and congestion-mix keep drawing from this generator
    assert same_state(got_rng.bit_generator.state,
                      want_rng.bit_generator.state)


class TestUniformStream:
    """The raw-word windows and the one-at-a-time loop give the same
    requests, rids and end state as one ``rng.integers`` call per
    coordinate."""

    @settings(max_examples=40, deadline=None)
    @given(uniform_calls())
    def test_matches_scalar_generator(self, call):
        assert_same_as_scalar(*call)

    @settings(max_examples=40, deadline=None)
    @given(uniform_calls())
    def test_many_windows(self, call):
        # windows of 5 attempt starts: requests, failing attempts and
        # far-corner fallbacks cross window edges
        with mock.patch.object(uniform_module, "WINDOW", 5):
            assert_same_as_scalar(*call)

    def test_full_size_grid(self):
        # the 48x48 grid of perfbench's large_grid, over three windows
        for seed in range(3):
            assert_same_as_scalar(GridNetwork((48, 48)), 2000, 128, 1, seed)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("horizon", [2**31 + 1, 2**32, 2**40])
    def test_rejecting_and_wide_arrival_ranges(self, horizon, bit_generator):
        # 2**31 + 1: the walk meets a rejection within a few requests and
        # the one-at-a-time loop finishes; 2**32 and up: that loop alone
        for seed in range(3):
            assert_same_as_scalar(GridNetwork((6, 6)), 300, horizon, 1, seed,
                                  bit_generator)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_size_crossover(self, offset, bit_generator):
        num = uniform_module.VECTOR_MIN + offset
        for dims in ((4, 4), (10, 10), (32,), (3, 4, 5)):
            assert_same_as_scalar(Network(dims, 1, 1), num, 48, 1, 5,
                                  bit_generator)


class TestUniformNum:
    """A bad ``num`` is refused before anything is drawn."""

    @pytest.mark.parametrize("num", [-5, -1, 2.5, 3.0, True, False, "7",
                                     None])
    def test_refused_before_any_draw(self, num):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="num must be an integer"):
            uniform_requests(GridNetwork((4, 4)), num, 5, rng=rng)
        assert rng.bit_generator.state == state
        first = Request.line(0, 1, 0).rid
        with pytest.raises(ValidationError, match="num"):
            uniform_requests(GridNetwork((4, 4)), num, 5, rng=rng)
        assert Request.line(0, 1, 0).rid == first + 1  # no rid taken

    @pytest.mark.parametrize("num", [-5, 2.5, True])
    def test_refused_by_run(self, num):
        from repro.api import NetworkSpec, Scenario, WorkloadSpec, run

        scenario = Scenario(NetworkSpec("grid", (4, 4), 1, 1),
                            WorkloadSpec("uniform", {"num": num,
                                                     "horizon": 8}),
                            "ntg", horizon=20)
        with pytest.raises(ValidationError, match="num must be an integer"):
            run(scenario)

    def test_integer_types_accepted(self):
        net = GridNetwork((4, 4))
        for num in (0, np.int64(30), np.uint8(3)):
            assert len(uniform_requests(net, num, 5, rng=0)) == num


class TestPoisson:
    def test_rate_scales_count(self):
        net = LineNetwork(8)
        low = poisson_requests(net, 0.5, 50, rng=0)
        high = poisson_requests(net, 4.0, 50, rng=0)
        assert len(high) > len(low)

    def test_max_requests_cap(self):
        net = LineNetwork(8)
        reqs = poisson_requests(net, 5.0, 100, rng=0, max_requests=17)
        assert len(reqs) == 17

    def test_validity(self):
        net = GridNetwork((3, 3))
        for r in poisson_requests(net, 2.0, 20, rng=3):
            net.check_request(r)


class TestBursty:
    def test_burst_structure(self):
        net = LineNetwork(16)
        reqs = bursty_requests(net, bursts=3, burst_size=5, horizon=20, rng=0)
        times = {r.arrival for r in reqs}
        assert len(times) <= 3
        for r in reqs:
            net.check_request(r)

    def test_spread(self):
        net = LineNetwork(16)
        reqs = bursty_requests(net, 1, 20, 10, rng=1, spread=2)
        sources = {r.source[0] for r in reqs}
        assert max(sources) - min(sources) <= 4


class TestPermutation:
    def test_halves(self):
        net = LineNetwork(8)
        reqs = permutation_requests(net, rng=0)
        for r in reqs:
            assert r.source[0] < 4 <= r.dest[0]

    def test_rounds(self):
        net = LineNetwork(8)
        one = permutation_requests(net, rng=0, rounds=1)
        three = permutation_requests(net, rng=0, rounds=3, window=4)
        assert len(three) == 3 * len(one)

    def test_grid(self):
        net = GridNetwork((4, 4))
        reqs = permutation_requests(net, rng=1)
        assert reqs and all(net.contains(r.dest) for r in reqs)


class TestDeadlines:
    def test_slack_zero_forces_shortest(self):
        net = LineNetwork(8)
        reqs = deadline_requests(net, 10, 5, slack=0, rng=0)
        for r in reqs:
            assert r.deadline == r.arrival + r.distance

    def test_with_deadlines_preserves_ids(self):
        net = LineNetwork(8)
        base = uniform_requests(net, 5, 5, rng=0)
        dl = with_deadlines(base, slack=3)
        assert [r.rid for r in dl] == [r.rid for r in base]
        assert all(r.deadline == r.arrival + r.distance + 3 for r in dl)

    def test_jitter_bounds(self):
        net = LineNetwork(8)
        reqs = deadline_requests(net, 20, 5, slack=2, rng=1, jitter=3)
        for r in reqs:
            assert 2 <= r.deadline - r.arrival - r.distance <= 5

    @pytest.mark.parametrize("slack, jitter, name",
                             [(-1, 0, "slack"), (-2, 3, "slack"),
                              (2, -1, "jitter")])
    def test_negative_refused_before_any_draw(self, slack, jitter, name):
        net = LineNetwork(8)
        base = uniform_requests(net, 5, 5, rng=0)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=f"{name} must be >= 0"):
            with_deadlines(base, slack, rng, jitter)
        with pytest.raises(ValidationError, match=f"{name} must be >= 0"):
            deadline_requests(net, 5, 5, slack, rng, jitter)
        assert rng.bit_generator.state == state


def scalar_with_deadlines(requests, slack, rng, jitter=0, network=None):
    """``with_deadlines`` as it was before its jitter came from raw-word
    blocks: one ``rng.integers`` call per request and the checking
    ``Request`` constructor."""
    out = []
    for r in requests:
        extra = slack if jitter == 0 else slack + int(rng.integers(0, jitter + 1))
        dist = r.distance if network is None else network.dist(r.source, r.dest)
        out.append(Request(r.source, r.dest, r.arrival,
                           deadline=r.arrival + dist + extra, rid=r.rid))
    return out


_NETWORKS = {
    "line": lambda dims: LineNetwork(dims[0]),
    "grid": GridNetwork,
    "ring": lambda dims: RingNetwork(dims[0]),
    "torus": TorusNetwork,
}


@st.composite
def deadline_calls(draw):
    kind = draw(st.sampled_from(sorted(_NETWORKS)))
    if kind in ("line", "ring"):
        dims = (draw(st.integers(1, 9)),)
    else:
        dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2,
                                   max_size=3)))
    network = _NETWORKS[kind](dims)
    requests = []
    for _ in range(draw(st.integers(0, 30))):
        src = tuple(draw(st.integers(0, l - 1)) for l in dims)
        # a wrapping axis reaches every coordinate, a grid axis only ahead
        dst = tuple(draw(st.integers(0 if wrap else s, l - 1))
                    for s, l, wrap in zip(src, dims, network.wrap))
        requests.append(Request(src, dst, draw(st.integers(0, 20))))
    return (requests, draw(st.integers(0, 6)), draw(st.integers(0, 5)),
            network if draw(st.booleans()) else None,
            draw(st.integers(0, 2**32 - 1)))


def assert_deadlines_as_scalar(requests, slack, jitter, network, seed):
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = scalar_with_deadlines(requests, slack, want_rng, jitter, network)
    got = with_deadlines(requests, slack, got_rng, jitter, network=network)

    def fields(rs):
        return [(r.source, r.dest, r.arrival, r.deadline, r.rid) for r in rs]

    assert fields(got) == fields(want)
    assert all(type(x) is int for r in got
               for x in (*r.source, *r.dest, r.arrival, r.deadline, r.rid))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestDeadlineStream:
    """Jitter from the raw-word stream and copies without re-checks give
    the same requests and end state as the checking, scalar loop."""

    @settings(max_examples=60, deadline=None)
    @given(deadline_calls())
    def test_matches_scalar_loop(self, call):
        assert_deadlines_as_scalar(*call)

    @pytest.mark.parametrize("jitter", [0, 5])
    def test_more_than_one_block(self, jitter):
        # 6000 jitter draws need two 4096-word blocks
        net = GridNetwork((48, 48))
        base = uniform_requests(net, 6000, 128, rng=0)
        for seed in range(2):
            assert_deadlines_as_scalar(base, 2, jitter, net, seed)


class TestAdversarial:
    def test_clogging_shape(self):
        net = LineNetwork(8, buffer_size=2, capacity=1)
        reqs = clogging_instance(net, duration=4, shorts_per_node=1)
        longs = [r for r in reqs if r.distance == 7]
        shorts = [r for r in reqs if r.distance == 1]
        assert len(longs) == 4 and len(shorts) == 6 * 4

    def test_clogging_needs_four_nodes(self):
        with pytest.raises(ValidationError):
            clogging_instance(LineNetwork(3))

    def test_cascade_classes(self):
        net = LineNetwork(16, buffer_size=1, capacity=1)
        reqs = distance_cascade_instance(net, rng=0)
        distances = {r.distance for r in reqs}
        assert distances == {1, 2, 4, 8}

    def test_dense_area(self):
        net = GridNetwork((6, 6))
        reqs = dense_area_instance(net, area_side=2, per_node=3)
        assert len(reqs) == 4 * 3
        assert all(r.dest == (5, 5) for r in reqs)

    def test_dense_area_too_big(self):
        with pytest.raises(ValidationError):
            dense_area_instance(GridNetwork((4, 4)), area_side=5, per_node=1)

    def test_crossfire_shape(self):
        net = GridNetwork((8, 8))
        reqs = grid_crossfire_instance(net, width=2)
        rows = [r for r in reqs if r.source[0] == 0]
        cols = [r for r in reqs if r.source[1] == 0]
        assert len(rows) == 4 and len(cols) == 4

    def test_crossfire_needs_2d(self):
        with pytest.raises(ValidationError):
            grid_crossfire_instance(LineNetwork(8))
