"""Tests for the fractional multicommodity LP (opt_f, Lemma 2)."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packet import Request
from repro.network.topology import GridNetwork, LineNetwork
from repro.packing.exact import exact_opt_small
from repro.packing.lp import _variable_count, _window_variables, fractional_opt
from repro.packing.maxflow import throughput_upper_bound
from repro.workloads import deadline_requests
from repro.workloads.uniform import uniform_requests


class TestBasics:
    def test_single_request(self):
        net = LineNetwork(5, buffer_size=1, capacity=1)
        assert fractional_opt(net, [Request.line(0, 4, 0)], 10) == pytest.approx(1.0)

    def test_empty(self):
        net = LineNetwork(5, buffer_size=1, capacity=1)
        assert fractional_opt(net, [], 10) == 0.0

    def test_unreachable_within_horizon(self):
        net = LineNetwork(5, buffer_size=1, capacity=1)
        assert fractional_opt(net, [Request.line(0, 4, 0)], 2) == pytest.approx(0.0)

    def test_contention_fractional_value(self):
        net = LineNetwork(3, buffer_size=0, capacity=1)
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        # bufferless: both need the same diagonal; only one can be served
        assert fractional_opt(net, reqs, 4) == pytest.approx(1.0)

    def test_details_served_fractions(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 3, 0, rid=0), Request.line(0, 3, 0, rid=1)]
        value, served = fractional_opt(net, reqs, 10, return_details=True)
        assert value == pytest.approx(served.sum())
        assert all(0 - 1e-9 <= s <= 1 + 1e-9 for s in served)

    def test_grid(self):
        net = GridNetwork((3, 3), buffer_size=1, capacity=1)
        reqs = [Request((0, 0), (2, 2), 0)]
        assert fractional_opt(net, reqs, 8) == pytest.approx(1.0)

    def test_variable_guard(self):
        """The guard refuses before allocating: under a ~1 GB address-space
        cap the oversized LP raises ValidationError instead of exhausting
        memory (run in a subprocess so a regression fails this test, not
        the whole test run)."""
        proc = subprocess.run(
            [sys.executable, "-c", _GUARD_SCRIPT], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == "refused"


#: the oversized LP of test_variable_guard, under RLIMIT_AS
_GUARD_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.network.topology import LineNetwork
from repro.packing.lp import fractional_opt
from repro.util.errors import ValidationError
from repro.workloads import deadline_requests
from repro.workloads.uniform import uniform_requests
net = LineNetwork(64, buffer_size=1, capacity=1)
reqs = uniform_requests(net, 500, 64, rng=0)
try:
    fractional_opt(net, reqs, 4000)
except ValidationError:
    print("refused")
"""


class TestVariableCount:
    """The guard's closed-form count equals the built LP's, so it accepts
    and rejects exactly the instances whose built size it measures."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([(7,), (3, 4), (2, 2, 3)]),
           st.integers(0, 2), st.integers(2, 14),
           st.one_of(st.none(), st.integers(0, 10)),
           st.one_of(st.none(), st.integers(0, 4)))
    def test_closed_form_matches_built_windows(self, seed, dims, B, horizon,
                                               pmax, slack):
        net = (LineNetwork(dims[0], buffer_size=B, capacity=1)
               if len(dims) == 1 else
               GridNetwork(dims, buffer_size=B, capacity=1))
        if slack is None:
            reqs = uniform_requests(net, 6, horizon + 2, rng=seed)
        else:
            reqs = deadline_requests(net, 6, horizon + 2, slack=slack,
                                     rng=seed)
        for r in reqs:
            _, _, edges, copies = _window_variables(net, r, horizon, pmax)
            assert _variable_count(net, r, horizon, pmax) \
                == len(edges) + len(copies), r


class TestRelationsBetweenBounds:
    def test_lp_at_least_exact(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 5, 4, rng=7)
        lp = fractional_opt(net, reqs, 9)
        exact, _ = exact_opt_small(net, reqs, 9)
        assert lp >= exact - 1e-9

    def test_lp_vs_maxflow_both_upper_bound(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 6, 5, rng=3)
        lp = fractional_opt(net, reqs, 10)
        mf = throughput_upper_bound(net, reqs, 10)
        exact, _ = exact_opt_small(net, reqs, 10)
        assert lp >= exact - 1e-9 and mf >= exact

    def test_integral_when_no_contention(self):
        net = LineNetwork(8, buffer_size=1, capacity=1)
        reqs = [Request.line(i, i + 1, 0, rid=i) for i in range(0, 8, 2)]
        assert fractional_opt(net, reqs, 4) == pytest.approx(len(reqs))


class TestPathLengthBound:
    """Lemma 2: opt_f(R | p_max) degrades gracefully as p_max shrinks."""

    def test_monotone_in_pmax(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 5, t, rid=t) for t in range(4)]
        values = [fractional_opt(net, reqs, 20, pmax=p) for p in (5, 8, 12, 20)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_pmax_below_distance_kills_request(self):
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 5, 0)]
        assert fractional_opt(net, reqs, 20, pmax=4) == pytest.approx(0.0)

    def test_paper_pmax_loses_nothing_small_instance(self):
        # with the paper's p_max (huge), the bound is inactive
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 6, 5, rng=5)
        free = fractional_opt(net, reqs, 12)
        capped = fractional_opt(net, reqs, 12, pmax=net.pmax())
        assert capped == pytest.approx(free)

    def test_lemma2_constant_fraction(self):
        # the Lemma 2 guarantee: at p_max = (nu+2) diam, at least
        # (1 - 1/e)/2 of the unbounded optimum survives
        net = LineNetwork(6, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 8, 6, rng=11)
        free = fractional_opt(net, reqs, 14)
        capped = fractional_opt(net, reqs, 14, pmax=net.pmax())
        assert capped >= 0.5 * (1 - 1 / 2.718281828) * free - 1e-9
