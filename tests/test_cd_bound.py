"""Tests for the congestion + dilation offline bound (repro.packing.cd).

Three layers: the EDF unit-job scheduler the cut analysis rests on, the
bound itself (validity against the exact optimum, never looser than
max-flow, strictly tighter on a crafted deadline-coupled instance), and
its integration through ``offline_bound(method="cd")``.
"""

from __future__ import annotations

import pytest

from repro.baselines.offline import offline_bound
from repro.network.packet import Request
from repro.network.topology import GridNetwork, LineNetwork
from repro.packing.cd import (
    cd_cut_bound,
    cd_throughput_bound,
    edf_max_scheduled,
)
from repro.packing.exact import exact_opt_small
from repro.packing.maxflow import throughput_upper_bound
from repro.util.errors import ValidationError


class TestEDF:
    def test_empty_and_zero_capacity(self):
        assert edf_max_scheduled([], 3) == 0
        assert edf_max_scheduled([(0, 5)], 0) == 0

    def test_all_fit_when_windows_disjoint(self):
        assert edf_max_scheduled([(0, 0), (1, 1), (2, 2)], 1) == 3

    def test_capacity_binds_identical_windows(self):
        # four jobs, window of two slots, two per slot fit
        jobs = [(0, 1)] * 4
        assert edf_max_scheduled(jobs, 2) == 4
        assert edf_max_scheduled(jobs, 1) == 2

    def test_edf_beats_greedy_ordering(self):
        # one slot each at t=0: serving the loose job first loses the
        # tight one; EDF serves (0,0) at 0 and (0,5) later
        assert edf_max_scheduled([(0, 5), (0, 0)], 1) == 2

    def test_idle_gap_is_skipped(self):
        assert edf_max_scheduled([(0, 0), (100, 100)], 1) == 2

    def test_lapsed_jobs_are_dropped(self):
        # three jobs share the single slot 0; only one can be served
        assert edf_max_scheduled([(0, 0)] * 3, 1) == 1


def line(n=8, B=2, c=1):
    return LineNetwork(n, buffer_size=B, capacity=c)


class TestCutBound:
    def test_empty_and_infeasible(self):
        net = line()
        assert cd_cut_bound(net, [], 20) == 0
        # arrival past the horizon, and a deadline tighter than the distance
        reqs = [Request((0,), (5,), arrival=30, rid=0),
                Request((0,), (7,), arrival=0, deadline=3, rid=1)]
        assert cd_cut_bound(net, reqs, 20) == 0

    @pytest.mark.parametrize("bad", [Request.line(0, 9, 0),
                                     Request((0, 0), (1, 1), 0)],
                             ids=["off-grid", "2-d on a line"])
    def test_invalid_request_raises_check_request_error(self, bad):
        """A lone invalid request (destination off the grid, or the wrong
        dimension) is refused with ``check_request``'s text instead of
        counting as one deliverable request."""
        net = LineNetwork(8, 3, 3)
        with pytest.raises(ValidationError) as expected:
            net.check_request(bad)
        with pytest.raises(ValidationError) as caught:
            cd_cut_bound(net, [bad], 20)
        assert str(caught.value) == str(expected.value)

    def test_single_request_counts_once(self):
        net = line()
        reqs = [Request((0,), (5,), arrival=0, rid=0)]
        assert cd_cut_bound(net, reqs, 20) == 1

    def test_cut_capacity_binds(self):
        # 6 identical requests over a c=1 line; each cut's crossing
        # window is [steps, 5 - (3 - steps)] -- always 3 slots -- so at
        # most 3 of them can ever cross, regardless of the horizon
        net = line(n=4, B=2, c=1)
        reqs = [Request((0,), (3,), arrival=0, deadline=5, rid=i)
                for i in range(6)]
        assert cd_cut_bound(net, reqs, 20) == 3

    def test_deadline_coupling_beats_maxflow(self):
        """The crafted swap-slack instance: two tight-deadline twins and
        one loose request share a source edge.  Max-flow credits a unit
        departing a tight request's source event to the loose deadline
        window (3 units); the cut analysis pins each crossing to its
        owner's window (2 units)."""
        net = line(n=6, B=2, c=1)
        reqs = [
            Request((2,), (4,), arrival=2, deadline=4, rid=0),
            Request((2,), (4,), arrival=2, deadline=4, rid=1),
            Request((2,), (5,), arrival=0, deadline=15, rid=2),
        ]
        horizon = 20
        mf = throughput_upper_bound(net, reqs, horizon)
        cd = cd_throughput_bound(net, reqs, horizon)
        assert mf == 3
        assert cd == 2
        # and 2 is achievable, so the tighter bound is still valid
        opt, _ = exact_opt_small(net, reqs, horizon)
        assert opt == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_valid_against_exact_optimum(self, seed):
        from repro.workloads.deadline import deadline_requests

        net = line(n=5, B=1, c=1)
        reqs = deadline_requests(net, num=6, horizon=4, slack=2, rng=seed,
                                 jitter=2)
        horizon = 12
        opt, _ = exact_opt_small(net, reqs, horizon)
        cd = cd_throughput_bound(net, reqs, horizon)
        assert cd >= opt
        assert cd <= throughput_upper_bound(net, reqs, horizon)

    def test_grid_axes_both_cut(self):
        net = GridNetwork((3, 3), buffer_size=1, capacity=1)
        reqs = [Request((0, 0), (2, 2), arrival=0, rid=i) for i in range(4)]
        cd = cd_throughput_bound(net, reqs, 16)
        assert 0 < cd <= 4


class TestOfflineBoundIntegration:
    def test_method_cd_dispatches(self):
        net = line()
        reqs = [Request((0,), (5,), arrival=0, rid=0)]
        assert offline_bound(net, reqs, 20, method="cd") == 1.0
        assert offline_bound(net, [], 20, method="cd") == 0.0

    def test_methods_are_ordered_by_tightness_on_lines(self):
        from repro.workloads.uniform import uniform_requests

        net = line(n=6, B=2, c=1)
        reqs = uniform_requests(net, num=12, horizon=6, rng=3)
        horizon = 24
        values = {m: offline_bound(net, reqs, horizon, method=m)
                  for m in ("exact", "lp", "cd", "maxflow")}
        assert values["exact"] <= values["lp"] + 1e-9
        assert values["cd"] <= values["maxflow"]
        assert values["exact"] <= values["cd"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown offline bound"):
            offline_bound(line(), [Request((0,), (1,), arrival=0, rid=0)],
                          10, method="psychic")
