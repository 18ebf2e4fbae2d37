"""Tests for repro.network.packet: requests, packets, statuses."""

import dataclasses

import pytest

from repro.network.packet import DeliveryStatus, Packet, Request
from repro.network.topology import GridNetwork, LineNetwork, RingNetwork
from repro.util.errors import ValidationError


class TestRequestConstruction:
    def test_line_constructor(self):
        r = Request.line(2, 5, 3)
        assert r.source == (2,) and r.dest == (5,)
        assert r.arrival == 3 and r.deadline is None

    def test_tuple_nodes(self):
        r = Request((1, 2), (3, 4), 0)
        assert r.source == (1, 2) and r.dest == (3, 4)

    def test_int_nodes_normalised(self):
        r = Request(1, 4, 0)
        assert r.source == (1,) and r.dest == (4,)

    def test_distance_line(self):
        assert Request.line(2, 7, 0).distance == 5

    def test_distance_grid(self):
        assert Request((0, 1), (3, 4), 0).distance == 6

    def test_dim(self):
        assert Request.line(0, 1, 0).dim == 1
        assert Request((0, 0, 0), (1, 1, 1), 0).dim == 3

    def test_trivial(self):
        assert Request.line(3, 3, 0).is_trivial()
        assert not Request.line(3, 4, 0).is_trivial()

    def test_rids_unique_when_auto(self):
        a, b = Request.line(0, 1, 0), Request.line(0, 1, 0)
        assert a.rid != b.rid

    def test_explicit_rid(self):
        assert Request.line(0, 1, 0, rid=99).rid == 99

    def test_deadline_stored(self):
        assert Request.line(0, 2, 1, deadline=5).deadline == 5


class TestRequestValidation:
    # Reachability and deadline feasibility are topology-dependent (a
    # "backward" pair is routable on a ring), so they live in
    # Network.check_request; the constructor keeps only shape checks.

    def test_backward_line_constructs_but_fails_check(self):
        r = Request.line(5, 2, 0)
        with pytest.raises(ValidationError, match="no directed path"):
            LineNetwork(8, 1, 1).check_request(r)

    def test_backward_pair_is_valid_on_a_ring(self):
        r = Request.line(5, 2, 0)
        RingNetwork(8, 1, 1).check_request(r)  # wraps: distance 5

    def test_rejects_backward_grid_component(self):
        r = Request((0, 5), (3, 2), 0)
        with pytest.raises(ValidationError, match="no directed path"):
            GridNetwork((6, 6), 1, 1).check_request(r)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            Request((0,), (1, 1), 0)

    def test_check_request_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            LineNetwork(8, 1, 1).check_request(Request((1, 1), (2, 2), 0))

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValidationError):
            Request.line(0, 1, -1)

    def test_rejects_infeasible_deadline(self):
        # deadline before arrival + distance can never be met (Section 5.4)
        r = Request.line(0, 5, 2, deadline=4)
        with pytest.raises(ValidationError, match="infeasible deadline"):
            LineNetwork(8, 1, 1).check_request(r)

    def test_accepts_tight_feasible_deadline(self):
        r = Request.line(0, 5, 2, deadline=7)
        LineNetwork(8, 1, 1).check_request(r)
        assert r.deadline == 7

    def test_wrap_shortens_deadline_feasibility(self):
        # 6 -> 1 on an 8-ring is 3 hops, so deadline 3 is feasible there
        r = Request.line(6, 1, 0, deadline=3)
        RingNetwork(8, 1, 1).check_request(r)

    def test_rejects_garbage_node(self):
        with pytest.raises(ValidationError):
            Request("node-a", "node-b", 0)

    def test_rejects_empty_tuple(self):
        with pytest.raises(ValidationError):
            Request((), (), 0)


class TestRequestOrdering:
    def test_sorted_by_arrival_then_rid(self):
        a = Request.line(0, 1, 5, rid=2)
        b = Request.line(0, 1, 3, rid=9)
        c = Request.line(0, 1, 5, rid=1)
        assert sorted([a, b, c]) == [b, c, a]

    def test_repr_contains_endpoints(self):
        r = Request.line(1, 4, 2, rid=7)
        text = repr(r)
        assert "7" in text and "(1,)" in text and "(4,)" in text


class TestTrustedRequest:
    """``Request._trusted`` builds what ``Request(source, dest, arrival)``
    builds, without the checks, taking the next rid."""

    CASES = (((0,), (3,), 0), ((1, 2), (4, 2), 7), ((0, 0, 0), (1, 0, 2), 3))

    def test_matches_constructor(self):
        for source, dest, arrival in self.CASES:
            fast = Request._trusted(source, dest, arrival)
            slow = Request(source, dest, arrival, rid=fast.rid)
            assert dataclasses.astuple(fast) == dataclasses.astuple(slow)
            assert list(vars(fast)) == list(vars(slow))  # same field order
            assert repr(fast) == repr(slow)
            assert fast == slow and hash(fast) == hash(slow)

    def test_consecutive_rids_and_ordering(self):
        a = Request._trusted((0,), (2,), 5)
        b = Request._trusted((0,), (1,), 5)
        c = Request((0,), (1,), 4)
        assert b.rid == a.rid + 1
        assert c.rid == b.rid + 1
        assert sorted([b, c, a]) == [c, a, b]
        assert a != Request((0,), (2,), 5, rid=b.rid)


class TestPacket:
    def test_remaining_distance(self):
        r = Request((0, 0), (3, 2), 0)
        pkt = Packet(request=r, location=(1, 0), injected_at=0)
        assert pkt.remaining_distance() == 4

    def test_status_default(self):
        pkt = Packet(request=Request.line(0, 1, 0), location=(0,), injected_at=0)
        assert pkt.status == DeliveryStatus.INJECTED

    def test_rid_and_dest_proxies(self):
        r = Request.line(0, 3, 0, rid=42)
        pkt = Packet(request=r, location=(0,), injected_at=0)
        assert pkt.rid == 42 and pkt.dest == (3,)


class TestDeliveryStatus:
    def test_all_states_present(self):
        names = {s.name for s in DeliveryStatus}
        assert names == {
            "PENDING", "REJECTED", "INJECTED", "PREEMPTED", "DELIVERED", "LATE",
        }
