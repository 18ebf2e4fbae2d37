"""Tests for repro.network.packet: requests, packets, statuses."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.network.packet import (
    NO_DEADLINE,
    DeliveryStatus,
    Packet,
    Request,
    RequestTable,
    reserve_rids,
)
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


def fields(requests) -> list:
    return [(r.source, r.dest, r.arrival, r.deadline, r.rid)
            for r in requests]


def grid_table(n=6) -> RequestTable:
    """``n`` requests on a 2-d grid, every other one with a deadline."""
    source = np.array([[i, i % 3] for i in range(n)])
    deadline = [NO_DEADLINE if i % 2 else 20 + i for i in range(n)]
    return RequestTable(source, source + [1, 2], np.arange(n) % 4, deadline,
                        reserve_rids(n))


class TestRequestTable:
    """Requests as int64 columns; the objects are built on first use, by
    ``Request._trusted`` with the column's rids."""

    def test_len_and_iteration(self):
        table = grid_table()
        assert len(table) == 6
        requests = list(table)
        first = int(table.rid[0])
        assert fields(requests) == [
            ((i, i % 3), (i + 1, i % 3 + 2), i % 4,
             None if i % 2 else 20 + i, first + i) for i in range(6)]
        assert all(type(x) is int for r in requests
                   for x in (*r.source, *r.dest, r.arrival, r.rid))

    def test_index(self):
        table = grid_table()
        requests = list(table)
        assert table[0] is requests[0] and table[-1] is requests[-1]
        assert table[np.int64(2)] is requests[2]
        with pytest.raises(IndexError):
            table[6]

    def test_slice_is_a_table(self):
        table = grid_table()
        part = table[1:5:2]
        assert isinstance(part, RequestTable) and len(part) == 2
        assert fields(part) == fields(list(table)[1:5:2])
        assert len(table[3:3]) == 0 and list(table[3:3]) == []

    def test_add_with_a_list(self):
        # as congestion_mix_instance concatenates its parts
        table = grid_table(3)
        extra = [Request.line(0, 1, 0)]
        assert fields(extra + table) == fields(extra) + fields(table)
        assert fields(table + extra) == fields(table) + fields(extra)
        assert isinstance(extra + table, list)

    def test_repeated_materialization(self):
        table = grid_table()
        again = RequestTable(*table.columns())
        assert list(table) == list(table) == list(again)
        assert fields(table) == fields(again)
        assert [repr(r) for r in table] == [repr(r) for r in again]

    def test_next_request_takes_the_next_rid(self):
        table = grid_table()
        after = Request.line(0, 1, 0)
        assert after.rid == int(table.rid[-1]) + 1
        list(table)  # materializing takes no rid
        assert Request.line(0, 1, 0).rid == after.rid + 1

    def test_from_requests(self):
        requests = [Request((0, 1), (2, 3), 4), Request((1, 1), (1, 2), 0, 9)]
        table = RequestTable.from_requests(requests)
        assert table[0] is requests[0] and table[1] is requests[1]
        assert table.source.tolist() == [[0, 1], [1, 1]]
        assert table.deadline.tolist() == [NO_DEADLINE, 9]
        assert table.rid.tolist() == [r.rid for r in requests]
        assert RequestTable.from_requests(table) is table
        assert len(RequestTable.from_requests([])) == 0
        with pytest.raises(ValidationError, match="mix"):
            RequestTable.from_requests([Request.line(0, 1, 0), *requests])

    def test_immutable(self):
        table = grid_table()
        with pytest.raises(ValueError):
            table.arrival[0] = 5
        with pytest.raises(AttributeError):
            table.arrival = table.arrival + 1

    def test_pickle_and_copy(self):
        table = grid_table()
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert isinstance(twin, RequestTable)
            assert fields(twin) == fields(table)

    def test_shapes_checked(self):
        with pytest.raises(ValidationError, match="source"):
            RequestTable([0, 1], [[1], [2]], [0, 0], [0, 0], [0, 1])
        with pytest.raises(ValidationError, match="rid"):
            RequestTable([[0]], [[1]], [0], [0], [0, 1])


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
