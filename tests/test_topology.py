"""Tests for repro.network.topology: grids, indexing, paper parameters."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.packet import Request
from repro.network.topology import Edge, GridNetwork, LineNetwork, Network
from repro.util.errors import ValidationError


class TestConstruction:
    def test_line_dims(self):
        net = LineNetwork(10, buffer_size=2, capacity=3)
        assert net.dims == (10,) and net.n == 10 and net.d == 1
        assert net.buffer_size == 2 and net.capacity == 3

    def test_grid_dims(self):
        net = GridNetwork((3, 4), buffer_size=1, capacity=1)
        assert net.n == 12 and net.d == 2

    def test_rejects_zero_dim(self):
        with pytest.raises(ValidationError):
            GridNetwork((0, 4), 1, 1)

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValidationError):
            LineNetwork(4, buffer_size=-1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError):
            LineNetwork(4, capacity=0)

    def test_bufferless_allowed(self):
        assert LineNetwork(4, buffer_size=0).buffer_size == 0


class TestGeometry:
    def test_diameter_line(self):
        assert LineNetwork(10).diameter == 9

    def test_diameter_grid(self):
        assert GridNetwork((3, 5)).diameter == 2 + 4

    def test_nodes_count(self):
        net = GridNetwork((3, 4))
        assert len(list(net.nodes())) == 12

    def test_edges_count_line(self):
        net = LineNetwork(6)
        assert net.num_edges() == 5
        assert len(list(net.edges())) == 5

    def test_edges_count_grid(self):
        net = GridNetwork((3, 4))
        expected = 2 * 4 + 3 * 3  # horizontal + vertical
        assert net.num_edges() == expected
        assert len(list(net.edges())) == expected

    def test_edge_head(self):
        e = Edge((1, 2), axis=1)
        assert e.head == (1, 3)

    def test_dist(self):
        net = GridNetwork((5, 5))
        assert net.dist((1, 1), (3, 4)) == 5

    def test_dist_rejects_backward(self):
        net = GridNetwork((5, 5))
        with pytest.raises(ValidationError):
            net.dist((3, 1), (1, 4))

    def test_out_neighbors_interior(self):
        net = GridNetwork((3, 3))
        assert sorted(net.out_neighbors((1, 1))) == [(0, (2, 1)), (1, (1, 2))]

    def test_out_neighbors_corner(self):
        net = GridNetwork((3, 3))
        assert list(net.out_neighbors((2, 2))) == []

    def test_contains(self):
        net = GridNetwork((3, 3))
        assert net.contains((2, 2)) and not net.contains((3, 0))
        assert not net.contains((0,))


class TestIndexing:
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(0, 4))
    def test_roundtrip_3d(self, x, y, z):
        net = GridNetwork((3, 4, 5))
        idx = net.node_index((x, y, z))
        assert net.node_from_index(idx) == (x, y, z)

    def test_indices_distinct(self):
        net = GridNetwork((4, 7))
        indices = {net.node_index(n) for n in net.nodes()}
        assert len(indices) == net.n
        assert min(indices) == 0 and max(indices) == net.n - 1


class TestRequestChecks:
    def test_check_request_ok(self):
        net = LineNetwork(8)
        net.check_request(Request.line(0, 7, 0))

    def test_check_request_outside(self):
        net = LineNetwork(8)
        with pytest.raises(ValidationError):
            net.check_request(Request.line(0, 8, 0))

    def test_check_request_wrong_dim(self):
        net = GridNetwork((4, 4))
        with pytest.raises(ValidationError):
            net.check_request(Request.line(0, 3, 0))


class TestPaperParameters:
    def test_pmax_line_formula(self):
        # Section 3.6.1 remark (1): p_max = 2n (1 + n (B/c + 1))
        net = LineNetwork(16, buffer_size=3, capacity=3)
        assert net.pmax() == math.ceil(2 * 16 * (1 + 16 * (3 / 3 + 1)))

    def test_pmax_grid_formula(self):
        net = GridNetwork((4, 4), buffer_size=3, capacity=3)
        expected = math.ceil(2 * net.diameter * (1 + 16 * (1 + 2)))
        assert net.pmax() == expected

    def test_pmax_at_least_one_on_a_point_grid(self):
        # diameter 0 zeroes the grid formula; a path with no edges is legal
        assert GridNetwork((1, 1), buffer_size=2, capacity=2).pmax() == 1
        assert GridNetwork((1, 1, 1)).pmax() == 1

    def test_tile_side_log(self):
        net = LineNetwork(16, buffer_size=3, capacity=3)
        k = net.tile_side_k()
        assert k == math.ceil(math.log2(1 + 3 * net.pmax()))

    def test_tile_side_monotone_in_n(self):
        ks = [LineNetwork(n, 3, 3).tile_side_k() for n in (8, 64, 512)]
        assert ks == sorted(ks)

    def test_pmax_grows_with_buffer(self):
        small = LineNetwork(16, buffer_size=1, capacity=1).pmax()
        large = LineNetwork(16, buffer_size=8, capacity=1).pmax()
        assert large > small

    def test_base_network_class(self):
        net = Network((5,), 1, 1)
        assert net.n == 5

    def test_repr(self):
        assert "B=3" in repr(LineNetwork(4, 3, 2)) and "c=2" in repr(LineNetwork(4, 3, 2))
