"""Tests for the synchronous simulator (Model 1 semantics, Section 2.1)."""

import pytest

from repro.network.fast_engine import FastEngine
from repro.network.packet import DeliveryStatus, Request
from repro.network.simulator import (
    Decision,
    PlanPolicy,
    Policy,
    Simulator,
    execute_plan,
    validate_decision,
)
from repro.network.topology import GridNetwork, LineNetwork
from repro.spacetime.graph import STPath
from repro.util.errors import CapacityError, ValidationError


class ForwardAll(Policy):
    """Forward everything possible, store the rest up to B."""

    def decide(self, node, t, candidates, network):
        decision = Decision()
        c = network.capacity
        by_axis = {}
        for pkt in candidates:
            for axis in range(network.d):
                if pkt.location[axis] < pkt.dest[axis]:
                    by_axis.setdefault(axis, []).append(pkt)
                    break
        leftovers = []
        for axis, pkts in by_axis.items():
            decision.forward[axis] = pkts[:c]
            leftovers.extend(pkts[c:])
        decision.store = leftovers[: network.buffer_size]
        return decision


class DropAll(Policy):
    def decide(self, node, t, candidates, network):
        return Decision()


class TestBasicDelivery:
    def test_single_packet_line(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        sim = Simulator(net, ForwardAll())
        res = sim.run([Request.line(0, 3, 0)], 10)
        assert res.throughput == 1
        assert res.stats.delivery_times[next(iter(res.delivered_ids()))] == 3

    def test_trivial_request_delivered_at_injection(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        sim = Simulator(net, DropAll())
        res = sim.run([Request.line(2, 2, 5, rid=1)], 10)
        assert res.status[1] == DeliveryStatus.DELIVERED
        assert res.stats.delivery_times[1] == 5

    def test_grid_delivery(self):
        net = GridNetwork((3, 3), buffer_size=1, capacity=1)
        sim = Simulator(net, ForwardAll())
        res = sim.run([Request((0, 0), (2, 2), 0)], 10)
        assert res.throughput == 1

    def test_drop_all_rejects(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        sim = Simulator(net, DropAll())
        res = sim.run([Request.line(0, 3, 0, rid=5)], 10)
        assert res.status[5] == DeliveryStatus.REJECTED
        assert res.stats.rejected == 1

    def test_deadline_late(self):
        net = LineNetwork(4, buffer_size=2, capacity=1)

        class BufferFirst(Policy):
            def decide(self, node, t, candidates, network):
                d = Decision()
                if t < 3:
                    d.store = candidates[: network.buffer_size]
                else:
                    d.forward[0] = candidates[: network.capacity]
                return d

        sim = Simulator(net, BufferFirst())
        res = sim.run([Request.line(0, 3, 0, deadline=3, rid=9)], 20)
        assert res.status[9] == DeliveryStatus.LATE
        assert res.stats.late == 1 and res.throughput == 0

    def test_late_delivery_recorded_in_delivery_times(self):
        """Latency metrics must see late packets too; only ``throughput``
        is restricted to on-time deliveries."""
        net = LineNetwork(6, buffer_size=4, capacity=1)
        # five packets contend for one link; the back of the queue is late
        reqs = [Request.line(0, 3, 0, deadline=4, rid=100 + i) for i in range(5)]
        sim = Simulator(net, ForwardAll())
        res = sim.run(reqs, 40)
        assert res.stats.late > 0 and res.stats.delivered > 0
        delivered_or_late = {
            rid for rid, st in res.status.items()
            if st in (DeliveryStatus.DELIVERED, DeliveryStatus.LATE)
        }
        assert set(res.stats.delivery_times) == delivered_or_late
        late_rids = [r for r, st in res.status.items()
                     if st == DeliveryStatus.LATE]
        for rid in late_rids:
            assert res.stats.delivery_times[rid] > 4  # past the deadline
        assert res.throughput == res.stats.delivered  # unchanged objective

    def test_early_termination(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        sim = Simulator(net, ForwardAll())
        res = sim.run([Request.line(0, 1, 0)], 1000)
        assert res.stats.steps < 10


class TestCapacityEnforcement:
    """Misbehaving policies are refused by the reference engine and, with
    the same error type and text, by the fast engine's scalar adapter."""

    @staticmethod
    def _refused_alike(net, policy, reqs, horizon, error):
        raised = []
        for engine in (Simulator, FastEngine):
            with pytest.raises(error) as info:
                engine(net, policy).run(reqs, horizon)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_link_capacity_violation_raises(self):
        net = LineNetwork(3, buffer_size=2, capacity=1)

        class Cheater(Policy):
            def decide(self, node, t, candidates, network):
                return Decision(forward={0: candidates})

        reqs = [Request.line(0, 2, 0, rid=i) for i in range(2)]
        self._refused_alike(net, Cheater(), reqs, 10, CapacityError)

    def test_buffer_capacity_violation_raises(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)

        class Hoarder(Policy):
            def decide(self, node, t, candidates, network):
                return Decision(store=list(candidates))

        reqs = [Request.line(0, 2, 0, rid=i) for i in range(3)]
        self._refused_alike(net, Hoarder(), reqs, 10, CapacityError)

    def test_foreign_packet_rejected(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        from repro.network.packet import Packet

        ghost = Packet(request=Request.line(0, 2, 0, rid=77), location=(0,), injected_at=0)

        class Forger(Policy):
            def decide(self, node, t, candidates, network):
                return Decision(forward={0: [ghost]})

        self._refused_alike(net, Forger(), [Request.line(0, 2, 0)], 5,
                            ValidationError)

    def test_double_scheduling_rejected(self):
        net = LineNetwork(3, buffer_size=1, capacity=2)

        class Duplicator(Policy):
            def decide(self, node, t, candidates, network):
                return Decision(forward={0: [candidates[0], candidates[0]]})

        self._refused_alike(net, Duplicator(), [Request.line(0, 2, 0)], 5,
                            ValidationError)

    def test_invalid_axis_rejected(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        # forwarding off the end of the line must be refused
        with pytest.raises(ValidationError):
            validate_decision(net, (2,), [],
                              Decision(forward={0: [object()]}))


class TestCutThrough:
    def test_model1_cut_through(self):
        """Model 1 (Appendix F): arrive and be forwarded in the same step
        while another packet is stored -- B = c = 1 keeps both."""
        net = LineNetwork(3, buffer_size=1, capacity=1)

        class Smart(Policy):
            def decide(self, node, t, candidates, network):
                d = Decision()
                pkts = sorted(candidates, key=lambda p: p.remaining_distance())
                d.forward[0] = pkts[:1]
                d.store = pkts[1:2]
                return d

        sim = Simulator(net, Smart())
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(1, 2, 1, rid=1)]
        res = sim.run(reqs, 10)
        assert res.throughput == 2


class TestPlanExecution:
    def test_plan_replay_delivers(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        # path: (0,0) -N-> (1,0) -buffer-> (1,1) -N-> (2,1) -N-> (3,1)
        path = STPath((0, 0), (0, 1, 0, 0), rid=3)
        reqs = [Request.line(0, 3, 0, rid=3)]
        res = execute_plan(net, {3: path}, reqs, 10)
        assert res.status[3] == DeliveryStatus.DELIVERED
        assert res.stats.delivery_times[3] == 4

    def test_truncated_plan_preempts(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        path = STPath((0, 0), (0, 0), rid=3)  # stops at node 2
        reqs = [Request.line(0, 3, 0, rid=3)]
        res = execute_plan(net, {3: path}, reqs, 10)
        assert res.status[3] == DeliveryStatus.PREEMPTED

    def test_no_plan_rejects(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 3, 0, rid=3)]
        res = execute_plan(net, {}, reqs, 10)
        assert res.status[3] == DeliveryStatus.REJECTED

    def test_conflicting_plans_raise(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        p0 = STPath((0, 0), (0, 0), rid=0)
        p1 = STPath((0, 0), (0, 0), rid=1)
        reqs = [Request.line(0, 2, 0, rid=0), Request.line(0, 2, 0, rid=1)]
        with pytest.raises(CapacityError):
            execute_plan(net, {0: p0, 1: p1}, reqs, 10)

    def test_plan_policy_action_table(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        path = STPath((1, 2), (1, 0), rid=7)  # starts at node 1, t = 3
        policy = PlanPolicy(net, {7: path})
        assert policy.actions[(7, 3)] == ("S",)
        assert policy.actions[(7, 4)] == ("F", 0)


class TestTrace:
    def test_trace_records_lifecycle(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        sim = Simulator(net, ForwardAll(), trace=True)
        res = sim.run([Request.line(0, 2, 0, rid=4)], 10)
        kinds = [e.kind for e in res.trace.for_request(4)]
        assert kinds[0] == "inject" and kinds[-1] == "deliver"
        assert "forward" in kinds
