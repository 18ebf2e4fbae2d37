"""The synchronous store-and-forward simulator (Model 1 node semantics).

Section 2.1: in each time step every node considers (i) packets arriving on
incoming links (sent by neighbours one step earlier), (ii) packets stored in
its buffer, and (iii) locally injected packets.  Packets destined to the
node are removed (delivered; credited when on time).  The node then forwards
at most ``c`` packets per outgoing link, stores at most ``B``, and deletes
the rest.  This is node Model 1 of Appendix F ([ARSU02, RR09]), the model
the paper adopts.

Two front ends:

* **policy-driven** -- an online :class:`Policy` object makes the per-node,
  per-step decision (used by the greedy and nearest-to-go baselines);
* **plan-driven** (:func:`execute_plan`) -- packets follow precomputed
  space-time paths (used by the paper's centralized algorithms); the engine
  then doubles as a feasibility checker: any capacity violation raises
  :class:`~repro.util.errors.CapacityError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.packet import DeliveryStatus, Packet, Request
from repro.network.stats import NetworkStats
from repro.network.topology import Network
from repro.network.trace import TraceRecorder
from repro.spacetime.coords import tilt
from repro.util.errors import CapacityError, ValidationError


@dataclass
class Decision:
    """A node's choice for one time step.

    ``forward[axis]`` lists packets sent on the outgoing link along
    ``axis``; ``store`` lists packets kept in the buffer.  Every candidate
    packet not mentioned is deleted (rejected when it was injected this
    step, preempted otherwise).
    """

    forward: dict = field(default_factory=dict)  # axis -> [Packet]
    store: list = field(default_factory=list)


class Policy:
    """Interface for online per-step routing policies."""

    def decide(self, node: tuple, t: int, candidates: list, network: Network) -> Decision:
        raise NotImplementedError

    def on_step_begin(self, t: int) -> None:
        """Hook called once per time step (e.g. for global coordination)."""


@dataclass
class SimulationResult:
    """Outcome of a run: per-request statuses plus aggregate stats.

    ``engine`` names the implementation that actually produced the result
    (``"reference"`` or ``"fast"``) -- the ground truth for reporting,
    since :func:`~repro.network.engine.make_engine` may fall back.
    """

    stats: NetworkStats
    status: dict  # rid -> DeliveryStatus
    trace: TraceRecorder
    engine: str = "reference"

    @property
    def throughput(self) -> int:
        return self.stats.throughput

    def delivered_ids(self) -> set:
        return {
            rid for rid, st in self.status.items() if st == DeliveryStatus.DELIVERED
        }


def validate_decision(network: Network, node: tuple, candidates: list,
                      decision: Decision) -> None:
    """Check one node's :class:`Decision` against the model.

    Raises :class:`~repro.util.errors.CapacityError` when a link carries
    more than its ``c`` or the buffer more than ``B`` packets, and
    :class:`~repro.util.errors.ValidationError` for a forward along a
    missing edge, a packet that is not a candidate, or a packet scheduled
    twice.  The reference engine and the fast engine's scalar adapter
    both call it, so both raise the same errors.
    """
    cand_ids = {id(p) for p in candidates}
    seen: set = set()
    for axis, pkts in decision.forward.items():
        c = network.capacity_of(node, axis) if 0 <= axis < network.d \
            else network.capacity
        if len(pkts) > c:
            raise CapacityError(
                f"node {node} forwards {len(pkts)} > c={c} on axis {axis}"
            )
        head_ok = 0 <= axis < network.d and network.has_edge(node, axis)
        if pkts and not head_ok:
            raise ValidationError(f"node {node} has no outgoing axis {axis}")
        for pkt in pkts:
            if id(pkt) not in cand_ids:
                raise ValidationError(f"decision forwards foreign packet {pkt.rid}")
            if id(pkt) in seen:
                raise ValidationError(f"packet {pkt.rid} scheduled twice")
            seen.add(id(pkt))
    B = network.buffer_size
    if len(decision.store) > B:
        raise CapacityError(
            f"node {node} stores {len(decision.store)} > B={B}"
        )
    for pkt in decision.store:
        if id(pkt) not in cand_ids:
            raise ValidationError(f"decision stores foreign packet {pkt.rid}")
        if id(pkt) in seen:
            raise ValidationError(f"packet {pkt.rid} scheduled twice")
        seen.add(id(pkt))


class Simulator:
    """Synchronous engine over a :class:`~repro.network.topology.Network`."""

    def __init__(self, network: Network, policy: Policy, trace: bool = False):
        self.network = network
        self.policy = policy
        self.trace = TraceRecorder(enabled=trace)

    def run(self, requests, horizon: int) -> SimulationResult:
        """Simulate ``requests`` for time steps ``0..horizon`` inclusive."""
        network, policy, trace = self.network, self.policy, self.trace
        stats = NetworkStats()
        status: dict = {}

        arrivals_by_time: dict = {}
        for r in network.check_requests(requests):
            status[r.rid] = DeliveryStatus.PENDING
            arrivals_by_time.setdefault(r.arrival, []).append(r)

        buffers: dict = {}  # node -> [Packet]
        in_flight: list = []  # packets arriving next step: (node, Packet)

        last_arrival = max(arrivals_by_time, default=-1)
        for t in range(0, horizon + 1):
            if not in_flight and not buffers and t > last_arrival:
                break
            stats.steps += 1
            policy.on_step_begin(t)

            # gather per-node candidates
            at_node: dict = {}
            for node, pkt in in_flight:
                pkt.location = node
                pkt.hops += 1
                at_node.setdefault(node, []).append(pkt)
            in_flight = []
            for node, pkts in buffers.items():
                at_node.setdefault(node, []).extend(pkts)
            buffers = {}
            injected_now: set = set()
            for r in arrivals_by_time.get(t, ()):  # local inputs
                pkt = Packet(request=r, location=r.source, injected_at=t)
                injected_now.add(r.rid)
                at_node.setdefault(r.source, []).append(pkt)

            new_buffers: dict = {}
            for node, candidates in at_node.items():
                # deliveries first (Section 2.1: packets destined to v are
                # removed from the network)
                remaining = []
                for pkt in candidates:
                    if pkt.dest == node:
                        on_time = (
                            pkt.request.deadline is None
                            or t <= pkt.request.deadline
                        )
                        pkt.status = (
                            DeliveryStatus.DELIVERED if on_time else DeliveryStatus.LATE
                        )
                        pkt.delivered_at = t
                        status[pkt.rid] = pkt.status
                        stats.delivery_times[pkt.rid] = t
                        if on_time:
                            stats.delivered += 1
                            trace.record(t, "deliver", pkt.rid, node)
                        else:
                            stats.late += 1
                            trace.record(t, "late", pkt.rid, node)
                    else:
                        remaining.append(pkt)
                if not remaining:
                    continue

                decision = policy.decide(node, t, remaining, network)
                validate_decision(network, node, remaining, decision)

                handled = set()
                for axis, pkts in decision.forward.items():
                    stats.max_link_load = max(stats.max_link_load, len(pkts))
                    head = list(node)
                    head[axis] = (head[axis] + 1) % network.dims[axis] \
                        if network.wrap[axis] else head[axis] + 1
                    head = tuple(head)
                    for pkt in pkts:
                        handled.add(id(pkt))
                        if status[pkt.rid] == DeliveryStatus.PENDING:
                            status[pkt.rid] = DeliveryStatus.INJECTED
                            trace.record(t, "inject", pkt.rid, node)
                        in_flight.append((head, pkt))
                        stats.forwards += 1
                        trace.record(t, "forward", pkt.rid, node, f"axis={axis}")
                stats.max_buffer_load = max(stats.max_buffer_load, len(decision.store))
                for pkt in decision.store:
                    handled.add(id(pkt))
                    if status[pkt.rid] == DeliveryStatus.PENDING:
                        status[pkt.rid] = DeliveryStatus.INJECTED
                        trace.record(t, "inject", pkt.rid, node)
                    new_buffers.setdefault(node, []).append(pkt)
                    stats.stores += 1
                    trace.record(t, "store", pkt.rid, node)

                for pkt in remaining:  # everything unhandled is deleted
                    if id(pkt) in handled:
                        continue
                    if pkt.rid in injected_now and status[pkt.rid] == DeliveryStatus.PENDING:
                        pkt.status = DeliveryStatus.REJECTED
                        status[pkt.rid] = DeliveryStatus.REJECTED
                        stats.rejected += 1
                        trace.record(t, "reject", pkt.rid, node)
                    else:
                        pkt.status = DeliveryStatus.PREEMPTED
                        status[pkt.rid] = DeliveryStatus.PREEMPTED
                        stats.preempted += 1
                        trace.record(t, "drop", pkt.rid, node)
            buffers = new_buffers

        # anything still pending after the horizon was never handled
        for rid, st in status.items():
            if st == DeliveryStatus.PENDING:
                status[rid] = DeliveryStatus.REJECTED
                stats.rejected += 1
            elif st == DeliveryStatus.INJECTED:
                status[rid] = DeliveryStatus.PREEMPTED
                stats.preempted += 1
        return SimulationResult(stats=stats, status=status, trace=self.trace,
                                engine="reference")

class PlanPolicy(Policy):
    """Policy that replays precomputed space-time paths.

    ``plans`` maps request id to an :class:`~repro.spacetime.graph.STPath`
    in *untilted* coordinates; requests without a plan are rejected at
    injection.  The per-step action of each packet is precomputed into a
    ``(rid, t) -> action`` table, so ``decide`` is a dictionary lookup.
    """

    def __init__(self, network: Network, plans: dict):
        self.network = network
        d = network.d
        self.actions: dict = {}  # (rid, t) -> ("F", axis) | ("S",)
        for rid, path in plans.items():
            v = path.start
            t = sum(v[:-1]) + v[-1]
            for move in path.moves:
                if move == d:
                    self.actions[(rid, t)] = ("S",)
                else:
                    self.actions[(rid, t)] = ("F", move)
                t += 1

    def decide(self, node, t, candidates, network) -> Decision:
        decision = Decision()
        for pkt in candidates:
            action = self.actions.get((pkt.rid, t))
            if action is None:
                continue  # no plan here: packet is deleted by the engine
            if action[0] == "S":
                decision.store.append(pkt)
            else:
                decision.forward.setdefault(action[1], []).append(pkt)
        return decision


def execute_plan(network: Network, plans: dict, requests, horizon: int,
                 trace: bool = False, engine: str | None = None) -> SimulationResult:
    """Run precomputed space-time paths through the engine.

    The engine enforces ``B``/``c``, so an infeasible plan raises
    :class:`~repro.util.errors.CapacityError` -- this is the cross-check
    between the planners' numpy ledgers and the step semantics.  ``engine``
    selects the implementation (see :mod:`repro.network.engine`); the
    default honours ``REPRO_ENGINE``.
    """
    from repro.network.engine import make_engine  # avoid an import cycle

    sim = make_engine(network, PlanPolicy(network, plans), engine=engine,
                      trace=trace)
    return sim.run(requests, horizon)
