"""The two node-functionality models of Appendix F.

**Model 1** ([ARSU02, RR09]) -- adopted by the paper and by
:class:`~repro.network.simulator.Simulator`: in one step a node receives
``c`` packets per incoming link plus its ``B`` buffered packets plus local
inputs, and emits ``c`` per outgoing link plus ``B`` back to the buffer.
A packet can therefore *cut through*: arrive and be forwarded in the same
step without touching the buffer.

**Model 2** ([AKK09, AZ05]) -- two-phase nodes: phase 0 merges the (single,
``c = 1``) link arrival, the buffer contents and local inputs and keeps at
most ``B`` of them *in the buffer*; phase 1 transmits at most one buffered
packet.  Everything passing through a node must occupy a buffer slot, so a
node moves at most ``B`` packets per step (vs ``B + c`` in Model 1).

Appendix F remark 1: with ``B = c = 1``, Model 1 is strictly stronger -- a
node receiving one packet from its neighbour and one local injection keeps
both (store one, forward the other), while Model 2 must drop one.

Model 2 is selected through the ordinary engine machinery: a
:class:`Model2Policy` carries ``node_model = 2``, which
:func:`~repro.network.engine.make_engine` routes to
:class:`Model2LineSimulator` (the per-packet reference loop, with
tracing) or :class:`FastModel2Engine` (the two-phase rule as a decision
program of the Model 1 array loop) -- both implement the
:class:`~repro.network.engine.Engine` protocol and return bit-identical
:class:`~repro.network.simulator.SimulationResult` records.
"""

from __future__ import annotations

import numpy as np

from repro.network import kernel
from repro.network.engine import StepView, VectorDecision
from repro.network.fast_batch_engine import _run_stack
from repro.network.fast_engine import _priority_keys
from repro.network.packet import DeliveryStatus, Packet
from repro.network.simulator import SimulationResult
from repro.network.stats import NetworkStats
from repro.network.topology import LineNetwork
from repro.network.trace import TraceRecorder
from repro.util.errors import ValidationError


def ntg_priority(pkt: Packet):
    """Nearest-to-go ordering key: fewest remaining hops first."""
    return (pkt.remaining_distance(), pkt.request.arrival, pkt.rid)


#: scalar key functions matching the fast engine's ``_priority_keys``
#: orders tuple-for-tuple (every order ends in the unique ``rid``)
_MODEL2_KEYS = {
    "fifo": lambda pkt: (pkt.request.arrival, pkt.rid),
    "lifo": lambda pkt: (-pkt.request.arrival, -pkt.rid),
    "longest": lambda pkt: (-pkt.remaining_distance(),
                            pkt.request.arrival, pkt.rid),
    "ntg": ntg_priority,
}


class Model2Policy:
    """Priority choice under Model 2 node semantics.

    ``priority`` names the total order used both to pick which ``B``
    packets survive phase 0 and which single packet phase 1 transmits
    (``ntg`` -- the default -- ``fifo``, ``lifo`` or ``longest``); both
    Model 2 engines rank on it.  The ``node_model = 2`` marker is what
    routes :func:`~repro.network.engine.make_engine` to the Model 2
    engines.  It carries no Model 1 decision, so
    :class:`~repro.network.fast_engine.FastEngine` refuses it.
    """

    node_model = 2

    def __init__(self, priority: str = "ntg"):
        if priority not in _MODEL2_KEYS:
            raise ValidationError(
                f"unknown priority {priority!r}; choose from "
                f"{sorted(_MODEL2_KEYS)}"
            )
        self.priority = priority
        self.key = _MODEL2_KEYS[priority]


def model2_network_reason(network) -> str | None:
    """Why Model 2 cannot run on ``network`` (it needs a non-wrapping line
    with capacity 1 on every link), or ``None``: both engines' rule."""
    if network.d != 1:
        return "Model 2 is defined on lines (d = 1)"
    if network.any_wrap:
        return "Model 2 requires grid geometry (no wraparound axes)"
    if {network.capacity, *network.link_caps.values()} != {1}:
        return "Model 2 is defined for unit link capacity (c = 1 on every link)"
    return None


class Model2LineSimulator:
    """Model 2 dynamics on a uni-directional line with ``c = 1``.

    The reference implementation of the two-phase node semantics: a
    per-packet Python loop that optionally records a full event trace.
    Implements the :class:`~repro.network.engine.Engine` protocol --
    ``run`` returns a plain
    :class:`~repro.network.simulator.SimulationResult`, so consumers need
    no Model 2 special case.
    """

    def __init__(self, network: LineNetwork, policy: Model2Policy | None = None,
                 trace: bool = False):
        reason = model2_network_reason(network)
        if reason is not None:
            raise ValidationError(reason)
        self.network = network
        self.policy = policy if policy is not None else Model2Policy()
        self.trace = TraceRecorder(enabled=trace)

    def run(self, requests, horizon: int) -> SimulationResult:
        network, trace = self.network, self.trace
        key = self.policy.key
        B = network.buffer_size
        n = network.length
        stats = NetworkStats()
        requests = network.check_requests(requests)
        status = {r.rid: DeliveryStatus.PENDING for r in requests}
        arrivals: dict = {}
        for r in requests:
            arrivals.setdefault(r.arrival, []).append(r)

        buffers: list = [[] for _ in range(n)]
        link_in: list = [None] * n  # packet arriving at node i this step
        last_arrival = max(arrivals, default=-1)

        for t in range(horizon + 1):
            if (
                t > last_arrival
                and all(not b for b in buffers)
                and all(p is None for p in link_in)
            ):
                break
            stats.steps += 1
            new_link_in: list = [None] * n
            for x in range(n):
                node = (x,)
                candidates = list(buffers[x])
                if link_in[x] is not None:
                    pkt = link_in[x]
                    pkt.location = node
                    pkt.hops += 1
                    candidates.append(pkt)
                injected_now = set()
                for r in arrivals.get(t, ()):  # local inputs at this node
                    if r.source == node:
                        candidates.append(
                            Packet(request=r, location=node, injected_at=t))
                        injected_now.add(r.rid)

                # deliveries are free in both models
                remaining = []
                for pkt in candidates:
                    if pkt.dest == node:
                        on_time = (pkt.request.deadline is None
                                   or t <= pkt.request.deadline)
                        status[pkt.rid] = (
                            DeliveryStatus.DELIVERED if on_time
                            else DeliveryStatus.LATE
                        )
                        stats.delivery_times[pkt.rid] = t
                        stats.delivered += on_time
                        stats.late += not on_time
                        trace.record(t, "deliver" if on_time else "late",
                                     pkt.rid, node)
                    else:
                        remaining.append(pkt)

                # phase 0: keep at most B packets in the buffer
                remaining.sort(key=key)
                kept, dropped = remaining[:B], remaining[B:]
                for pkt in dropped:
                    if pkt.rid in injected_now:
                        status[pkt.rid] = DeliveryStatus.REJECTED
                        stats.rejected += 1
                        trace.record(t, "reject", pkt.rid, node)
                    else:
                        status[pkt.rid] = DeliveryStatus.PREEMPTED
                        stats.preempted += 1
                        trace.record(t, "drop", pkt.rid, node)
                for pkt in kept:
                    if status[pkt.rid] == DeliveryStatus.PENDING:
                        status[pkt.rid] = DeliveryStatus.INJECTED
                        trace.record(t, "inject", pkt.rid, node)

                # phase 1: transmit at most one buffered packet
                if kept and x + 1 < n:
                    out = min(kept, key=key)
                    kept.remove(out)
                    new_link_in[x + 1] = out
                    stats.forwards += 1
                    stats.max_link_load = 1
                    trace.record(t, "forward", out.rid, node, "axis=0")
                for pkt in kept:
                    stats.stores += 1
                    trace.record(t, "store", pkt.rid, node)
                buffers[x] = kept
                stats.max_buffer_load = max(stats.max_buffer_load, len(kept))
            link_in = new_link_in

        for rid, st in status.items():
            if st == DeliveryStatus.PENDING:
                status[rid] = DeliveryStatus.REJECTED
                stats.rejected += 1
            elif st == DeliveryStatus.INJECTED:
                status[rid] = DeliveryStatus.PREEMPTED
                stats.preempted += 1
        return SimulationResult(stats=stats, status=status, trace=trace,
                                engine="reference")


class _Model2Program:
    """Model 2's node rule as a decision program of the array loop.

    Per node, the candidates left after delivery are ranked under the
    policy's priority order.  Phase 0 keeps ranks ``< B``; of those,
    phase 1 transmits rank 0 along the line (an undelivered packet's
    destination lies ahead, so the edge exists) and ranks ``1..B-1``
    stay in the buffer.  The loop deletes the rest.
    """

    __slots__ = ("_priority",)

    def __init__(self, priority: str):
        self._priority = priority

    def decide_vector(self, view: StepView) -> VectorDecision:
        keys = _priority_keys(self._priority, view.arrival, view.rid,
                              view.remaining())
        rank = kernel.grouped_rank(view.node_id, keys)
        kept = rank < view.network.buffer_size
        return VectorDecision(forward=kept & (rank == 0),
                              axis=np.zeros(view.size, dtype=np.int64),
                              store=kept & (rank > 0))


class FastModel2Engine:
    """Model 2 on the array loop: bit-identical to :class:`Model2LineSimulator`.

    Runs :class:`_Model2Program` as a stack of one job on
    :func:`~repro.network.fast_batch_engine._run_stack`, the loop behind
    :class:`~repro.network.fast_engine.FastEngine`, which validates every
    decision and keeps the accounting (same ``status`` map, same
    :class:`~repro.network.stats.NetworkStats` counters, same delivery
    times as the reference).  Supports the named priority orders of
    :class:`Model2Policy`; construction raises
    :class:`~repro.util.errors.ValidationError` on unsupported policies,
    networks :func:`model2_network_reason` refuses or ``trace=True`` -- use
    :func:`~repro.network.engine.make_engine` for graceful fallback.
    """

    def __init__(self, network: LineNetwork, policy: Model2Policy | None = None,
                 trace: bool = False):
        if trace:
            raise ValidationError(
                "FastModel2Engine does not record traces; use the "
                "reference Model 2 engine"
            )
        reason = model2_network_reason(network)
        if reason is not None:
            raise ValidationError(reason)
        policy = policy if policy is not None else Model2Policy()
        if getattr(policy, "priority", None) not in _MODEL2_KEYS:
            raise ValidationError(
                f"policy {type(policy).__name__} is not supported by "
                f"FastModel2Engine (no priority in {sorted(_MODEL2_KEYS)})"
            )
        self.network = network
        self.policy = policy
        self.trace = TraceRecorder(enabled=False)

    @classmethod
    def supports(cls, policy, network) -> bool:
        """True when ``policy`` can run on the fast Model 2 engine."""
        return (
            getattr(policy, "node_model", 1) == 2
            and getattr(policy, "priority", None) in _MODEL2_KEYS
            and model2_network_reason(network) is None
        )

    def run(self, requests, horizon: int) -> SimulationResult:
        """Simulate ``requests`` for time steps ``0..horizon`` inclusive."""
        program = _Model2Program(self.policy.priority)
        return _run_stack([(self.network, program, requests, horizon)],
                          "fast")[0]


def separation_instance():
    """The Appendix F remark-1 instance separating the two models.

    Two requests on a 3-node line with ``B = c = 1``: one packet travelling
    ``0 -> 2`` injected at time 0, and one injected at node 1 at time 1 --
    exactly when the first packet arrives at node 1.  Model 1 keeps both
    (forward one, store the other); Model 2 must drop one.
    """
    from repro.network.packet import Request

    return LineNetwork(3, buffer_size=1, capacity=1), [
        Request.line(0, 2, 0, rid=0),
        Request.line(1, 2, 1, rid=1),
    ]
