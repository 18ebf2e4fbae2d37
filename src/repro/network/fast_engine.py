"""Array-backed fast engine: vectorized Model 1 semantics.

:class:`FastEngine` replays the exact step dynamics of
:class:`~repro.network.simulator.Simulator` (Section 2.1) but packs all
packet state into numpy arrays -- location, node id, arrival, deadline
-- and resolves each time step with grouped array operations instead of
per-packet Python dicts.  One step costs a handful of grouped sort and
scatter passes over the *live* packets (see :mod:`repro.network.kernel`
for which sort), so large grid workloads run one to two orders of
magnitude faster than the reference engine.  The loop itself
is the stacked one of :mod:`repro.network.fast_batch_engine`:
a fast-engine run is a stack of exactly one job.

Decisions come from the vectorized decision ABI of
:mod:`repro.network.engine`: once per step the engine builds a
:class:`~repro.network.engine.StepView` and asks the policy for a
:class:`~repro.network.engine.VectorDecision`.  The engine then enforces
``B``/``c`` (:class:`~repro.util.errors.CapacityError` on violation, like
the reference validator) and accounts the load counters, so policies only
choose packets.  Every policy runs:

* native :class:`~repro.network.engine.VectorPolicy` implementations
  (anything with ``decide_vector``) -- called directly;
* the greedy family -- any policy exposing a ``fast_priority`` attribute
  naming one of the built-in priority orders (``fifo``, ``lifo``,
  ``longest``, ``ntg``) -- ranked on that order's key tuple by
  :func:`greedy_masks`;
* :class:`~repro.network.simulator.PlanPolicy` replay -- the per-packet
  action table is compiled into a vector policy;
* any other scalar :class:`~repro.network.simulator.Policy` -- lifted by
  :class:`BatchedPolicyAdapter`, which groups the step view per node and
  makes one scalar ``decide`` call per node-step (not per packet).
  Adapter-lifted scalar policies run alone: they cannot join a stack of
  several jobs.

Tracing still needs the per-packet hooks of the reference engine;
:func:`~repro.network.engine.make_engine` falls back automatically.  Both
engines emit the same :class:`~repro.network.simulator.SimulationResult`:
identical ``status`` maps and identical
:class:`~repro.network.stats.NetworkStats` counters.  The built-in
priority orders are total (unique request id as final tie-break), so
parity is exact, not just statistical; custom policies keep that parity
exactly when their decisions are order-insensitive functions of the
candidate set (see the ABI contract in :mod:`repro.network.engine`).
"""

from __future__ import annotations

import numpy as np

from repro.network import kernel
from repro.network.engine import StepView, VectorDecision
from repro.network.packet import DeliveryStatus, Packet
from repro.network.simulator import (
    PlanPolicy,
    Policy,
    SimulationResult,
    validate_decision,
)
from repro.network.topology import Network
from repro.network.trace import TraceRecorder
from repro.util.errors import ValidationError

# integer status codes used inside the array loop
_PENDING, _REJECTED, _INJECTED, _PREEMPTED, _DELIVERED, _LATE = range(6)

_CODE_TO_STATUS = {
    _PENDING: DeliveryStatus.PENDING,
    _REJECTED: DeliveryStatus.REJECTED,
    _INJECTED: DeliveryStatus.INJECTED,
    _PREEMPTED: DeliveryStatus.PREEMPTED,
    _DELIVERED: DeliveryStatus.DELIVERED,
    _LATE: DeliveryStatus.LATE,
}


def _priority_keys(name: str, arrival, rid, remaining):
    """Sort keys (most significant first) matching the reference policies'
    Python tuples; every order ends in the unique ``rid`` so it is total."""
    if name == "fifo":
        return (arrival, rid)
    if name == "lifo":
        return (-arrival, -rid)
    if name == "longest":
        return (-remaining, arrival, rid)
    if name == "ntg":
        return (remaining, arrival, rid)
    raise ValidationError(f"unknown fast priority {name!r}")


def _finalize_result(stats, scode, rid, delivered_t, trace, engine="fast"):
    """Resolve end-of-horizon statuses and build the result record.

    Anything still pending was never handled (rejected); anything still
    in flight never reached its destination (preempted) -- the shared
    epilogue of the fast engines, mirroring the reference loops.
    ``engine`` labels the result (the stacked batch engine reuses this
    epilogue per scenario slice).
    """
    pending = scode == _PENDING
    stats.rejected += int(pending.sum())
    scode[pending] = _REJECTED
    in_flight = scode == _INJECTED
    stats.preempted += int(in_flight.sum())
    scode[in_flight] = _PREEMPTED

    status = dict(zip(rid.tolist(),
                      map(_CODE_TO_STATUS.__getitem__, scode.tolist())))
    delivered = delivered_t >= 0
    stats.delivery_times.update(zip(rid[delivered].tolist(),
                                    delivered_t[delivered].tolist()))
    return SimulationResult(stats=stats, status=status, trace=trace,
                            engine=engine)


def one_bend_axes(togo) -> np.ndarray:
    """The first unfinished axis of each row of ``togo`` (one-bend
    routing): ``np.argmax(togo > 0, axis=1)`` for rows not yet at their
    destination.  Up to two axes it reads the first column alone (0 left
    on axis 0 means axis 1): 5 us against 24 us for 2700 rows of two
    columns (numpy 2.4.6).
    """
    if togo.shape[1] <= 2:
        return (togo[:, 0] == 0).astype(np.int64)
    return np.argmax(togo > 0, axis=1)


def greedy_masks(view: StepView, keys) -> VectorDecision:
    """Greedy contention resolution under a total order: the decision of
    every greedy-family policy, parameterized by its key tuple.

    Per (node, axis) the top ``c`` packets under ``keys`` (most
    significant first; end in ``view.rid`` to make the order total) are
    forwarded -- 1-bend routing, the first unfinished axis, with ``c``
    read per edge so ``link_caps`` hotspots admit fewer -- and per
    node the top ``B`` leftovers are stored.  Public on purpose: custom
    vector policies (see :mod:`repro.baselines.edd`) build their key
    arrays and delegate the subtle mask construction here, so the
    bit-identity-critical logic exists once.  The ranking and admission
    themselves run in the step kernel
    (:func:`repro.network.kernel.admit`), which is how both the fast and
    the stacked batch engine share one hot loop.

    ``view.network`` may be a per-scenario :class:`Network` (scalar
    ``B``/``c``) or the stacked facade of the array loop, whose
    ``buffer_size`` and ``capacity`` may be *per-row* arrays -- the
    ranking is group-local either way, so the same masks come out row
    for row.
    """
    axis = one_bend_axes(view.togo)
    fwd_mask, store_mask = kernel.admit(
        view.node_id, axis, view.network.d, keys,
        view.network.buffer_size,
        view.network.edge_capacity(view.node_id, axis))
    return VectorDecision(forward=fwd_mask, axis=axis, store=store_mask)


class BatchedPolicyAdapter:
    """Lift any scalar :class:`Policy` onto the decision ABI.

    ``decide_vector`` groups the step view per node, re-materializes the
    candidate :class:`~repro.network.packet.Packet` records (rid-sorted,
    with exact ``location``/``hops``/``injected_at``), and makes one
    scalar ``decide`` call per node-step -- the per-packet Python loop of
    the reference engine collapses to a per-node one.  Each decision
    passes the reference engine's own check,
    :func:`~repro.network.simulator.validate_decision`, before it is
    scattered back into masks.

    Bit-identity with the reference engine holds for policies whose
    decisions are order-insensitive in the candidate list and do not key
    state on packet object identity (see :mod:`repro.network.engine`).
    """

    def __init__(self, policy: Policy, network: Network):
        self.policy = policy
        self.network = network

    def on_step_begin(self, t: int) -> None:
        self.policy.on_step_begin(t)

    def decide_vector(self, view: StepView) -> VectorDecision:
        network = self.network
        fwd_mask = np.zeros(view.size, dtype=bool)
        axis_arr = np.zeros(view.size, dtype=np.int64)
        store_mask = np.zeros(view.size, dtype=bool)
        hops = view.hops()

        order = np.lexsort((view.rid, view.node_id))
        gid = view.node_id[order]
        starts = np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]])
        bounds = np.append(starts, len(order))
        for s, e in zip(bounds[:-1], bounds[1:]):
            rows = order[s:e]
            node = tuple(int(x) for x in view.loc[rows[0]])
            row_of: dict = {}
            candidates = []
            for r in rows:
                pkt = Packet(request=view.requests[view.index[r]],
                             location=node, injected_at=int(view.arrival[r]),
                             hops=int(hops[r]))
                row_of[id(pkt)] = int(r)
                candidates.append(pkt)
            decision = self.policy.decide(node, view.t, candidates, network)
            validate_decision(network, node, candidates, decision)
            for axis, pkts in decision.forward.items():
                sent = [row_of[id(pkt)] for pkt in pkts]
                fwd_mask[sent] = True
                axis_arr[sent] = axis
            store_mask[[row_of[id(pkt)] for pkt in decision.store]] = True
        return VectorDecision(forward=fwd_mask, axis=axis_arr,
                              store=store_mask)


def _lift(policy) -> str | None:
    """Which decision program runs ``policy`` on the array loop.

    ``"plan"`` (compiled :class:`PlanPolicy` replay), ``"native"``
    (``decide_vector``), ``"greedy"`` (a named ``fast_priority``),
    ``"scalar"`` (any other ``decide``, lifted by
    :class:`BatchedPolicyAdapter`), or ``None`` -- checked in that order.
    """
    if isinstance(policy, PlanPolicy):
        return "plan"
    if callable(getattr(policy, "decide_vector", None)):
        return "native"
    if getattr(policy, "fast_priority", None) in \
            FastEngine.SUPPORTED_PRIORITIES:
        return "greedy"
    if callable(getattr(policy, "decide", None)):
        return "scalar"
    return None


class FastEngine:
    """Vectorized drop-in for :class:`~repro.network.simulator.Simulator`.

    A stack of one job on the array loop of
    :mod:`repro.network.fast_batch_engine`.  Construction raises
    :class:`~repro.util.errors.ValidationError` for unsupported policies
    or ``trace=True`` -- use :func:`~repro.network.engine.make_engine`
    for graceful fallback.
    """

    SUPPORTED_PRIORITIES = frozenset({"fifo", "lifo", "longest", "ntg"})

    def __init__(self, network: Network, policy, trace: bool = False):
        if trace:
            raise ValidationError(
                "FastEngine does not record traces; use the reference engine"
            )
        if _lift(policy) is None:
            raise ValidationError(
                f"policy {type(policy).__name__} is not supported by "
                f"FastEngine (needs decide_vector, a fast_priority in "
                f"{sorted(self.SUPPORTED_PRIORITIES)}, a scalar decide, "
                f"or a PlanPolicy)"
            )
        self.network = network
        self.policy = policy
        self.trace = TraceRecorder(enabled=False)

    @classmethod
    def supports(cls, policy) -> bool:
        """True when ``policy`` can run on the fast engine: plan replay,
        a native vector policy, a named greedy priority, or any scalar
        policy (lifted by the batched adapter).

        A policy that knowingly violates the ABI's order-insensitivity
        contract can set ``vectorize = False`` to keep the reference
        path even under a global ``REPRO_ENGINE=fast``.
        """
        if getattr(policy, "vectorize", True) is False:
            return False
        return _lift(policy) is not None

    def run(self, requests, horizon: int) -> SimulationResult:
        """Simulate ``requests`` for time steps ``0..horizon`` inclusive."""
        # imported here: the stacked loop's module imports this one
        from repro.network.fast_batch_engine import _run_stack

        return _run_stack([(self.network, self.policy, requests, horizon)],
                          "fast")[0]
