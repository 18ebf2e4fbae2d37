"""Special-case deterministic routers (Section 6).

* :class:`BufferlessLineRouter` -- ``B = 0`` on a line: the space-time
  graph decomposes into independent diagonals, each request is an interval
  on its diagonal, and online preemptive interval packing is *optimal*
  per diagonal -- this is exactly the nearest-to-go policy, Proposition 12.
* :class:`LargeCapacityRouter` -- Theorem 13 (``B, c >= k``): scale the
  capacities down by ``k``, run IPP directly on the space-time graph, and
  the ``(2, k)``-competitive packing for the scaled capacities is an
  ``(O(k), 1)``-packing for the true ones.  Packets are rejected or routed,
  never preempted.  The packing is det2's
  (:class:`~repro.core.deterministic.frontier.ImprovedDeterministicRouter`)
  on the scaled capacities, with saturated edges left visible.
"""

from __future__ import annotations

from repro.core.base import Plan, RouteOutcome, Router
from repro.core.deterministic.frontier import (
    ImprovedDeterministicRouter,
    ResidualSpaceTimeDigraph,
)
from repro.network.topology import LineNetwork, Network
from repro.packing.interval import Interval, OnlineIntervalPacker
from repro.packing.ipp import OnlinePathPacking
from repro.spacetime.graph import STPath, SpaceTimeGraph
from repro.util.errors import ValidationError


class BufferlessLineRouter(Router):
    """Nearest-to-go as an optimal planner for ``B = 0`` lines.

    With no buffers a packet injected at ``(a, t)`` must move every step:
    its only possible path is the diagonal ``(a, t) -> (b, t + b - a)``,
    i.e. the interval ``(a, b)`` on the line with untilted column
    ``t - a``.  Per column the instance is interval packing; the online
    preemptive GLL82 rule is optimal (Proposition 12).  Capacity ``c > 1``
    is handled with ``c`` independent channels per column.
    """

    def __init__(self, network: LineNetwork, horizon: int):
        if network.buffer_size != 0:
            raise ValidationError("BufferlessLineRouter requires B = 0")
        if network.d != 1:
            raise ValidationError("BufferlessLineRouter is for lines")
        self.network = network
        self.horizon = int(horizon)
        # (column, channel) -> packer
        self.packers: dict = {}
        self.assignment: dict = {}  # rid -> (column, channel, Interval)

    def _packer(self, col: int, channel: int) -> OnlineIntervalPacker:
        key = (col, channel)
        packer = self.packers.get(key)
        if packer is None:
            packer = self.packers[key] = OnlineIntervalPacker(key)
        return packer

    def route(self, requests) -> Plan:
        plan = Plan()
        n = self.network.length
        for r in self.arrival_order(requests):
            a, b, t = r.source[0], r.dest[0], r.arrival
            arrive_at = t + (b - a)
            if r.is_trivial():
                plan.record(r.rid, RouteOutcome.DELIVERED,
                            STPath((a, t - a), (), rid=r.rid))
                continue
            if arrive_at > self.horizon or (
                r.deadline is not None and arrive_at > r.deadline
            ):
                plan.record(r.rid, RouteOutcome.REJECTED)
                continue
            col = t - a
            iv = Interval(a, b, owner=r.rid)
            routed = False
            # prefer a conflict-free channel; preempt only when forced
            channels = sorted(
                range(self.network.min_capacity),
                key=lambda ch: bool(self._packer(col, ch).conflicting(iv)),
            )
            for channel in channels:
                packer = self._packer(col, channel)
                if not packer.would_accept(iv):
                    continue
                accepted, victims = packer.offer(iv)
                assert accepted
                for victim in victims:
                    # preempted packet is dropped where the new one starts
                    vcol, vch, viv = self.assignment[victim.owner]
                    cut = max(iv.lo, victim.lo) - victim.lo
                    prefix = (
                        Interval(victim.lo, victim.lo + cut, owner=victim.owner)
                        if cut > 0
                        else None
                    )
                    if prefix is not None:
                        packer.insert_raw(prefix)
                    plan.record(
                        victim.owner,
                        RouteOutcome.PREEMPTED,
                        STPath((victim.lo, vcol), (0,) * cut, rid=victim.owner),
                    )
                self.assignment[r.rid] = (col, channel, iv)
                plan.record(
                    r.rid,
                    RouteOutcome.DELIVERED,
                    STPath((a, col), (0,) * (b - a), rid=r.rid),
                )
                routed = True
                break
            if not routed:
                plan.record(r.rid, RouteOutcome.REJECTED)
        plan.meta["algorithm"] = "bufferless-ntg"
        return plan


class LargeCapacityRouter(ImprovedDeterministicRouter):
    """Theorem 13: ``O(log n)``-competitive routing for large ``B`` and
    ``c`` via online path packing on the space-time graph with capacities
    scaled down by the tile side ``k``.  Non-preemptive.

    det2's router on a digraph whose every axis edge carries
    ``min_capacity // k`` and every buffer edge ``B // k``.  Its ``flow`` is
    left unbound, so only zero-capacity edges are hidden: loads may pass
    the scaled capacities, up to Theorem 1's ``log2(1 + 3 p_max)`` factor.
    """

    def __init__(self, network: Network, horizon: int, k: int | None = None,
                 pmax: int | None = None, strict: bool = True):
        self.network = network
        self.graph = SpaceTimeGraph(network, horizon)
        self.pmax = network.pmax() if pmax is None else int(pmax)
        self.k = network.tile_side_k(self.pmax) if k is None else int(k)
        B, c = network.buffer_size, network.min_capacity
        if strict and (B < self.k or c < self.k):
            raise ValidationError(
                f"Theorem 13 requires B, c >= k = {self.k}; got B={B}, c={c}"
            )
        self.digraph = ResidualSpaceTimeDigraph(
            self.graph, caps=(c // self.k,) * network.d + (B // self.k,))
        self.ipp = OnlinePathPacking(
            self.digraph, pmax=self.pmax,
            oracle=ResidualSpaceTimeDigraph.lightest_path)
        self.digraph.x = self.ipp.x

    def meta(self) -> dict:
        return dict(super().meta(), algorithm="theorem13-large-capacity",
                    k=self.k)


# -- registry entries -------------------------------------------------------

from repro.api.registry import planner_adapter, register_algorithm  # noqa: E402
from repro.network.topology import grid_geometry_reason  # noqa: E402


def _bufferless_requires(network, horizon) -> str | None:
    if network.d != 1:
        return "targets lines (d = 1)"
    reason = grid_geometry_reason(network)
    if reason:
        return reason
    if network.buffer_size != 0:
        return "requires B = 0 (bufferless)"
    return None


def _theorem13_requires(network, horizon) -> str | None:
    reason = grid_geometry_reason(network)
    if reason:
        return reason
    # the minimum edge capacity is the binding constraint
    B, c = network.buffer_size, network.min_capacity
    k = network.tile_side_k()
    if B < k or c < k:
        return f"Theorem 13 requires B, c >= k = {k}"
    return None


register_algorithm(
    "bufferless",
    description="optimal planner for B = 0 lines via per-diagonal online "
    "interval packing (Proposition 12)",
    requires=_bufferless_requires,
    fast_engine="plan",
)(planner_adapter(BufferlessLineRouter, "bufferless"))

register_algorithm(
    "theorem13",
    description="Theorem 13: IPP on the space-time graph with capacities "
    "scaled by the tile side k (needs B, c >= k)",
    requires=_theorem13_requires,
    fast_engine="plan",
)(planner_adapter(LargeCapacityRouter, "theorem13"))
