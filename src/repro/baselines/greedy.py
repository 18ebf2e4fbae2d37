"""The greedy algorithm ([AKOR03]; Table 1 rows for greedy policies).

Greedy injects a packet whenever it can be stored or forwarded and always
forwards up to ``c`` packets per link.  The priority among contending
packets is a parameter (the lower bounds hold for any greedy priority):

* ``"fifo"`` -- oldest injection first (default);
* ``"lifo"`` -- newest first;
* ``"longest"`` -- farthest-to-go first (the most pessimistic choice on
  the clogging instances).

Packets travel dimension by dimension (1-bend routing on grids, the
scheme analysed by [AKK09]).
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.network.engine import make_engine
from repro.network.packet import Packet
from repro.network.simulator import Decision, Policy, SimulationResult
from repro.network.topology import Network
from repro.util.errors import ValidationError


def one_bend_axis(pkt: Packet, network: Network | None = None) -> int:
    """First axis on which the packet still has distance to cover
    (dimension-order / 1-bend routing).

    Pass the network on wrapping topologies, where an axis is unfinished
    whenever the coordinates differ (the forward cycle always reaches).
    """
    wrap = network.wrap if network is not None else None
    for axis, (x, dx) in enumerate(zip(pkt.location, pkt.request.dest)):
        if x < dx or (wrap is not None and wrap[axis] and x != dx):
            return axis
    raise ValidationError(f"packet {pkt.rid} already at destination")


def greedy_decision(node, candidates, network: Network, key) -> Decision:
    """The greedy-family decision under the total order ``key``.

    Per outgoing axis (1-bend routing) the ``c`` best packets under
    ``key`` are forwarded, and the node stores the ``B`` best leftovers:
    the scalar twin of :func:`~repro.network.fast_engine.greedy_masks`.
    """
    by_axis: dict = {}
    for pkt in candidates:
        by_axis.setdefault(one_bend_axis(pkt, network), []).append(pkt)
    decision = Decision()
    leftovers: list = []
    for axis, pkts in by_axis.items():
        c = network.capacity_of(node, axis)
        pkts.sort(key=key)
        decision.forward[axis] = pkts[:c]
        leftovers.extend(pkts[c:])
    leftovers.sort(key=key)
    decision.store = leftovers[:network.buffer_size]
    return decision


_PRIORITIES = {
    "fifo": lambda pkt, network: (pkt.request.arrival, pkt.rid),
    "lifo": lambda pkt, network: (-pkt.request.arrival, -pkt.rid),
    "longest": lambda pkt, network: (-pkt.remaining_distance(network),
                                     pkt.request.arrival, pkt.rid),
}


class GreedyPolicy(Policy):
    """Work-conserving greedy forwarding with a pluggable priority.

    ``fast_priority`` names the equivalent vectorized order of
    :class:`~repro.network.fast_engine.FastEngine`, which replays this
    policy bit-identically.
    """

    def __init__(self, priority: str = "fifo"):
        if priority not in _PRIORITIES:
            raise ValidationError(
                f"unknown priority {priority!r}; choose from {sorted(_PRIORITIES)}"
            )
        self.priority = priority
        self.fast_priority = priority
        self._key = _PRIORITIES[priority]

    def decide(self, node, t, candidates, network: Network) -> Decision:
        return greedy_decision(node, candidates, network,
                               lambda pkt: self._key(pkt, network))


def run_greedy(network: Network, requests, horizon: int,
               priority: str = "fifo", trace: bool = False,
               engine: str | None = None) -> SimulationResult:
    """Simulate the greedy algorithm on ``requests``.

    ``engine`` picks the implementation (see :mod:`repro.network.engine`);
    the default honours the ``REPRO_ENGINE`` environment variable.
    """
    sim = make_engine(network, GreedyPolicy(priority), engine=engine,
                      trace=trace)
    return sim.run(requests, horizon)


@register_algorithm(
    "greedy",
    description="work-conserving greedy forwarding ([AKOR03]); "
    "'priority' picks the contention order (fifo/lifo/longest)",
    fast_engine="vector",
    batch_policy=lambda priority="fifo": GreedyPolicy(priority),
)
def _greedy_scenario(network, requests, horizon, *, rng=None, engine=None,
                     priority: str = "fifo"):
    return run_greedy(network, requests, horizon, priority=priority,
                      engine=engine)
