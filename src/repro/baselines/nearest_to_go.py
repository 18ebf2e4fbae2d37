"""The nearest-to-go (NTG) policy ([AKOR03], [AKK09]; Table 1).

On contention -- for a link or for buffer space -- the packet with the
fewest remaining hops wins; the farthest packets are dropped first.  On
2-dimensional grids packets use 1-bend (dimension-order) routing, the
scheme for which [AKK09] prove the Theta~(n^{2/3}) bound.  On bufferless
lines NTG is optimal (Proposition 12): it simulates the optimal online
interval packing of Section 5.2.1.
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.baselines.greedy import greedy_decision
from repro.network.engine import make_engine
from repro.network.simulator import Decision, Policy, SimulationResult
from repro.network.topology import Network


def ntg_key(pkt, network=None):
    """Nearest-to-go priority: fewest remaining hops, then age, then id."""
    return (pkt.remaining_distance(network), pkt.request.arrival, pkt.rid)


class NearestToGoPolicy(Policy):
    """Forward the nearest packets first; buffer the nearest leftovers.

    ``fast_priority`` names the equivalent vectorized order of
    :class:`~repro.network.fast_engine.FastEngine`.
    """

    fast_priority = "ntg"

    def decide(self, node, t, candidates, network: Network) -> Decision:
        return greedy_decision(node, candidates, network,
                               lambda pkt: ntg_key(pkt, network))


def run_nearest_to_go(network: Network, requests, horizon: int,
                      trace: bool = False,
                      engine: str | None = None) -> SimulationResult:
    """Simulate the nearest-to-go policy on ``requests``.

    ``engine`` picks the implementation (see :mod:`repro.network.engine`);
    the default honours the ``REPRO_ENGINE`` environment variable.
    """
    sim = make_engine(network, NearestToGoPolicy(), engine=engine,
                      trace=trace)
    return sim.run(requests, horizon)


@register_algorithm(
    "ntg",
    description="nearest-to-go: fewest remaining hops win contention "
    "([AKOR03], [AKK09]); optimal on bufferless lines (Prop. 12)",
    fast_engine="vector",
    batch_policy=lambda: NearestToGoPolicy(),
)
def _ntg_scenario(network, requests, horizon, *, rng=None, engine=None):
    return run_nearest_to_go(network, requests, horizon, engine=engine)
