"""Earliest-due-date greedy forwarding (the custom-policy ABI exemplar).

EDD is the deadline-aware cousin of the greedy family ([AKOR03] greedy
structure, earliest-deadline-first contention order -- the policy family
the follow-up papers evaluate on deadline workloads): on contention for a
link or a buffer slot, the packet whose deadline expires first wins;
deadline-free packets rank last.  Packets travel dimension by dimension
(1-bend routing), like :class:`~repro.baselines.greedy.GreedyPolicy`.

It is deliberately *not* one of the fast engine's built-in priorities:
:class:`EarliestDeadlinePolicy` implements both the scalar
:class:`~repro.network.simulator.Policy` interface (reference engine) and
the vectorized decision ABI of :mod:`repro.network.engine` natively, so
it demonstrates -- and its differential tests enforce -- that a custom
policy can run on both engines bit-identically.  ``adapter=True`` hides
the native ``decide_vector`` so the fast engine must lift the scalar
``decide`` through
:class:`~repro.network.fast_engine.BatchedPolicyAdapter` instead: the
knob the differential suite and the adapter benchmarks turn.
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.baselines.greedy import greedy_decision
from repro.network.engine import NO_DEADLINE, StepView, VectorDecision
from repro.network.fast_engine import greedy_masks
from repro.network.simulator import Decision, Policy, SimulationResult
from repro.network.topology import Network


def edd_key(pkt):
    """Earliest-due-date priority: tightest deadline, then age, then id."""
    deadline = pkt.request.deadline
    return (NO_DEADLINE if deadline is None else deadline,
            pkt.request.arrival, pkt.rid)


class EarliestDeadlinePolicy(Policy):
    """Greedy forwarding under the earliest-due-date total order.

    Implements the scalar interface and ``decide_vector`` with the same
    key tuples (``rid`` as final tie-break), so both engines compute the
    identical decision -- the ABI contract of
    :mod:`repro.network.engine`, fuzz-enforced by
    ``tests/test_differential.py``.

    ``batch_program`` opts the native vector path into the stacked batch
    engine: the decision is *group-local* (``greedy_masks`` ranks within
    (node, axis) groups only, from per-row keys), so stacking scenarios
    cannot change it -- any two instances with this label decide
    identically on identical rows.
    """

    batch_program = "edd"

    def decide(self, node, t, candidates, network: Network) -> Decision:
        return greedy_decision(node, candidates, network, edd_key)

    def decide_vector(self, view: StepView) -> VectorDecision:
        # the key tuple is the whole policy; the top-c/top-B contention
        # masks are the shared greedy machinery
        return greedy_masks(view, (view.deadline, view.arrival, view.rid))


class _ScalarOnly(Policy):
    """Delegate that hides ``decide_vector``, forcing the adapter path."""

    def __init__(self, policy: Policy):
        self._policy = policy

    def decide(self, node, t, candidates, network) -> Decision:
        return self._policy.decide(node, t, candidates, network)

    def on_step_begin(self, t: int) -> None:
        self._policy.on_step_begin(t)


def run_edd(network: Network, requests, horizon: int,
            adapter: bool = False, trace: bool = False,
            engine: str | None = None) -> SimulationResult:
    """Simulate earliest-due-date greedy forwarding on ``requests``.

    ``engine`` picks the implementation (see :mod:`repro.network.engine`);
    ``adapter=True`` strips the native vector decision so the fast engine
    exercises the scalar-to-vector batched adapter instead.
    """
    from repro.network.engine import make_engine

    policy = EarliestDeadlinePolicy()
    if adapter:
        policy = _ScalarOnly(policy)
    sim = make_engine(network, policy, engine=engine, trace=trace)
    return sim.run(requests, horizon)


@register_algorithm(
    "edd",
    description="earliest-due-date greedy: tightest deadline wins "
    "contention (custom vector-ABI policy; adapter=true forces the "
    "scalar batched-adapter path on the fast engine)",
    fast_engine="vector",
    batch_policy=lambda adapter=False: (
        None if adapter else EarliestDeadlinePolicy()),
)
def _edd_scenario(network, requests, horizon, *, rng=None, engine=None,
                  adapter: bool = False):
    return run_edd(network, requests, horizon, adapter=adapter,
                   engine=engine)
