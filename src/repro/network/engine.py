"""Engine selection and the vectorized decision ABI.

An *engine* is anything that implements the :class:`Engine` protocol --
``run(requests, horizon) -> SimulationResult`` over a fixed network and
policy.  Two implementations ship:

* ``"reference"`` -- :class:`~repro.network.simulator.Simulator`, the
  per-packet Python loop.  Supports every :class:`Policy`, validates
  arbitrary decisions, and records traces.  Use it for correctness work
  and debugging.
* ``"fast"`` -- :class:`~repro.network.fast_engine.FastEngine`, the
  numpy group-by engine, at a fraction of the wall-clock.  Use it for
  sweeps and large instances.

A third *name*, ``"batch"``, selects the stacked batch path: eligible
scenarios of one ``run_batch`` call are packed into a single array
program and executed together by
:class:`~repro.network.fast_batch_engine.FastBatchEngine` (the
:class:`BatchEngine` protocol below).  For a single run the name
degrades to ``"fast"`` -- a stack of one is just the fast engine -- and
scenarios no batch program can express fall back per-scenario, exactly
like ``"fast"`` falls back to the reference engine.

Resolution order for the engine name: an explicit argument, then the
``REPRO_ENGINE`` environment variable, then ``"reference"``.  The
environment hook is how the bench suite runs end to end on either engine
without threading a flag through every experiment.

The vectorized decision ABI
---------------------------
The fast engine does not hard-code its policies.  Each time step it
builds one :class:`StepView` -- the array form of every candidate packet
that survived delivery -- and asks the policy for one
:class:`VectorDecision`: per-packet boolean ``forward``/``store`` masks
plus the forwarding ``axis``.  Anything implementing that single call is
a :class:`VectorPolicy` and runs at array speed.  Three lifts cover the
rest:

* policies exposing ``fast_priority`` (the greedy family) are ranked on
  their named priority's key tuple by
  :func:`~repro.network.fast_engine.greedy_masks`;
* :class:`~repro.network.simulator.PlanPolicy` replay is compiled into a
  vector policy over per-packet action tables;
* any other scalar :class:`~repro.network.simulator.Policy` is lifted by
  :class:`~repro.network.fast_engine.BatchedPolicyAdapter`: one grouped
  Python call per *node*-step instead of per packet.  Such policies run
  alone: they cannot join a stacked batch of several scenarios.

Both array engines run one loop -- the stacked one of
:mod:`repro.network.fast_batch_engine`, with the fast engine as a stack
of one scenario -- so every lift holds on both.

The ABI contract (what ``tests/test_differential.py`` fuzz-enforces):

1. the engine, not the policy, accounts and enforces ``B``/``c`` -- a
   decision exceeding them raises
   :class:`~repro.util.errors.CapacityError` exactly like the reference
   validator; a forward off the grid raises
   :class:`~repro.util.errors.ValidationError`;
2. packets neither forwarded nor stored are deleted by the engine
   (rejected at injection time, preempted afterwards);
3. decisions must be *order-insensitive* functions of the candidate set
   (use a total priority -- break ties on ``rid``).  The reference and
   fast engines present candidates in different orders, and bit-identical
   results across engines -- the invariant the result cache rests on --
   hold only for policies that do not depend on that order.  A policy
   that knowingly violates this sets ``vectorize = False``, which pins it
   to the reference engine even under a global ``REPRO_ENGINE=fast``;
4. the batched adapter re-materializes candidate
   :class:`~repro.network.packet.Packet` records each step; scalar
   policies must not key state on packet object identity across steps.

Node Model 2 (Appendix F) is not a :class:`Policy` but different node
semantics; :func:`make_engine` routes policies carrying ``node_model = 2``
(:class:`~repro.network.node_models.Model2Policy`) to the Model 2
engines -- :class:`~repro.network.node_models.FastModel2Engine` under
``"fast"``, which runs the Model 2 rule as a decision program of the
same array loop (so its decisions pass the same checks), and the
per-packet :class:`~repro.network.node_models.Model2LineSimulator`
otherwise.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

# NO_DEADLINE encodes ``deadline = infinity`` in the ABI's int64 deadline
# arrays; re-exported from the request columns' module
from repro.network.packet import NO_DEADLINE  # noqa: F401
from repro.network.simulator import SimulationResult
from repro.util.errors import ValidationError

#: environment variable consulted when no explicit engine is given
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: the valid engine names (implementations resolve lazily in make_engine)
ENGINE_NAMES = ("reference", "fast", "batch")


class Engine(Protocol):
    """A simulation engine bound to a network and a policy."""

    def run(self, requests, horizon: int) -> SimulationResult:
        """Simulate ``requests`` for time steps ``0..horizon`` inclusive."""
        ...


class BatchEngine(Protocol):
    """A stacked engine: many (network, policy, requests, horizon) jobs
    resolved together as one array program.

    ``run_many`` returns one :class:`SimulationResult` per job, each
    bit-identical to what the per-scenario engines would produce for that
    job alone -- the invariant that lets ``run_batch`` group eligible
    scenarios freely.  Jobs a batch program cannot express must be
    rejected at construction time (clean
    :class:`~repro.util.errors.ValidationError`, not a wrong result);
    callers pre-filter with the implementation's ``supports`` predicate.
    """

    def run_many(self) -> list:
        ...


# -- the vectorized decision ABI -----------------------------------------


@dataclass(frozen=True)
class StepView:
    """Array view of one time step's candidate packets (post-delivery).

    Row ``i`` describes one candidate packet; all per-packet arrays share
    that row order.  ``index`` maps rows back to the engine's request
    order (``requests[index[i]]`` is row ``i``'s
    :class:`~repro.network.packet.Request`), which is how compiled
    policies (plan replay) look up per-request tables.  ``requests`` is a
    sequence: in a stack of one job the job's checked
    :class:`~repro.network.packet.RequestTable` (its own objects), and in
    a stack of several jobs of one dimension a table over the stacked
    columns, so no request object is built unless a policy reads one; a
    stack padded to a wider dimension materializes every job's requests
    into one tuple.
    """

    t: int  # current time step
    #: the stacked network facade of the array loop (``d``,
    #: ``buffer_size``, ``capacity``, ``togo_array``, ``hops_array``,
    #: ``edge_capacity``) -- not a :class:`~repro.network.topology.Network`
    #: -- on every array engine
    network: object
    requests: Sequence  # all requests of the run, in engine order
    index: np.ndarray  # row -> position in ``requests``
    node_id: np.ndarray  # flat row-major node index (Network.node_index)
    loc: np.ndarray  # (k, d) current coordinates
    src: np.ndarray  # (k, d) source coordinates
    dst: np.ndarray  # (k, d) destination coordinates
    arrival: np.ndarray  # injection times
    deadline: np.ndarray  # deadlines, ``NO_DEADLINE`` when unbounded
    rid: np.ndarray  # unique request ids (the universal tie-break)
    #: scenario id per row when several scenarios share the stack (None
    #: when a scenario runs alone).  Stacked views keep ``node_id``
    #: globally unique across scenarios, so group-local policies need
    #: not read this; it exists for policies that want per-scenario
    #: context.
    batch: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.rid.size

    @cached_property
    def togo(self) -> np.ndarray:
        """``(k, d)`` hops left per axis, computed once per view.

        Delegates to the network's geometry so wrapping axes (ring,
        torus) count mod the side length.
        """
        return self.network.togo_array(self.loc, self.dst)

    def remaining(self) -> np.ndarray:
        """Hops left to each destination (the nearest-to-go key)."""
        return _row_sums(self.togo)

    def hops(self) -> np.ndarray:
        """Hops travelled so far (exact for 1-bend routes; wrapping axes
        reconstruct travel mod the side length)."""
        return _row_sums(self.network.hops_array(self.src, self.loc))

    def injected_now(self) -> np.ndarray:
        """Mask of packets revealed (locally input) this very step."""
        return self.arrival == self.t


def _row_sums(a) -> np.ndarray:
    """``a.sum(axis=1)`` for a ``(k, d)`` int64 array, as ``d - 1``
    column adds: a reduction along the short axis costs far more at the
    few columns a grid has (52 us against 4 us for 2700 rows of 2
    columns, numpy 2.4.6)."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


@dataclass
class VectorDecision:
    """A policy's answer for one step: what to forward, what to keep.

    ``forward``/``store`` are boolean masks over the step view's rows;
    ``axis`` gives the outgoing axis per row (only read where ``forward``
    is set).  Rows in neither mask are deleted by the engine.
    """

    forward: np.ndarray
    axis: np.ndarray
    store: np.ndarray


class VectorPolicy(Protocol):
    """The vectorized decision ABI: one array call per time step."""

    def decide_vector(self, view: StepView) -> VectorDecision:
        ...


# -- engine selection -----------------------------------------------------


def _check_name(name: str) -> str:
    if name not in ENGINE_NAMES:
        raise ValidationError(
            f"unknown engine {name!r}; choose from {sorted(ENGINE_NAMES)}"
        )
    return name


def resolve_engine_name(engine: str | None = None) -> str:
    """Resolve ``engine`` via argument > ``REPRO_ENGINE`` > ``"reference"``."""
    if engine is not None:
        return _check_name(engine)
    env = os.environ.get(ENGINE_ENV_VAR)
    if env:
        return _check_name(env)
    return "reference"


def make_engine(network, policy, engine: str | None = None,
                trace: bool = False) -> Engine:
    """Build the engine named by :func:`resolve_engine_name`.

    When ``"fast"`` is selected but the request needs reference features
    (tracing, or a policy no fast path can express), the reference engine
    is returned instead, so experiment code can flip engines globally
    without special-casing individual policies.  Policies carrying
    ``node_model = 2`` route to the Model 2 engines (see module docs):
    :class:`~repro.network.node_models.FastModel2Engine`, a decision
    program on the fast engine's loop, or the per-packet reference.
    """
    # imported here, not at module top: fast_engine/node_models import the
    # ABI classes above, so this module must finish loading first
    from repro.network.fast_engine import FastEngine
    from repro.network.simulator import Simulator

    name = resolve_engine_name(engine)
    if name == "batch":
        # stacking happens in run_batch; a single run degrades to "fast"
        name = "fast"
    if getattr(policy, "node_model", 1) == 2:
        from repro.network.node_models import (
            FastModel2Engine,
            Model2LineSimulator,
        )

        if name == "fast" and not trace \
                and FastModel2Engine.supports(policy, network):
            return FastModel2Engine(network, policy)
        return Model2LineSimulator(network, policy, trace=trace)
    if name == "fast" and not trace and FastEngine.supports(policy):
        return FastEngine(network, policy, trace=trace)
    return Simulator(network, policy, trace=trace)
