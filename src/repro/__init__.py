"""repro: Even & Medina, "Online Packet-Routing in Grids with Bounded
Buffers" (SPAA 2011), as a runnable library.

Quickstart
----------
>>> from repro import LineNetwork, Request, RandomizedLineRouter
>>> net = LineNetwork(64, buffer_size=1, capacity=1)
>>> reqs = [Request.line(0, 40, 0), Request.line(3, 50, 1)]
>>> router = RandomizedLineRouter(net, horizon=128, rng=0, lam=1.0)
>>> plan = router.route(reqs)
>>> plan.throughput >= 0
True

Layout
------
* :mod:`repro.network` -- the synchronous store-and-forward substrate.
* :mod:`repro.spacetime` -- space-time graphs, untilting, tiling, sketches.
* :mod:`repro.packing` -- online path packing (IPP), interval packing,
  offline bounds (max-flow, LP, exact).
* :mod:`repro.core` -- the paper's algorithms (deterministic Algorithm 1,
  randomized Section 7, special-case variants).
* :mod:`repro.baselines` -- greedy and nearest-to-go.
* :mod:`repro.workloads` -- synthetic and adversarial request generators.
* :mod:`repro.analysis` -- bench output: result tables and ASCII figures.
* :mod:`repro.api` -- the declarative Scenario layer: registries of
  algorithms/workloads/topologies, JSON-round-trippable run specs, and
  the batch runner every CLI command and bench sits on.
"""

from repro.core import (
    BufferlessLineRouter,
    DeterministicRouter,
    LargeCapacityRouter,
    Plan,
    RandomizedLineRouter,
    RouteOutcome,
    Router,
)
from repro.core.randomized import (
    FarPlusRouter,
    LargeBufferLineRouter,
    NearRouter,
    SmallBufferLineRouter,
)
from repro.network import (
    GridNetwork,
    LineNetwork,
    Network,
    Request,
    SimulationResult,
    Simulator,
    execute_plan,
)
from repro.baselines import run_greedy, run_nearest_to_go, offline_bound
from repro.api import (
    AlgorithmSpec,
    NetworkSpec,
    RunReport,
    Scenario,
    WorkloadSpec,
    run,
    run_batch,
)

__version__ = "1.1.0"

__all__ = [
    "AlgorithmSpec",
    "BufferlessLineRouter",
    "DeterministicRouter",
    "FarPlusRouter",
    "GridNetwork",
    "LargeBufferLineRouter",
    "LargeCapacityRouter",
    "LineNetwork",
    "NearRouter",
    "Network",
    "NetworkSpec",
    "Plan",
    "RandomizedLineRouter",
    "Request",
    "RouteOutcome",
    "Router",
    "RunReport",
    "Scenario",
    "SimulationResult",
    "Simulator",
    "SmallBufferLineRouter",
    "WorkloadSpec",
    "execute_plan",
    "offline_bound",
    "run",
    "run_batch",
    "run_greedy",
    "run_nearest_to_go",
]
