"""Synchronous store-and-forward packet network substrate.

This subpackage implements the "Competitive Network Throughput Model" of
Aiello, Kushilevitz, Ostrovsky and Rosen [AKOR03] used by the paper
(Section 2): a synchronous network whose nodes hold at most ``B`` packets in
a local buffer and whose links carry at most ``c`` packets per time step.

Contents
--------
* :mod:`repro.network.packet` -- requests and runtime packet records.
* :mod:`repro.network.topology` -- uni-directional lines and d-dimensional
  grids (Section 2.2).
* :mod:`repro.network.simulator` -- the synchronous step engine with both
  policy-driven and plan-driven front ends.
* :mod:`repro.network.fast_engine` / :mod:`repro.network.engine` -- the
  vectorized array-backed engine and the engine-selection protocol.
* :mod:`repro.network.node_models` -- the two node-functionality models of
  Appendix F.
* :mod:`repro.network.stats` / :mod:`repro.network.trace` -- accounting.
"""

from repro.network.packet import DeliveryStatus, Packet, Request
from repro.network.topology import GridNetwork, LineNetwork, Network
from repro.network.simulator import SimulationResult, Simulator, execute_plan
from repro.network.stats import NetworkStats
from repro.network.fast_engine import FastEngine
from repro.network.fast_batch_engine import FastBatchEngine
from repro.network.engine import (
    BatchEngine,
    Engine,
    make_engine,
    resolve_engine_name,
)

__all__ = [
    "BatchEngine",
    "DeliveryStatus",
    "Engine",
    "FastBatchEngine",
    "FastEngine",
    "GridNetwork",
    "LineNetwork",
    "Network",
    "NetworkStats",
    "Packet",
    "Request",
    "SimulationResult",
    "Simulator",
    "execute_plan",
    "make_engine",
    "resolve_engine_name",
]
