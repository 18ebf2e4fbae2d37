"""Router interfaces and plan containers shared by all algorithms.

The centralized algorithms of the paper decide, online, a complete
space-time path per accepted packet; a :class:`Plan` collects those paths
(full ones for delivered packets, truncated prefixes for preempted ones)
together with rejection bookkeeping.  Plans can be validated against numpy
load ledgers and replayed through the step simulator
(:func:`repro.network.simulator.execute_plan`) -- the two must agree, which
the integration tests assert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.network.packet import DeliveryStatus
from repro.spacetime.graph import STPath


class RouteOutcome(enum.Enum):
    """Per-request outcome of a planning router."""

    DELIVERED = "delivered"  # full path reserved, ends at a destination copy
    REJECTED = "rejected"  # refused at arrival (no resources consumed)
    PREEMPTED = "preempted"  # injected, later dropped (prefix path consumed)


@dataclass
class Plan:
    """Result of running a planning router over a request sequence."""

    paths: dict = field(default_factory=dict)  # rid -> STPath (full)
    truncated: dict = field(default_factory=dict)  # rid -> STPath (prefix)
    outcome: dict = field(default_factory=dict)  # rid -> RouteOutcome
    meta: dict = field(default_factory=dict)  # per-router diagnostics

    @property
    def throughput(self) -> int:
        return len(self.paths)

    def delivered_ids(self) -> set:
        return set(self.paths)

    def all_executable_paths(self) -> dict:
        """Full plus truncated paths -- what the simulator replays."""
        merged = dict(self.truncated)
        merged.update(self.paths)
        return merged

    def record(self, rid: int, outcome: RouteOutcome, path: STPath | None = None) -> None:
        self.outcome[rid] = outcome
        if outcome == RouteOutcome.DELIVERED:
            if path is None:
                raise ValueError("delivered outcome requires a path")
            self.paths[rid] = path
            self.truncated.pop(rid, None)
        elif outcome == RouteOutcome.PREEMPTED:
            self.paths.pop(rid, None)
            if path is not None and len(path.moves) > 0:
                self.truncated[rid] = path
            else:
                self.truncated.pop(rid, None)
        else:
            self.paths.pop(rid, None)
            self.truncated.pop(rid, None)

    def consistent_with_simulation(self, result) -> bool:
        """True when the simulator delivered exactly the planned set."""
        sim_delivered = {
            rid
            for rid, st in result.status.items()
            if st == DeliveryStatus.DELIVERED
        }
        return sim_delivered == self.delivered_ids()


class Router:
    """Interface of a planning router over ``self.network``.

    Implementations process ``requests`` online (sorted by arrival, ties by
    id -- the adversary's presentation order) and return a :class:`Plan`.
    """

    def route(self, requests) -> Plan:
        raise NotImplementedError

    def arrival_order(self, requests) -> list:
        """``requests``, checked as a whole against ``self.network``
        (:meth:`~repro.network.topology.Network.check_requests`), sorted
        by arrival, ties by id."""
        return sorted(self.network.check_requests(requests),
                      key=lambda r: (r.arrival, r.rid))
