"""Packet requests and runtime packet records.

A packet request is the 4-tuple ``r_i = (a_i, b_i, t_i, d_i)`` of the paper
(Section 2.1): source node, destination node, arrival (injection) time and
deadline.  ``deadline=None`` encodes ``d_i = infinity`` (no deadline).

Nodes are coordinate tuples; a uni-directional line uses 1-tuples.  The
convenience constructor :meth:`Request.line` accepts plain integers.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.util.errors import ValidationError

Node = tuple  # coordinate tuple, e.g. (x,) on a line or (x, y) on a grid

_rid_counter = itertools.count()


def _as_node(value) -> Node:
    """Normalise ``value`` (int or tuple of ints) to a coordinate tuple."""
    if isinstance(value, tuple):
        if not value or not all(isinstance(x, (int,)) or hasattr(x, "__index__") for x in value):
            raise ValidationError(f"node must be a non-empty tuple of ints, got {value!r}")
        return tuple(int(x) for x in value)
    try:
        return (int(value),)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot interpret {value!r} as a node") from exc


@dataclass(frozen=True, order=True)
class Request:
    """An online packet request ``(a_i, b_i, t_i, d_i)``.

    Parameters
    ----------
    source, dest:
        Coordinate tuples of equal dimension.  Whether ``dest`` is
        reachable from ``source`` depends on the network (non-wrapping
        axes require ``source <= dest``); ``Network.check_request``
        enforces it.
    arrival:
        Time step ``t_i`` at which the request is revealed and may first be
        injected at ``source``.
    deadline:
        Latest delivery time ``d_i`` (inclusive), or ``None`` for no
        deadline.  The algorithm is only credited for delivering the packet
        at a time ``t' <= d_i``.
    rid:
        Unique integer id; assigned automatically when omitted.
    """

    # Sort key: requests are processed online in arrival order, ties broken
    # by id, which gives a deterministic adversarial sequence.
    arrival: int
    rid: int = field(compare=True)
    source: Node = field(compare=False)
    dest: Node = field(compare=False)
    deadline: int | None = field(default=None, compare=False)

    def __init__(self, source, dest, arrival: int, deadline: int | None = None, rid: int | None = None):
        object.__setattr__(self, "source", _as_node(source))
        object.__setattr__(self, "dest", _as_node(dest))
        object.__setattr__(self, "arrival", int(arrival))
        object.__setattr__(self, "deadline", None if deadline is None else int(deadline))
        object.__setattr__(self, "rid", next(_rid_counter) if rid is None else int(rid))
        self._validate()

    @classmethod
    def _trusted(cls, source: Node, dest: Node, arrival: int,
                 deadline: int | None = None,
                 rid: int | None = None) -> "Request":
        """``Request(source, dest, arrival, deadline, rid)`` without the
        checks, for generators that pass equal-length tuples of ints, an
        int ``arrival >= 0`` and ints (or ``None``) for the rest."""
        self = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(self, "source", source)
        setattr_(self, "dest", dest)
        setattr_(self, "arrival", arrival)
        setattr_(self, "deadline", deadline)
        setattr_(self, "rid", next(_rid_counter) if rid is None else rid)
        return self

    def _validate(self) -> None:
        if len(self.source) != len(self.dest):
            raise ValidationError(
                f"source {self.source} and dest {self.dest} have different dimensions"
            )
        if self.arrival < 0:
            raise ValidationError(f"arrival must be >= 0, got {self.arrival}")
        # Reachability and deadline feasibility depend on the network's
        # geometry (wrapping axes reach "backward" targets), so those
        # checks live in Network.check_request, not here.

    @classmethod
    def line(cls, source: int, dest: int, arrival: int, deadline: int | None = None, rid: int | None = None) -> "Request":
        """Build a request on a uni-directional line from integer endpoints."""
        return cls((int(source),), (int(dest),), arrival, deadline, rid)

    @property
    def distance(self) -> int:
        """Closed-form hop distance ``dist(a_i, b_i)`` on a non-wrapping
        grid.  On rings/tori use ``network.dist(r.source, r.dest)``."""
        return sum(d - s for s, d in zip(self.source, self.dest))

    @property
    def dim(self) -> int:
        """Dimension of the grid the request lives on."""
        return len(self.source)

    def is_trivial(self) -> bool:
        """True when source == dest: delivered at injection with no routing."""
        return self.source == self.dest

    def __repr__(self) -> str:  # compact, used heavily in test failure output
        dl = "inf" if self.deadline is None else str(self.deadline)
        return f"Request#{self.rid}({self.source}->{self.dest} @t={self.arrival} d={dl})"


class DeliveryStatus(enum.Enum):
    """Lifecycle outcome of a request (Section 2.1 terminology)."""

    PENDING = "pending"  # not yet processed
    REJECTED = "rejected"  # locally input and deleted before injection
    INJECTED = "injected"  # admitted into the network, still in flight
    PREEMPTED = "preempted"  # injected then deleted before reaching dest
    DELIVERED = "delivered"  # reached destination on time
    LATE = "late"  # reached destination after the deadline (no credit)


@dataclass
class Packet:
    """Runtime record of an injected packet inside the simulator."""

    request: Request
    location: Node  # current node
    injected_at: int
    status: DeliveryStatus = DeliveryStatus.INJECTED
    delivered_at: int | None = None
    hops: int = 0

    @property
    def rid(self) -> int:
        return self.request.rid

    @property
    def dest(self) -> Node:
        return self.request.dest

    def remaining_distance(self, network=None) -> int:
        """Hops left to the destination (nearest-to-go priority key).

        Pass the network on wrapping topologies; without it the
        closed-form grid metric is used.
        """
        if network is not None:
            return network.dist(self.location, self.request.dest)
        return sum(d - x for x, d in zip(self.location, self.request.dest))
