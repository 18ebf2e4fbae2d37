"""Packet requests and runtime packet records.

A packet request is the 4-tuple ``r_i = (a_i, b_i, t_i, d_i)`` of the paper
(Section 2.1): source node, destination node, arrival (injection) time and
deadline.  ``deadline=None`` encodes ``d_i = infinity`` (no deadline).

Nodes are coordinate tuples; a uni-directional line uses 1-tuples.  The
convenience constructor :meth:`Request.line` accepts plain integers.

A :class:`RequestTable` holds a whole request sequence as int64 columns:
the array engines read the columns, and the :class:`Request` objects are
built only for the consumers that iterate or index it.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ValidationError

Node = tuple  # coordinate tuple, e.g. (x,) on a line or (x, y) on a grid

#: encodes ``deadline = infinity`` in int64 deadline columns
NO_DEADLINE = int(np.iinfo(np.int64).max)

_rid_counter = itertools.count()


def reserve_rids(count: int) -> np.ndarray:
    """``count`` consecutive request ids taken from the counter at once:
    the ids ``count`` requests built one after another would get."""
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    last = next(itertools.islice(_rid_counter, count - 1, None))
    return np.arange(last - count + 1, last + 1, dtype=np.int64)


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


class RequestTable(Sequence):
    """An immutable sequence of requests stored as int64 columns.

    ``source`` and ``dest`` have shape ``(n, d)``; ``arrival``,
    ``deadline`` (:data:`NO_DEADLINE` for none) and ``rid`` have shape
    ``(n,)``.  The table takes the arrays and makes them read-only.  Its
    :class:`Request` objects are built by :meth:`Request._trusted`, with
    the column's rids, the first time something iterates or indexes the
    table, and kept from then on; the array engines read the columns and
    never build them.  A slice is a table; ``+`` with any sequence gives
    a list.
    """

    __slots__ = ("source", "dest", "arrival", "deadline", "rid", "_requests")

    def __init__(self, source, dest, arrival, deadline, rid, requests=None):
        columns = [np.asarray(column, dtype=np.int64)
                   for column in (source, dest, arrival, deadline, rid)]
        source, dest, arrival, deadline, rid = columns
        n = rid.shape
        if source.ndim != 2 or dest.shape != source.shape or rid.ndim != 1 \
                or source.shape[:1] != n or arrival.shape != n \
                or deadline.shape != n:
            raise ValidationError(
                "request columns need shapes (n, d) for source and dest and "
                "(n,) for arrival, deadline and rid, got " + ", ".join(
                    f"{name} {column.shape}"
                    for name, column in zip(self.__slots__, columns)))
        for name, column in zip(self.__slots__, columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_requests",
                           None if requests is None else tuple(requests))

    @classmethod
    def from_requests(cls, requests) -> "RequestTable":
        """The columns of ``requests`` (returned as is when it is already a
        table); the table keeps the given objects.  Raises
        :class:`ValidationError` when the requests mix dimensions."""
        if isinstance(requests, cls):
            return requests
        requests = tuple(requests)
        try:
            source = np.array([r.source for r in requests], dtype=np.int64)
            dest = np.array([r.dest for r in requests], dtype=np.int64)
        except ValueError:  # ragged coordinates
            source = None
        if source is None or source.ndim != 2 \
                or dest.shape != source.shape:
            if not requests:
                source = dest = np.zeros((0, 0), dtype=np.int64)
            else:
                raise ValidationError(
                    "requests mix source and destination dimensions")
        return cls(
            source, dest, [r.arrival for r in requests],
            [NO_DEADLINE if r.deadline is None else r.deadline
             for r in requests],
            [r.rid for r in requests], requests)

    def columns(self) -> tuple:
        """``(source, dest, arrival, deadline, rid)``."""
        return self.source, self.dest, self.arrival, self.deadline, self.rid

    def __setattr__(self, name, value):
        raise AttributeError(f"RequestTable is immutable (setting {name!r})")

    def __reduce__(self):  # pickle and copy rebuild from the columns
        return RequestTable, self.columns()

    def __len__(self) -> int:
        return self.rid.size

    def _objects(self) -> tuple:
        requests = self._requests
        if requests is None:
            deadlines = self.deadline.tolist()
            if NO_DEADLINE in deadlines:
                deadlines = [None if x == NO_DEADLINE else x
                             for x in deadlines]
            requests = tuple(map(
                Request._trusted, map(tuple, self.source.tolist()),
                map(tuple, self.dest.tolist()), self.arrival.tolist(),
                deadlines, self.rid.tolist()))
            object.__setattr__(self, "_requests", requests)
        return requests

    def __iter__(self):
        return iter(self._objects())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RequestTable(
                *(column[index] for column in self.columns()),
                None if self._requests is None else self._requests[index])
        return self._objects()[index]

    def __add__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return [*self, *other]

    def __radd__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return [*other, *self]

    def __repr__(self) -> str:
        return (f"RequestTable({len(self)} requests, "
                f"d={self.source.shape[1]})")


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
