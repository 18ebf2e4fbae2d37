"""Exact integral optimum for tiny instances (test anchor).

Computing ``opt(sigma)`` exactly is integral multicommodity flow; the
branch-and-bound here is exponential and deliberately guarded, existing only
to anchor the polynomial surrogates (:func:`repro.packing.maxflow.
throughput_upper_bound`, :func:`repro.packing.lp.fractional_opt`) and the
online algorithms on instances small enough to verify by hand.
"""

from __future__ import annotations

from repro.network.topology import Network
from repro.spacetime.graph import STPath, SpaceTimeGraph
from repro.util.errors import ValidationError

#: hard cap on candidate paths per request
DEFAULT_PATH_LIMIT = 2_000
#: hard cap on requests
DEFAULT_REQUEST_LIMIT = 12


def enumerate_paths(graph: SpaceTimeGraph, request, limit: int = DEFAULT_PATH_LIMIT):
    """All monotone space-time paths serving ``request``.

    Paths start at the source event and end the first time every coordinate
    reaches the destination (a packet is removed on arrival, Section 2.1),
    no later than the deadline/horizon.  The depth-first search keeps an
    explicit stack, so a long slack cannot exhaust the interpreter's
    recursion limit before ``limit`` refuses the request.
    """
    src = graph.source_vertex(request)
    if not graph.valid_vertex(src):
        return []
    b = request.dest
    t_hi = graph.horizon if request.deadline is None else min(request.deadline, graph.horizon)
    d = graph.d
    out: list = []
    moves: list = []
    # (vertex, its untried moves) for every vertex on the current path
    stack: list = []

    def visit(v) -> bool:
        """Record a path ending at ``v`` or push ``v``; True when pushed."""
        if len(out) >= limit:
            raise ValidationError(
                f"more than {limit} candidate paths for {request}; "
                "instance too large for exact_opt_small"
            )
        if v[:-1] == b:
            out.append(STPath(src, tuple(moves), rid=request.rid))
            return False
        if graph.vertex_time(v) >= t_hi:
            return False
        stack.append((v, graph.moves_from(v)))
        return True

    visit(src)
    while stack:
        v, untried = stack[-1]
        move = next(untried, None)
        if move is None:
            stack.pop()
            if moves:
                moves.pop()
            continue
        head = graph.move_head(v, move)
        # prune moves that overshoot the destination or the deadline
        if move < d and head[move] > b[move]:
            continue
        if graph.vertex_time(head) + sum(
            bb - hh for bb, hh in zip(b, head[:-1])
        ) > t_hi:
            continue
        moves.append(move)
        if not visit(head):
            moves.pop()
    return out


def exact_opt_small(network: Network, requests, horizon: int,
                    path_limit: int = DEFAULT_PATH_LIMIT,
                    request_limit: int = DEFAULT_REQUEST_LIMIT):
    """Exact maximum throughput by branch and bound.

    Returns ``(value, chosen)`` where ``chosen`` maps request ids to the
    selected :class:`STPath` (an optimal routing witness).
    """
    requests = [r for r in network.check_requests(requests)
                if r.arrival <= horizon]
    if len(requests) > request_limit:
        raise ValidationError(
            f"{len(requests)} requests exceed the exact-solver limit "
            f"{request_limit}"
        )
    graph = SpaceTimeGraph(network, horizon)
    candidates = [enumerate_paths(graph, r, path_limit) for r in requests]
    # order requests by fewest candidates first: fail fast
    order = sorted(range(len(requests)), key=lambda i: len(candidates[i]))
    ledger = graph.ledger()
    best = {"value": -1, "chosen": {}}
    chosen: dict = {}

    def rec(pos: int, served: int):
        remaining = len(order) - pos
        if served + remaining <= best["value"]:
            return
        if pos == len(order):
            if served > best["value"]:
                best["value"] = served
                best["chosen"] = dict(chosen)
            return
        i = order[pos]
        r = requests[i]
        for path in candidates[i]:
            if ledger.path_fits(path):
                ledger.add_path(path)
                chosen[r.rid] = path
                rec(pos + 1, served + 1)
                del chosen[r.rid]
                ledger.remove_path(path)
        rec(pos + 1, served)  # skip this request

    rec(0, 0)
    return best["value"], best["chosen"]
