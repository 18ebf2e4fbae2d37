"""Lightest-path oracles for online path packing.

Algorithm 3 (Appendix E) assumes "an oracle that, given edge weights and a
connection request, finds a lightest legal path from the source to the
destination", where a path is legal when it has at most ``p_max`` edges.

Two oracles are provided:

* :func:`lightest_path` -- Dijkstra with lexicographic cost
  ``(weight, hops)``; the hop cap is checked on the path it finds, and a
  violation is reported to the caller, which rejects the request (a
  conservative outcome).  On the tiled sketch graphs all paths between
  fixed endpoints have nearly equal hop counts, so this is exact in
  practice there.  On a space-time graph with one sink per request it is
  not: every path to one vertex has the same hop count, but the
  destination copies lie at different times, so the lightest path may
  end on a late copy past the cap while a heavier, earlier one fits.
* :func:`hop_bounded_lightest_path` -- exact label-correcting DP over
  ``(node, hops)`` states; exponential state count is avoided because hops
  are bounded.  Used by tests as ground truth on small graphs.

:func:`lightest_path` serves the tiled sketch graphs of ``det``, the
``rand`` family and ``ipp-sketch``.  ``det2`` and ``theorem13`` route on
the space-time graph itself with their own search on integer ids
(:meth:`~repro.core.deterministic.frontier.ResidualSpaceTimeDigraph.lightest_path`),
which returns exactly this oracle's paths on that graph with one sink node
per request.

Graph protocol: ``graph.out_edges(u) -> iterable[(edge_key, head)]``.
Weights are supplied by a callable ``weight(edge_key) -> float``.  Sink
nodes other than the target are skipped when the graph exposes
``is_sink`` (they are dead ends belonging to other requests).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class OraclePath:
    """A path found by an oracle: edge keys, node sequence, total weight."""

    edges: tuple
    nodes: tuple
    weight: float

    @property
    def hops(self) -> int:
        return len(self.edges)


def lightest_path(graph, source, target, weight, max_hops=None):
    """Lightest ``source -> target`` path by Dijkstra, ties broken by hops.

    Returns an :class:`OraclePath` or ``None`` when the target is
    unreachable or the lightest path exceeds ``max_hops`` (the conservative
    rejection described in the module docstring).
    """
    skip_sinks = getattr(graph, "is_sink", None)
    # entries: (weight, hops, tiebreak, node); parent map for reconstruction
    counter = 0
    heap = [(0.0, 0, counter, source)]
    best: dict = {}
    parent: dict = {source: None}
    settled = set()
    while heap:
        w, h, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            break
        for edge_key, v in graph.out_edges(u):
            if v in settled:
                continue
            if skip_sinks is not None and v != target and skip_sinks(v):
                continue
            nw, nh = w + weight(edge_key), h + 1
            cur = best.get(v)
            if cur is None or (nw, nh) < cur:
                best[v] = (nw, nh)
                parent[v] = (u, edge_key)
                counter += 1
                heapq.heappush(heap, (nw, nh, counter, v))
    if target not in settled:
        return None
    edges, nodes = [], [target]
    node = target
    while parent[node] is not None:
        prev, edge_key = parent[node]
        edges.append(edge_key)
        nodes.append(prev)
        node = prev
    edges.reverse()
    nodes.reverse()
    w, h = best.get(target, (0.0, 0))
    if max_hops is not None and h > max_hops:
        return None
    return OraclePath(tuple(edges), tuple(nodes), w)


def hop_bounded_lightest_path(graph, source, target, weight, max_hops):
    """Exact lightest path using at most ``max_hops`` edges.

    Dijkstra over the layered state space ``(node, hops)``.  Ground-truth
    oracle for tests; prefer :func:`lightest_path` in production code.
    """
    skip_sinks = getattr(graph, "is_sink", None)
    counter = 0
    heap = [(0.0, 0, counter, source)]
    best = {(source, 0): 0.0}
    parent = {(source, 0): None}
    goal = None
    while heap:
        w, h, _, u = heapq.heappop(heap)
        if w > best.get((u, h), float("inf")):
            continue
        if u == target:
            goal = (u, h)
            break
        if h == max_hops:
            continue
        for edge_key, v in graph.out_edges(u):
            if skip_sinks is not None and v != target and skip_sinks(v):
                continue
            nw, state = w + weight(edge_key), (v, h + 1)
            if nw < best.get(state, float("inf")):
                best[state] = nw
                parent[state] = ((u, h), edge_key)
                counter += 1
                heapq.heappush(heap, (nw, h + 1, counter, v))
    if goal is None:
        return None
    edges, nodes = [], [goal[0]]
    state = goal
    while parent[state] is not None:
        prev_state, edge_key = parent[state]
        edges.append(edge_key)
        nodes.append(prev_state[0])
        state = prev_state
    edges.reverse()
    nodes.reverse()
    return OraclePath(tuple(edges), tuple(nodes), best[goal])
