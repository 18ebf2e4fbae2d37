"""The single-commodity max-flow upper bound on offline throughput.

``opt(sigma)`` -- the offline optimal throughput -- is an integral
multicommodity flow and NP-hard in general, so experiments use computable
surrogates.  The cheapest is the *single-commodity relaxation*: forget which
request each packet serves.  Any feasible routing of ``m`` packets induces a
feasible flow of value ``m`` from a super-source (fanning out to the
requests' source events) to a super-sink (collecting per-request destination
windows), hence the max flow upper-bounds ``opt``.  On lines the bound is
usually tight for monotone instances (crossing paths can be uncrossed); the
test-suite compares it against :func:`repro.packing.exact.exact_opt_small`.

The flow network is built as numpy ``(tail, head, cap)`` edge arrays, merged
into one sparse matrix and solved by scipy's compiled
:func:`scipy.sparse.csgraph.maximum_flow`.  Its size is counted in closed
form first, and networks above :data:`MAX_EDGES` are refused before any
edge array is allocated.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from repro.network.topology import Network
from repro.util.errors import ValidationError

#: largest flow network (in edges, or in vertices) the bound builds; a
#: solve peaks at about 80 bytes per edge, so about 0.8 GB at the cap
MAX_EDGES = 10_000_000


def _windows(network: Network, requests, horizon: int):
    """Validate ``requests`` and describe the live ones (``arrival <=
    horizon``): per request, its source event vertex, the vertex of its
    first destination copy, and its window width (``0`` when the
    destination cannot be reached by ``min(deadline, horizon)``)."""
    requests = list(requests)
    for r in requests:
        network.check_request(r)
    live = [r for r in requests if r.arrival <= horizon]
    d, dims, nt = network.d, network.dims, horizon + 1
    src = np.array([r.source for r in live], dtype=np.int64).reshape(-1, d)
    dst = np.array([r.dest for r in live], dtype=np.int64).reshape(-1, d)
    arrival = np.array([r.arrival for r in live], dtype=np.int64)
    hi = np.array([horizon if r.deadline is None else min(r.deadline, horizon)
                   for r in live], dtype=np.int64)
    # network distance, not the closed-form r.distance: wrapping axes
    # shorten the earliest possible arrival
    lo = arrival + network.togo_array(src, dst).sum(axis=1)
    return (np.ravel_multi_index(src.T, dims) * nt + arrival,
            np.ravel_multi_index(dst.T, dims) * nt + lo,
            np.maximum(hi - lo + 1, 0))


def _edge_count(network: Network, horizon: int, events: int, widths) -> int:
    """Edges of the flow network, in closed form: per step, one buffer edge
    per node (when ``B > 0``) and one transmit edge per link; one
    super-source edge per source event; one edge per destination copy in
    each window; one unit sink edge per live request."""
    per_step = network.num_edges() + (network.n if network.buffer_size > 0 else 0)
    return per_step * max(horizon, 0) + events + int(widths.sum()) + len(widths)


def _edges(network: Network, horizon: int, events, counts, first_copy, widths):
    """The flow network as ``(tail, head, cap)`` arrays.

    Space-time vertex ``(v, t)`` is ``node_index(v) * (horizon + 1) + t``;
    request ``i``'s unit sink, the super-source and the super-sink follow.
    """
    n, d, dims, nt = network.n, network.d, network.dims, horizon + 1
    sinks = n * nt + np.arange(len(widths))
    source, sink = n * nt + len(widths), n * nt + len(widths) + 1
    steps = np.arange(max(horizon, 0))
    node = np.arange(n)
    coords = np.unravel_index(node, dims)
    tails, heads, caps = [], [], []

    def add(tail, head, cap):
        tails.append(tail)
        heads.append(head)
        caps.append(np.broadcast_to(cap, tail.shape))

    if network.buffer_size > 0:
        tail = (node[:, None] * nt + steps).ravel()
        add(tail, tail + 1, network.buffer_size)
    cap_flat = network.capacity_array()
    for axis, (l, wrap) in enumerate(zip(dims, network.wrap)):
        # this axis's links; on a wrapping axis the seam l - 1 -> 0 too
        has = coords[axis] < (l if wrap and l > 1 else l - 1)
        u = node[has]
        head = [c[has] for c in coords]
        head[axis] = (head[axis] + 1) % l
        v = np.ravel_multi_index(head, dims)
        cap = network.capacity if cap_flat is None else \
            np.repeat(cap_flat[u * d + axis], len(steps))
        add((u[:, None] * nt + steps).ravel(),
            (v[:, None] * nt + steps + 1).ravel(), cap)
    add(np.full(len(events), source), events, counts)
    # request i's window: first_copy[i] + 0 .. widths[i] - 1
    offset = np.arange(widths.sum()) - np.repeat(np.cumsum(widths) - widths, widths)
    add(np.repeat(first_copy, widths) + offset, np.repeat(sinks, widths), 1)
    add(sinks, np.full(len(widths), sink), 1)
    # the flow is at most one unit per live request, so capping every
    # capacity there changes no max flow and keeps it inside scipy's int32
    cap = np.minimum(np.concatenate(caps), len(widths)).astype(np.int32)
    return np.concatenate(tails), np.concatenate(heads), cap


def throughput_upper_bound(network: Network, requests, horizon: int) -> int:
    """Single-commodity max-flow upper bound on offline throughput.

    Builds the (tilted) space-time flow network over times ``0..horizon``:
    transmit edges of capacity ``c``, buffer edges of capacity ``B``, a
    super-source fanning into the requests' source events, and per-request
    unit sinks collecting the valid destination copies
    ``(b_i, t')`` for ``t_i <= t' <= min(d_i, horizon)``.

    Raises :class:`ValidationError` when the network would have more than
    :data:`MAX_EDGES` edges or vertices.
    """
    T = int(horizon)
    source_events, first_copy, widths = _windows(network, requests, T)
    events, counts = np.unique(source_events, return_counts=True)
    edges = _edge_count(network, T, len(events), widths)
    vertices = network.n * (T + 1) + len(widths) + 2
    if max(edges, vertices) > MAX_EDGES:
        raise ValidationError(
            f"max-flow network too large ({edges} edges, {vertices} vertices "
            f"> MAX_EDGES = {MAX_EDGES}); shrink the network, the horizon or "
            "the request set"
        )
    # imported on first use: nothing else in repro loads csgraph, which
    # would add about 1 MB of peak memory to every sweep without a bound
    from scipy.sparse.csgraph import maximum_flow

    tail, head, cap = _edges(network, T, events, counts, first_copy, widths)
    graph = csr_matrix((cap, (tail, head)), shape=(vertices, vertices))
    return int(maximum_flow(graph, vertices - 2, vertices - 1).flow_value)
