"""Congestion + dilation throughput bound (arXiv:1206.3718).

Rothvoss's simpler proof of the O(congestion + dilation) packet-routing
theorem pairs two quantities: the *dilation* ``D`` (longest path a packet
must travel) and the *congestion* ``C`` (most loaded edge).  Read as a
converse, the same two quantities upper-bound what any offline schedule
can deliver by a horizon ``T``:

* **Dilation:** a request arriving at ``t`` with hop distance ``dist``
  and deadline ``D_r`` can only be delivered when
  ``t + dist <= min(D_r, T)``.  Infeasible requests never count.
* **Congestion:** on a uni-directional grid the per-axis planes a packet
  crosses are fixed by its endpoints -- a request from ``a`` to ``b``
  must cross the axis-``i`` cut at plane ``v`` (all edges from
  ``x_i = v`` to ``x_i = v + 1``) whenever its axis-``i`` travel passes
  ``v``, and the crossing step is confined to a window derived from its
  arrival and deadline.  The cut forwards at most its total edge
  capacity per step, so the deliverable subset of crossing requests is a
  unit-job scheduling problem with release times and deadlines, solved
  exactly by capacity-respecting EDF.

The exported :func:`cd_throughput_bound` takes the minimum of the
dilation count, every cut-congestion bound, and the single-commodity
max-flow relaxation (:func:`repro.packing.maxflow.throughput_upper_bound`).
Each term is a valid upper bound on the offline optimum, so the minimum
is too -- by construction never looser than max-flow, and strictly
tighter whenever a cut's per-request crossing windows rule out the
request/packet swaps that single-commodity flow cannot see (a unit of
flow may depart one request's source event yet be credited to another
request's deadline window; the cut argument pins every crossing to the
owning request's own window).
"""

from __future__ import annotations

import heapq

__all__ = ["cd_cut_bound", "cd_throughput_bound", "edf_max_scheduled"]


def edf_max_scheduled(jobs, cap: int) -> int:
    """Max number of unit jobs ``(release, deadline)`` schedulable on a
    ``cap``-capacity resource, one slot per job, both endpoints inclusive.

    Earliest-deadline-first over slots in increasing order is exact for
    unit-length jobs: at any slot, serving the waiting job with the
    smallest deadline never hurts (the standard exchange argument).
    """
    if cap <= 0 or not jobs:
        return 0
    jobs = sorted(jobs)  # by release, then deadline
    n, i, scheduled = len(jobs), 0, 0
    heap: list = []  # deadlines of released, still-waiting jobs
    t = jobs[0][0]
    while i < n or heap:
        if not heap:
            t = max(t, jobs[i][0])  # idle: jump to the next release
        while i < n and jobs[i][0] <= t:
            heapq.heappush(heap, jobs[i][1])
            i += 1
        while heap and heap[0] < t:
            heapq.heappop(heap)  # lapsed before a slot freed up
        served = 0
        while heap and served < cap:
            heapq.heappop(heap)
            scheduled += 1
            served += 1
        t += 1
    return scheduled


def _feasible(network, requests, horizon: int):
    """Dilation-feasible requests as ``(request, dist, latest)`` triples.

    The kept requests go through :meth:`~repro.network.topology.Network.
    check_requests`, so an invalid one raises its error instead of
    counting as deliverable.  Requests arriving after the horizon or
    unable to meet their deadline are dropped first, so they count 0."""
    out = []
    for r in requests:
        if r.arrival > horizon:
            continue
        dist = network.dist(r.source, r.dest)
        latest = horizon if r.deadline is None else min(r.deadline, horizon)
        if r.arrival + dist > latest:
            continue
        out.append((r, dist, latest))
    network.check_requests([r for r, _, _ in out])
    return out


def _axis_travel(network, a, b, axis: int) -> int:
    """Axis-``axis`` hops of the monotone travel ``a -> b``."""
    if network.wrap[axis]:
        return (b[axis] - a[axis]) % network.dims[axis]
    return b[axis] - a[axis]


def _cut_capacity(network, axis: int, plane: int) -> int:
    """Total per-step capacity of the axis-``axis`` cut at ``plane``."""
    return sum(
        network.capacity_of(node, axis)
        for node in network.nodes()
        if node[axis] == plane
    )


def cd_cut_bound(network, requests, horizon: int) -> int:
    """The pure congestion + dilation bound (no max-flow term).

    Minimum over the dilation-feasible count and, for every axis cut,
    ``(#feasible requests avoiding the cut) + EDF(crossing windows)``.

    A request crossing the cut at plane ``v`` must do so during a step
    ``t`` with ``arrival + steps <= t <= latest - (travel - steps)``
    where ``steps`` is its axis travel before the cut and ``travel`` its
    total axis travel: the crossing cannot happen before the packet has
    covered the axis distance to the plane, and enough time must remain
    after it for the rest of the axis distance.  Both ends are implied
    by any delivering schedule, so the EDF maximum upper-bounds the
    deliverable crossing subset.
    """
    feasible = _feasible(network, requests, horizon)
    if not feasible:
        return 0
    best = len(feasible)
    for axis in range(network.d):
        l = network.dims[axis]
        planes = range(l) if (network.wrap[axis] and l > 1) else range(l - 1)
        for plane in planes:
            jobs = []
            for r, dist, latest in feasible:
                travel = _axis_travel(network, r.source, r.dest, axis)
                steps = (plane - r.source[axis]) % l if network.wrap[axis] \
                    else plane - r.source[axis]
                if not 0 <= steps < travel:
                    continue  # this request never crosses the cut
                jobs.append((r.arrival + steps, latest - (travel - steps)))
            if not jobs:
                continue
            cap = _cut_capacity(network, axis, plane)
            crossed = edf_max_scheduled(jobs, cap)
            best = min(best, len(feasible) - len(jobs) + crossed)
    return best


def cd_throughput_bound(network, requests, horizon: int) -> int:
    """Offline throughput upper bound: C+D cut analysis sharpening max-flow.

    Returns ``min(cd_cut_bound, maxflow)`` -- never looser than the
    single-commodity max-flow relaxation, strictly tighter when a cut's
    per-request crossing windows bind.
    """
    from repro.packing.maxflow import throughput_upper_bound

    # checked here too: a zero cut bound returns before max-flow checks
    requests = network.check_requests(requests)
    cut = cd_cut_bound(network, requests, horizon)
    if cut == 0:
        return 0
    return min(cut, throughput_upper_bound(network, requests, horizon))
