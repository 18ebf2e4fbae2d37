"""Fractional multicommodity path packing (the paper's ``opt_f``).

The optimal fractional packing (Section 3.5) is a multicommodity flow and is
computed here as a sparse LP solved with scipy's HiGHS backend; scipy is
imported only when an LP is solved, so importing this module loads none of
it.  Because the untilted space-time graph is a monotone DAG, the
per-request variable set is restricted to the request's *window* --
vertices both reachable from the source event and able to reach a valid
destination copy -- which keeps the LP small.

Path-length bounds (Lemma 2): every monotone path between fixed endpoints
has the same hop count, so bounding path lengths by ``p_max`` is exactly a
restriction on which destination copies are allowed:

    ``hops = dist(a, b) + (col' - col_src) <= p_max``.

:func:`fractional_opt` therefore accepts ``pmax`` and implements
``opt_f(R | p_max)`` with no extra LP machinery, which is how bench E9
validates Lemma 2.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.network.topology import Network
from repro.util.errors import ValidationError

#: refuse to build LPs beyond this many variables (guards sweep mistakes)
MAX_VARIABLES = 400_000


def _window_columns(request, horizon, pmax):
    """``(col_src, col_dest_hi)``: the tilted columns a request's window
    spans (empty when ``col_dest_hi < col_src``)."""
    a, b = request.source, request.dest
    col_src = request.arrival - sum(a)
    t_hi = horizon if request.deadline is None else min(request.deadline, horizon)
    col_dest_hi = t_hi - sum(b)
    if pmax is not None:
        col_dest_hi = min(col_dest_hi, col_src + pmax - request.distance)
    return col_src, col_dest_hi


def _window_variables(network, request, horizon, pmax):
    """``(verts, vset, edges, copies)`` of ``request``'s untilted window
    (the vertices on some legal path): one LP variable per window edge
    (``(tail, axis)``, axis ``d`` = buffer) and one per destination
    copy."""
    a, b = request.source, request.dest
    d = network.d
    col_src, col_hi = _window_columns(request, horizon, pmax)
    verts = [
        (*x, col)
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(a, b)))
        for col in range(col_src, col_hi + 1)
        if 0 <= col + sum(x) <= horizon
    ]
    vset = set(verts)
    edges = []
    for v in verts:
        # space moves
        for axis in range(d):
            head = list(v)
            head[axis] += 1
            head = tuple(head)
            if head in vset:
                edges.append((v, axis))
        # buffer move
        if network.buffer_size > 0:
            head = (*v[:-1], v[-1] + 1)
            if head in vset:
                edges.append((v, d))
    copies = [(*b, col) for col in range(col_src, col_hi + 1)
              if (*b, col) in vset]
    return verts, vset, edges, copies


def _variable_count(network, request, horizon, pmax) -> int:
    """Closed-form ``len(edges) + len(copies)`` of
    :func:`_window_variables`, without building the window.

    A window vertex is a box point ``x`` (between source and destination)
    with a column ``col`` in the window's range and ``0 <= col + sum(x) <=
    horizon``, so everything depends on ``x`` only through its coordinate
    sum: counts per sum are the convolution of the per-axis side ranges,
    and the valid columns per sum are one interval.
    """
    a, b = request.source, request.dest
    col_src, col_hi = _window_columns(request, horizon, pmax)
    sides = [hi - lo + 1 for lo, hi in zip(a, b)]
    if col_hi < col_src or min(sides) < 1:
        return 0

    def per_sum(lengths):
        """Box points per coordinate sum, from ``sum(a)`` upward."""
        counts = np.ones(1, dtype=np.int64)
        for n in lengths:
            counts = np.convolve(counts, np.ones(n, dtype=np.int64))
        return counts, sum(a) + np.arange(counts.size)

    def columns(s, hi, gap):
        """Columns ``col <= hi`` with ``0 <= col + s`` and ``col + s + gap
        <= horizon`` (``gap`` 1: the edge's head is a step later)."""
        top = np.minimum(hi, horizon - s - gap)
        return np.maximum(top - np.maximum(col_src, -s) + 1, 0)

    total = int(columns(np.array([sum(b)]), col_hi, 0)[0])  # dest copies
    counts, s = per_sum(sides)
    if network.buffer_size > 0:
        total += int((counts * columns(s, col_hi - 1, 1)).sum())
    for axis, side in enumerate(sides):
        if side > 1:  # a space move along ``axis`` stays inside the box
            counts, s = per_sum(sides[:axis] + [side - 1] + sides[axis + 1:])
            total += int((counts * columns(s, col_hi, 1)).sum())
    return total


def fractional_opt(network: Network, requests, horizon: int,
                   pmax: int | None = None, return_details: bool = False):
    """Optimal fractional path packing ``opt_f(R)`` (or ``opt_f(R | pmax)``).

    Returns the throughput value; with ``return_details=True`` also a per-
    request array of served fractions.
    """
    requests = [r for r in network.check_requests(requests)
                if r.arrival <= horizon]
    if network.any_wrap:
        # the window construction encodes the closed-form grid metric
        raise ValidationError(
            "fractional_opt requires grid geometry (no wraparound axes); "
            "use throughput_upper_bound on rings and tori"
        )
    d = network.d
    B = network.buffer_size

    # refuse oversized LPs before materializing a single window
    size = sum(_variable_count(network, r, horizon, pmax) for r in requests)
    if size > MAX_VARIABLES:
        raise ValidationError(
            f"LP too large ({size} variables > {MAX_VARIABLES}); "
            "shrink the instance or use throughput_upper_bound"
        )

    # variable layout: per request, per window edge, plus one delivery
    # variable per destination copy.
    var_lo = []  # start index of each request's block
    var_edges = []  # per request: list of (tail, move) edges
    var_deliv = []  # per request: list of dest-copy vertices
    nvar = 0
    windows = []
    for r in requests:
        verts, vset, edges, copies = _window_variables(network, r, horizon,
                                                       pmax)
        windows.append((verts, vset))
        var_lo.append(nvar)
        var_edges.append(edges)
        var_deliv.append(copies)
        nvar += len(edges) + len(copies)
    if nvar == 0:
        return (0.0, np.zeros(len(requests))) if return_details else 0.0

    rows, cols, data = [], [], []
    rhs_ub = []
    nrow = 0

    # shared capacity constraints: sum_i f_{i,e} <= cap(e)
    cap_row: dict = {}
    for i, r in enumerate(requests):
        base = var_lo[i]
        for j, (tail, move) in enumerate(var_edges[i]):
            key = (tail, move)
            row = cap_row.get(key)
            if row is None:
                row = nrow
                cap_row[key] = row
                nrow += 1
                rhs_ub.append(B if move == d
                              else network.capacity_of(tail[:-1], move))
            rows.append(row)
            cols.append(base + j)
            data.append(1.0)

    # per-request demand: total delivered <= 1
    for i, r in enumerate(requests):
        base = var_lo[i] + len(var_edges[i])
        if not var_deliv[i]:
            continue
        row = nrow
        nrow += 1
        rhs_ub.append(1.0)
        for j in range(len(var_deliv[i])):
            rows.append(row)
            cols.append(base + j)
            data.append(1.0)

    # conservation (equality): per request, per window vertex:
    #   inflow - outflow - delivery = 0 at non-source vertices;
    #   at the source event: outflow + delivery - 1 <= ... handled by demand,
    #   conservation there is: inflow(=0) + injection - outflow - delivery = 0
    #   with injection implicit; we instead write outflow + delivery <= 1 via
    #   flow-balance: treat source as supplying up to 1 unit.
    erows, ecols, edata = [], [], []
    rhs_eq = []
    neq = 0
    for i, r in enumerate(requests):
        verts, vset = windows[i]
        base = var_lo[i]
        src = (*r.source, r.arrival - sum(r.source))
        # index edges by endpoint for this request
        out_at: dict = {}
        in_at: dict = {}
        for j, (tail, move) in enumerate(var_edges[i]):
            out_at.setdefault(tail, []).append(base + j)
            if move == d:
                head = (*tail[:-1], tail[-1] + 1)
            else:
                head = list(tail)
                head[move] += 1
                head = tuple(head)
            in_at.setdefault(head, []).append(base + j)
        dbase = base + len(var_edges[i])
        deliv_at = {v: dbase + j for j, v in enumerate(var_deliv[i])}
        for v in verts:
            if v == src:
                continue  # source supply handled by the demand row
            terms = []
            for var in in_at.get(v, ()):  # +inflow
                terms.append((var, 1.0))
            for var in out_at.get(v, ()):  # -outflow
                terms.append((var, -1.0))
            if v in deliv_at:  # -delivery
                terms.append((deliv_at[v], -1.0))
            if not terms:
                continue
            for var, coeff in terms:
                erows.append(neq)
                ecols.append(var)
                edata.append(coeff)
            rhs_eq.append(0.0)
            neq += 1
        # No explicit source row: conservation over the window DAG forces
        # source outflow to equal total deliveries, which the demand row
        # already caps at 1.

    # imported on first use, so only an LP solve loads scipy.optimize
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    A_ub = csr_matrix((data, (rows, cols)), shape=(nrow, nvar))
    b_ub = np.array(rhs_ub)
    A_eq = (
        csr_matrix((edata, (erows, ecols)), shape=(neq, nvar)) if neq else None
    )
    b_eq = np.array(rhs_eq) if neq else None

    # objective: maximize total delivery
    obj = np.zeros(nvar)
    for i in range(len(requests)):
        dbase = var_lo[i] + len(var_edges[i])
        for j in range(len(var_deliv[i])):
            obj[dbase + j] = -1.0

    res = linprog(
        obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if not res.success:
        raise ValidationError(f"LP solve failed: {res.message}")
    value = -float(res.fun)
    if not return_details:
        return value
    served = np.zeros(len(requests))
    for i in range(len(requests)):
        dbase = var_lo[i] + len(var_edges[i])
        served[i] = res.x[dbase : dbase + len(var_deliv[i])].sum()
    return value, served
