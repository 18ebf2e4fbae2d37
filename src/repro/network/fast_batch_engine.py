"""The array loop: any number of scenarios as one array program.

:func:`_run_stack` is the only array implementation of the Model 1 step
(Section 2.1); Model 2 (Appendix F) runs on it as one more decision
program (``FastModel2Engine``).  It executes independent jobs -- each a
``(network, policy, requests, horizon)`` quadruple -- *together*: every
per-packet array carries all jobs' requests, nodes get per-scenario id
offsets so no contention group ever mixes scenarios, and each global
tick resolves the decisions of *all* scenarios in one grouped
sort/scatter pass (:mod:`repro.network.kernel` picks the sort).
:class:`FastBatchEngine` runs a whole sweep as one stack, or as few
stacks as :data:`MAX_CELLS` allows (numpy call overhead is paid once per
tick, not once per tick per scenario);
:class:`~repro.network.fast_engine.FastEngine` is a stack
of one job.

Memory model (padding and masking)
----------------------------------
Jobs are concatenated, not tiled: a row exists per *request*, so memory
is ``O(total requests x d_max)``.  Coordinate arrays are padded to the
widest grid dimension ``d_max`` with zeros and the padded dims have side
1, so padded axes never show distance-to-go and have no outgoing edges.
Each packet carries its global node id, advanced along a per-(node,
axis) head table built once per run.  A scenario whose horizon passed
freezes its stranded packets while the others keep ticking, and its
step count is recovered from when its last packet left -- where its own
loop would have stopped.

Policy multiplexing
-------------------
Rows are grouped per step by decision *program*:

* the greedy family -- *every* greedy job, whatever its
  ``fast_priority``, merges into one :class:`_StackedGreedyProgram`;
* native vector policies that declare a ``batch_program`` label (the
  opt-in that their ``decide_vector`` is *group-local*: decisions within
  a node group depend only on that group's rows) merge per label;
* :class:`~repro.network.simulator.PlanPolicy` replays compile into one
  position-indexed :class:`_StackedPlanProgram`.

A stack of exactly one job also runs what only mixing jobs makes
unsafe: vector policies without a ``batch_program`` label, policies with
per-step state (``on_step_begin``), and scalar policies lifted by
:class:`~repro.network.fast_engine.BatchedPolicyAdapter` -- which cannot
join a multi-job stack (see :meth:`FastBatchEngine.unsupported_reason`).

Every result is bit-identical to the reference engine's for its job --
identical ``status`` maps, counters and step accounting -- which is what
lets ``run_batch`` stack scenarios freely without perturbing the result
cache (fuzz-enforced by ``tests/test_differential.py``).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.network import kernel
from repro.network.engine import StepView, VectorDecision
from repro.network.fast_engine import (
    _DELIVERED,
    _INJECTED,
    _LATE,
    _PREEMPTED,
    _REJECTED,
    _finalize_result,
    _lift,
    _priority_keys,
    BatchedPolicyAdapter,
    FastEngine,
    greedy_masks,
)
from repro.network.packet import RequestTable
from repro.network.simulator import Policy
from repro.network.stats import NetworkStats
from repro.network.trace import TraceRecorder
from repro.util.errors import CapacityError, ValidationError

#: largest stack :func:`_run_stack` builds, in array cells: total nodes x
#: ``d`` (the per-node geometry and the load table) and total requests x
#: ``d`` (the per-packet arrays) are each refused above it.  A stack
#: peaks at about 60 bytes a node cell (measured on 1000x1000 and
#: 2000x2000 grids), so about 1 GB at the cap.
#: :meth:`FastBatchEngine.run_many` cuts a sweep into stacks under it, so
#: only a single job above it is refused
MAX_CELLS = 16_000_000


class _StackedNetworkView:
    """The ``view.network`` of a stacked step.

    ``d`` is the widest grid dimension of the stack; ``buffer_size`` and
    ``capacity`` are scalars when every stacked network shares them and
    arrays aligned with the view's rows otherwise.  ``dims``/``wrap``
    are the side lengths and wraparound flags, broadcastable against the
    view's ``(k, d)`` coordinates (both ``None`` when no stacked
    scenario wraps), and ``cap_flat`` the global per-``(node, axis)``
    capacity table (``None`` when the stack shares one uniform ``c``).
    Decision programs must read the network only through these
    attributes and the geometry methods below, which mirror
    :class:`~repro.network.topology.Network`'s -- :func:`greedy_masks`
    does.
    """

    __slots__ = ("d", "buffer_size", "capacity", "dims", "wrap", "cap_flat")

    def __init__(self, d: int, buffer_size, capacity, dims=None, wrap=None,
                 cap_flat=None):
        self.d = d
        self.buffer_size = buffer_size
        self.capacity = capacity
        self.dims = dims
        self.wrap = wrap
        self.cap_flat = cap_flat

    def togo_array(self, loc, dst):
        togo = dst - loc
        if self.wrap is not None:
            togo = np.where(self.wrap, togo % self.dims, togo)
        return togo

    def hops_array(self, src, loc):
        hops = loc - src
        if self.wrap is not None:
            hops = np.where(self.wrap, hops % self.dims, hops)
        return hops

    def edge_capacity(self, node_id, axis):
        if self.cap_flat is None:
            return self.capacity
        return self.cap_flat[node_id * self.d + axis]


class _StackedPlanProgram:
    """Plan replay on the decision ABI: per-packet action tables.

    Compiled once per run from the ``(rid, t)`` action maps of every
    :class:`~repro.network.simulator.PlanPolicy` job of the stack, each
    covering its own slice of request positions: the packet at position
    ``i`` performs ``codes[offset[i] + (t - t0[i])]`` at time ``t`` when
    ``0 <= t - t0[i] < length[i]``; code ``axis < d`` forwards, code
    ``d`` stores, ``-1`` (or no table entry) deletes.
    """

    def __init__(self, d: int, rid, plans):
        n = len(rid)
        self._d = d
        self._t0 = np.zeros(n, dtype=np.int64)
        self._len = np.zeros(n, dtype=np.int64)
        self._off = np.zeros(n, dtype=np.int64)
        chunks = []
        pos = 0
        for policy, rows in plans:  # rows: the job's request positions
            by_rid: dict = {}
            for (r, t), action in policy.actions.items():
                by_rid.setdefault(r, {})[t] = action
            for i in range(rows.start, rows.stop):
                acts = by_rid.get(int(rid[i]))
                if not acts:
                    continue
                times = sorted(acts)
                self._t0[i] = times[0]
                self._len[i] = times[-1] - times[0] + 1
                codes = np.full(self._len[i], -1, dtype=np.int64)
                for t, action in acts.items():
                    codes[t - times[0]] = d if action[0] == "S" else action[1]
                self._off[i] = pos
                pos += len(codes)
                chunks.append(codes)
        self._codes = (np.concatenate(chunks) if chunks
                       else np.empty(0, dtype=np.int64))

    def decide_vector(self, view: StepView) -> VectorDecision:
        i = view.index
        rel = view.t - self._t0[i]
        has = (rel >= 0) & (rel < self._len[i])
        code = np.full(view.size, -1, dtype=np.int64)
        if has.any():
            code[has] = self._codes[self._off[i[has]] + rel[has]]
        fwd_mask = (code >= 0) & (code < self._d)
        store_mask = code == self._d
        return VectorDecision(forward=fwd_mask, axis=np.maximum(code, 0),
                              store=store_mask)


#: per-request priority codes of the merged greedy program
_GREEDY_CODES = {"fifo": 0, "lifo": 1, "longest": 2, "ntg": 3}


class _StackedGreedyProgram:
    """Every greedy-family job of a stack as *one* decision program.

    When every job shares one priority, rows are ranked on that
    priority's own key tuple.  A mixed stack selects each row's sort
    keys by its job's priority code: contention groups are
    scenario-local (node ids carry per-scenario offsets), so rows of
    different priorities never meet in a group and every group ranks
    exactly as under its job's own priority.  The unified key tuple
    appends a redundant final ``rid`` key where a priority's own tuple
    is shorter; within a priority-pure group that is a no-op (the order
    is already total by then).  One program instead of one per priority
    keeps the per-tick cost flat in the number of priority families a
    sweep mixes.
    """

    __slots__ = ("_priority", "_pcode")

    def __init__(self, priority: str, pcode=None):
        self._priority = priority  # every row's priority (pcode is None)
        self._pcode = pcode  # priority code per global request position

    def decide_vector(self, view: StepView):
        arrival, rid = view.arrival, view.rid
        if self._pcode is None:
            remaining = view.remaining() \
                if self._priority in ("longest", "ntg") else None
            return greedy_masks(view, _priority_keys(
                self._priority, arrival, rid, remaining))
        p = self._pcode[view.index]
        remaining = view.remaining()
        # fifo: (arrival, rid) / lifo: (-arrival, -rid)
        # longest: (-remaining, arrival, rid) / ntg: (remaining, arrival, rid)
        k1 = np.where(p == 0, arrival,
                      np.where(p == 1, -arrival,
                               np.where(p == 2, -remaining, remaining)))
        k2 = np.where(p == 0, rid, np.where(p == 1, -rid, arrival))
        k3 = np.where(p == 1, -rid, rid)
        return greedy_masks(view, (k1, k2, k3))


def _steps_stateless(policy) -> bool:
    """True when the policy never observes step boundaries -- required to
    share one stacked clock across scenarios."""
    fn = getattr(type(policy), "on_step_begin", None)
    return fn is None or fn is Policy.on_step_begin


def _assign_programs(jobs, d, off, cnt, rid):
    """``(programs, prog_of_job)``: one entry per distinct decision
    program, and each job's program index.  All plan jobs compile into
    a single merged program over global request positions, and all
    greedy-family jobs (any mix of priorities) merge into one
    :class:`_StackedGreedyProgram` -- the per-tick cost is per
    *program*, so merging keeps it flat in sweep heterogeneity."""
    programs: list = []
    prog_key: dict = {}
    prog_of_job = np.zeros(len(jobs), dtype=np.int64)
    merged: dict = {"plan": [], "greedy": []}
    for b, (network, policy, _requests, _horizon) in enumerate(jobs):
        kind = _lift(policy)
        program = None  # plan and greedy jobs are merged below
        if kind == "native":
            key = (kind, type(policy), getattr(policy, "batch_program", None))
            program = policy
        elif kind == "scalar":  # only a stack of one job gets here
            key = (kind, b)
            program = BatchedPolicyAdapter(policy, network)
        else:
            key = (kind,)
            merged[kind].append(b)
        pid = prog_key.setdefault(key, len(programs))
        if pid == len(programs):
            programs.append(program)
        prog_of_job[b] = pid

    def rows_of(b):
        return slice(off[b], off[b] + cnt[b])

    if merged["greedy"]:
        names = [jobs[b][1].fast_priority for b in merged["greedy"]]
        pcode = None
        if len(set(names)) > 1:
            pcode = np.zeros(rid.size, dtype=np.int64)
            for b, name in zip(merged["greedy"], names):
                pcode[rows_of(b)] = _GREEDY_CODES[name]
        programs[prog_key[("greedy",)]] = _StackedGreedyProgram(names[0],
                                                                pcode)
    if merged["plan"]:
        programs[prog_key[("plan",)]] = _StackedPlanProgram(
            d, rid, [(jobs[b][1], rows_of(b)) for b in merged["plan"]])
    return programs, prog_of_job


def _check_decision(decision, view, head, cap, B, node_job, max_link_j,
                    max_buf_j, table):
    """Validate one program's :class:`VectorDecision` and account the
    per-scenario load maxima; returns ``(forward, axis, store, heads)``
    with ``axis``/``heads`` over the forwarded rows only.  ``table`` is
    the run's zeroed count table (see :func:`_enforce_loads`).

    The engine, not the policy, enforces the model: overlapping masks,
    unknown axes and forwards along a missing edge raise
    :class:`~repro.util.errors.ValidationError`; link loads above ``c``
    and buffer loads above ``B`` raise
    :class:`~repro.util.errors.CapacityError` -- the same contract the
    reference engine's validator applies to scalar decisions.  Programs
    are per-scenario, so a contention group never spans programs and
    per-call accounting is exact.  ``node_job`` maps global node ids to
    scenarios (``None`` in a stack of one job).
    """
    fwd_mask = np.asarray(decision.forward, dtype=bool)
    store_mask = np.asarray(decision.store, dtype=bool)
    axis_arr = np.asarray(decision.axis, dtype=np.int64)
    k, d = view.size, view.network.d
    if fwd_mask.shape != (k,) or store_mask.shape != (k,) \
            or axis_arr.shape != (k,):
        raise ValidationError(
            f"vector decision shapes {fwd_mask.shape}/{axis_arr.shape}/"
            f"{store_mask.shape} do not match the step view ({k} rows)"
        )
    both = fwd_mask & store_mask
    if both.any():
        i = int(np.flatnonzero(both)[0])
        raise ValidationError(f"packet {int(view.rid[i])} scheduled twice")

    fa = axis_arr[fwd_mask]
    heads = fa
    if fa.size:
        if ((fa < 0) | (fa >= d)).any():
            raise ValidationError(
                f"vector decision names an axis outside 0..{d - 1}")
        edge = view.node_id[fwd_mask] * d + fa
        heads = head[edge]
        if (heads < 0).any():
            i = int(np.flatnonzero(heads < 0)[0])
            raise ValidationError(
                f"node {tuple(view.loc[fwd_mask][i])} has no outgoing axis "
                f"{int(fa[i])}{_scenario(node_job, edge[i] // d)}")
        _enforce_loads(edge, d, cap, node_job, max_link_j,
                       "decision forwards {} > c={} on a link", table)
    if store_mask.any():
        _enforce_loads(view.node_id[store_mask], 1, B, node_job, max_buf_j,
                       "decision stores {} > B={} at a node", table)
    return fwd_mask, fa, store_mask, heads


def _scenario(node_job, node) -> str:
    """Error-message suffix naming ``node``'s scenario in a multi-job
    stack (empty in a stack of one job)."""
    if node_job is None:
        return ""
    return f" (batch scenario {int(node_job[node])})"


def _enforce_loads(groups, per_node, limit, node_job, maxima, message,
                   table) -> None:
    """Count rows per contention group, raise
    :class:`~repro.util.errors.CapacityError` where a count exceeds
    ``limit`` (a scalar, or a table over group ids) -- naming the
    smallest such group -- and raise each scenario's recorded maximum.
    Group ``g`` sits at node ``g // per_node``.

    ``table`` is a zeroed int array over every group id of the run: the
    rows are added into it, each row reads back its group's count, and
    the touched entries are zeroed again, so one table serves every call
    of a run at a cost in rows, not in groups."""
    np.add.at(table, groups, 1)
    counts = table[groups]
    table[groups] = 0
    limits = limit if np.isscalar(limit) else limit[groups]
    over = counts > limits
    if over.any():
        g = groups[over].min()
        i = int(np.flatnonzero(groups == g)[0])
        raise CapacityError(
            message.format(int(counts[i]),
                           int(np.broadcast_to(limits, over.shape)[i]))
            + _scenario(node_job, g // per_node))
    if node_job is None:
        maxima[0] = max(maxima[0], counts.max())
    else:
        np.maximum.at(maxima, node_job[groups // per_node], counts)


def _run_stack(jobs, engine: str) -> list:
    """Run ``(network, policy, requests, horizon)`` jobs as one array
    program; one :class:`~repro.network.simulator.SimulationResult` per
    job, in job order, labelled ``engine``.

    A job's requests may be any sequence; the loop reads the table that
    :meth:`~repro.network.topology.Network.check_requests` returns for it.
    The policies see a stack of one job as that table, and a stack of
    several jobs of one dimension as one table over the stacked columns
    (equal request objects, built only if a policy reads one); a padded
    stack builds every job's objects.

    Policies must already be eligible for the stack (the engine
    constructors check).  A stack above :data:`MAX_CELLS` is refused with
    a :class:`~repro.util.errors.ValidationError` once its jobs are
    checked, before any per-node or per-packet array of the stack is
    allocated.  Each job keeps the semantics of its own loop
    over ``0..horizon``: it stops early once its packets drained and no
    arrivals are left, and packets still in flight when its horizon ends
    are preempted.
    """
    m = len(jobs)
    if m == 0:
        return []
    d = max(job[0].d for job in jobs)

    # -- per-scenario geometry and capacities -------------------------------
    dims = np.ones((m, d), dtype=np.int64)
    wrap = np.zeros((m, d), dtype=bool)
    n_nodes = np.zeros(m, dtype=np.int64)
    cnt = np.zeros(m, dtype=np.int64)
    horizon = np.zeros(m, dtype=np.int64)
    B_j = np.zeros(m, dtype=np.int64)
    c_j = np.zeros(m, dtype=np.int64)
    seqs: list = []
    parts: list = []
    for b, (network, _policy, requests, h) in enumerate(jobs):
        requests = network.check_requests(requests)
        seqs.append(requests)
        cnt[b], horizon[b], n_nodes[b] = len(requests), int(h), network.n
        B_j[b], c_j[b] = network.buffer_size, network.capacity
        dims[b, :network.d] = network.dims
        wrap[b, :network.d] = network.wrap
        src, dst, arrival, deadline, rid = requests.columns()
        if network.d < d:  # padded axes: coordinate 0 on a side of 1
            pad = ((0, 0), (0, d - network.d))
            src, dst = np.pad(src, pad), np.pad(dst, pad)
        parts.append((src, dst, arrival, deadline, rid))
    nodes, rows = int(n_nodes.sum()), int(cnt.sum())
    if max(nodes, rows) * d > MAX_CELLS:
        raise ValidationError(
            f"stack too large: {m} job(s) with {rows} request(s) on {nodes} "
            f"node(s) of dimension {d} need {max(nodes, rows) * d} array "
            f"cells > MAX_CELLS = {MAX_CELLS}; shrink the grid or the "
            "request set")
    # the loop writes only to its own arrays (loc is a copy), so the
    # columns may be a table's read-only ones
    if m == 1:
        src, dst, arrival, deadline, rid = parts[0]
        reqs_all = seqs[0]
    else:
        src, dst, arrival, deadline, rid = (
            np.concatenate(column) for column in zip(*parts))
        # unpadded, the stacked columns are every job's requests in order
        reqs_all = RequestTable(src, dst, arrival, deadline, rid) \
            if all(job[0].d == d for job in jobs) \
            else tuple(itertools.chain.from_iterable(seqs))
    off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    bid = np.repeat(np.arange(m), cnt)

    # global node ids: row-major inside each scenario, offset per scenario;
    # head[node * d + axis] is the node an edge leads to (-1: no edge)
    node_off = np.concatenate(([0], np.cumsum(n_nodes)[:-1]))
    node_job = np.repeat(np.arange(m), n_nodes)
    strides = np.ones((m, d), dtype=np.int64)
    strides[:, :-1] = np.cumprod(dims[:, :0:-1], axis=1)[:, ::-1]
    node = np.arange(node_job.size)[:, None]
    side, stride = dims[node_job], strides[node_job]
    coord = ((node[:, 0] - node_off[node_job])[:, None] // stride) % side
    head = np.where(coord + 1 < side, node + stride,
                    np.where(wrap[node_job] & (side > 1),
                             node - coord * stride, -1)).ravel()
    any_wrap = bool(wrap.any())
    nid = node_off[bid] + (src * strides[bid]).sum(axis=1)
    dnid = node_off[bid] + (dst * strides[bid]).sum(axis=1)

    # B and c stay scalars when the whole stack shares them
    B = int(B_j[0]) if (B_j == B_j[0]).all() else B_j[node_job]
    c_shared = bool((c_j == c_j[0]).all())
    link_caps = [b for b, job in enumerate(jobs) if job[0].link_caps]
    if not link_caps and c_shared:
        cap = int(c_j[0])
    else:  # per-(node, axis) table, link_caps overrides included
        cap = np.repeat(c_j[node_job], d)
        for b in link_caps:
            network = jobs[b][0]
            block = cap[node_off[b] * d:(node_off[b] + network.n) * d]
            block.reshape(network.n, d)[:, :network.d] = \
                network.capacity_array().reshape(network.n, network.d)

    programs, prog_of_job = _assign_programs(jobs, d, off, cnt, rid)
    prog_row = prog_of_job[bid] if len(programs) > 1 else None
    hooks = [p.on_step_begin for p in programs if not _steps_stateless(p)]
    job_of = node_job if m > 1 else None

    # -- mutable packet state -----------------------------------------------
    # loc is a fresh C-ordered copy, so loc_flat is a view of it: the
    # position update writes loc_flat[row * d + axis]
    loc = src.copy()
    loc_flat = loc.reshape(-1)
    table = np.zeros(head.size, dtype=np.int64)  # _enforce_loads' counts
    alive = np.zeros(rid.size, dtype=bool)
    scode = np.zeros(rid.size, dtype=np.int64)  # _PENDING
    left_t = np.full(rid.size, -1, dtype=np.int64)  # delivery or drop step
    forwards_j = np.zeros(m, dtype=np.int64)
    stores_j = np.zeros(m, dtype=np.int64)
    max_link_j = np.zeros(m, dtype=np.int64)
    max_buf_j = np.zeros(m, dtype=np.int64)

    def view_of(rows, node_id):
        job = node_job[node_id] if m > 1 else None
        geometry = (None, None)
        if any_wrap:
            geometry = (dims[0], wrap[0]) if m == 1 \
                else (dims[job], wrap[job])
        network = _StackedNetworkView(
            d, B if np.isscalar(B) else B[node_id],
            int(c_j[0]) if c_shared else c_j[job], *geometry,
            None if np.isscalar(cap) else cap)
        return StepView(
            t=t, network=network, requests=reqs_all, index=rows,
            node_id=node_id, loc=loc.take(rows, axis=0),
            src=src.take(rows, axis=0), dst=dst.take(rows, axis=0),
            arrival=arrival[rows], deadline=deadline[rows], rid=rid[rows],
            batch=job,
        )

    # arrivals past their scenario's horizon are never revealed
    inj = kernel.injection_order(arrival)
    inj = inj[arrival[inj] <= horizon[bid[inj]]]
    first = np.searchsorted(arrival[inj],
                            np.arange(int(horizon.max()) + 2)).tolist()
    expiry = np.argsort(horizon, kind="stable").tolist()
    ends = horizon.tolist()
    expired = 0
    last_arrival = int(arrival.max()) if rid.size else -1
    n_live = 0

    for t in range(int(horizon.max()) + 1):
        while expired < m and ends[expiry[expired]] < t:
            # stranded past the horizon: frozen in flight, preempted later
            b = expiry[expired]
            rows = slice(off[b], off[b] + cnt[b])
            n_live -= int(np.count_nonzero(alive[rows]))
            alive[rows] = False
            expired += 1
        if n_live == 0 and t > last_arrival:
            break
        for hook in hooks:
            hook(t)

        # local inputs revealed at time t
        if first[t + 1] > first[t]:
            alive[inj[first[t]:first[t + 1]]] = True
            n_live += first[t + 1] - first[t]
        if n_live == 0:
            continue
        act = np.flatnonzero(alive)

        # deliveries first (Section 2.1)
        at_dest = nid[act] == dnid[act]
        done = act[at_dest]
        if done.size:
            scode[done] = np.where(t <= deadline[done], _DELIVERED, _LATE)
            left_t[done] = t
            alive[done] = False
            n_live -= done.size
        rem = act[~at_dest]
        if rem.size == 0:
            continue

        node_id = nid[rem]
        moves = []
        for pid, program in enumerate(programs):
            if prog_row is None:
                rows, ids = rem, node_id
            else:
                mine = prog_row[rem] == pid
                rows, ids = rem[mine], node_id[mine]
                if rows.size == 0:
                    continue
            view = view_of(rows, ids)
            f, fa, s, heads = _check_decision(
                program.decide_vector(view), view, head, cap, B, job_of,
                max_link_j, max_buf_j, table)
            moves.append((rows[f], fa, heads, rows[s], rows[~(f | s)]))
        fwd, fa, heads, stored, dropped = moves[0] if len(moves) == 1 \
            else (np.concatenate(column) for column in zip(*moves))

        if fwd.size:
            cell = fwd * d + fa
            if any_wrap:
                # a head below its tail wrapped around to coordinate 0
                loc_flat[cell] = np.where(heads < nid[fwd], 0,
                                          loc_flat[cell] + 1)
            else:
                loc_flat[cell] += 1
            nid[fwd] = heads
            scode[fwd] = _INJECTED
            forwards_j += np.bincount(bid[fwd], minlength=m)
        if stored.size:
            scode[stored] = _INJECTED
            stores_j += np.bincount(bid[stored], minlength=m)
        if dropped.size:
            scode[dropped] = np.where(arrival[dropped] == t,  # at injection
                                      _REJECTED, _PREEMPTED)
            left_t[dropped] = t
            alive[dropped] = False
            n_live -= dropped.size

    # -- per-scenario results from the final status codes -------------------
    codes = np.bincount(bid * 6 + scode, minlength=6 * m).reshape(m, 6)
    last_left = np.full(m, -1, dtype=np.int64)
    np.maximum.at(last_left, bid, np.maximum(left_t, arrival))
    # a scenario's loop ends after its horizon, or once it has drained
    # with no arrivals left (in-flight packets keep it running)
    steps = np.where(codes[:, _INJECTED] > 0, horizon + 1,
                     np.minimum(horizon + 1, last_left + 1))
    delivered_t = np.where(scode >= _DELIVERED, left_t, -1)
    results: list = []
    for b in range(m):
        stats = NetworkStats(
            delivered=int(codes[b, _DELIVERED]), late=int(codes[b, _LATE]),
            rejected=int(codes[b, _REJECTED]),
            preempted=int(codes[b, _PREEMPTED]),
            forwards=int(forwards_j[b]), stores=int(stores_j[b]),
            max_link_load=int(max_link_j[b]),
            max_buffer_load=int(max_buf_j[b]), steps=int(steps[b]),
        )
        rows = slice(off[b], off[b] + cnt[b])
        results.append(_finalize_result(
            stats, scode[rows], rid[rows], delivered_t[rows],
            TraceRecorder(enabled=False), engine=engine))
    return results


class FastBatchEngine:
    """Run many Model 1 jobs as one stacked array program (or a few
    consecutive ones, when one would exceed :data:`MAX_CELLS`).

    ``jobs`` is a sequence of ``(network, policy, requests, horizon)``
    quadruples.  Construction raises
    :class:`~repro.util.errors.ValidationError` when a job's policy
    cannot join the stack (see :meth:`unsupported_reason`; a stack of
    exactly one job takes anything
    :class:`~repro.network.fast_engine.FastEngine` supports); callers
    wanting graceful fallback pre-filter with :meth:`supports` --
    exactly the contract :class:`~repro.network.fast_engine.FastEngine`
    has with :func:`~repro.network.engine.make_engine`.
    """

    def __init__(self, jobs):
        jobs = [tuple(job) for job in jobs]
        for i, (_network, policy, _requests, _horizon) in enumerate(jobs):
            reason = self.unsupported_reason(policy)
            # alone on the stack, a policy shares its clock and its
            # decision program with nobody
            if reason is not None and not (
                    len(jobs) == 1 and FastEngine.supports(policy)):
                raise ValidationError(
                    f"job {i} ({type(policy).__name__}) cannot join a "
                    f"stacked batch: {reason}"
                )
        self.jobs = jobs

    @classmethod
    def unsupported_reason(cls, policy) -> str | None:
        """Why ``policy`` cannot join a multi-job stack (None when it can).

        The batch-program forms mirror the fast engine's lifts minus the
        scalar adapter: plan replay, the built-in greedy priorities, and
        native vector policies that opt in with a ``batch_program``
        label.  The label asserts group-locality -- decisions inside one
        node's contention group depend only on that group's rows -- which
        is what makes stacking invisible to the policy.
        """
        if getattr(policy, "vectorize", True) is False:
            return "policy sets vectorize=False (pinned to the reference engine)"
        kind = _lift(policy)
        if kind == "plan":
            return None
        if kind == "native" and getattr(policy, "batch_program", None) is None:
            return ("native vector policy declares no batch_program "
                    "(the group-locality opt-in)")
        if kind in ("native", "greedy"):
            if not _steps_stateless(policy):
                return ("policy keeps per-step state (on_step_begin); "
                        "stacked scenarios share one clock")
            return None
        if kind is None:
            return "policy has no array decision program"
        return ("policy has no batch program (scalar policies run "
                "per-scenario through the batched adapter)")

    @classmethod
    def supports(cls, policy) -> bool:
        """True when ``policy`` can join a multi-job stack."""
        return cls.unsupported_reason(policy) is None

    def run_many(self) -> list:
        """Execute every job; one :class:`SimulationResult` per job, in
        job order, each bit-identical to a per-scenario run.

        Consecutive jobs share a stack while it stays within
        :data:`MAX_CELLS`, counted as :func:`_run_stack` counts them; a
        job that alone exceeds the cap is refused."""
        results, stack, nodes, rows, d = [], [], 0, 0, 0
        for job in self.jobs:
            network, _policy, requests, _horizon = job
            nodes, rows = nodes + network.n, rows + len(requests)
            d = max(d, network.d)
            if stack and max(nodes, rows) * d > MAX_CELLS:
                results += _run_stack(stack, "batch")
                stack, nodes, rows, d = [], network.n, len(requests), \
                    network.d
            stack.append(job)
        return results + _run_stack(stack, "batch")
