"""Tests for the Appendix F node models (experiment E14)."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import run_greedy
from repro.api import NetworkSpec, Scenario, WorkloadSpec, unavailable_reason
from repro.network.node_models import (
    FastModel2Engine,
    Model2LineSimulator,
    Model2Policy,
    model2_network_reason,
    ntg_priority,
    separation_instance,
)
from repro.network.packet import DeliveryStatus, Request
from repro.network.topology import LineNetwork
from repro.util.errors import ValidationError

import pytest


class TestSeparation:
    """Appendix F remark 1: Model 1 strictly stronger at B = c = 1."""

    def test_model1_keeps_both(self):
        net, reqs = separation_instance()
        res = run_greedy(net, reqs, 10)
        assert res.throughput == 2

    def test_model2_drops_one(self):
        net, reqs = separation_instance()
        res = Model2LineSimulator(net).run(reqs, 10)
        assert res.stats.delivered == 1


class TestModel2Engine:
    def test_single_packet(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        res = Model2LineSimulator(net).run([Request.line(0, 3, 0, rid=0)], 12)
        assert res.status[0] == DeliveryStatus.DELIVERED

    def test_throughput_at_most_b_per_node_step(self):
        # a node moves at most B packets per step in Model 2
        net = LineNetwork(3, buffer_size=2, capacity=1)
        reqs = [Request.line(0, 2, 0, rid=i) for i in range(4)]
        res = Model2LineSimulator(net).run(reqs, 20)
        assert res.stats.delivered <= 2 + 1  # B kept + later drain

    def test_requires_unit_capacity(self):
        with pytest.raises(ValidationError):
            Model2LineSimulator(LineNetwork(4, buffer_size=1, capacity=2))

    def test_deadline_late_not_credited(self):
        net = LineNetwork(5, buffer_size=1, capacity=1)
        # Model 2 cannot cut through: each hop costs a buffered step, so a
        # distance-4 deadline-4 packet plus a blocker cannot both make it
        reqs = [
            Request.line(0, 4, 0, deadline=8, rid=0),
            Request.line(0, 4, 0, deadline=8, rid=1),
        ]
        res = Model2LineSimulator(net).run(reqs, 30)
        assert res.stats.delivered + res.stats.late + res.stats.preempted + res.stats.rejected == 2

    def test_trivial_request(self):
        net = LineNetwork(3, buffer_size=1, capacity=1)
        res = Model2LineSimulator(net).run([Request.line(1, 1, 0, rid=0)], 5)
        assert res.status[0] == DeliveryStatus.DELIVERED

    def test_ntg_priority_key(self):
        from repro.network.packet import Packet

        near = Packet(request=Request.line(0, 1, 0, rid=0), location=(0,), injected_at=0)
        far = Packet(request=Request.line(0, 5, 0, rid=1), location=(0,), injected_at=0)
        assert ntg_priority(near) < ntg_priority(far)

    def test_model2_never_exceeds_buffer(self):
        net = LineNetwork(4, buffer_size=2, capacity=1)
        reqs = [Request.line(0, 3, t, rid=t) for t in range(6)]
        res = Model2LineSimulator(net).run(reqs, 30)
        assert res.stats.max_buffer_load <= 2

    def test_statuses_all_resolved(self):
        net = LineNetwork(4, buffer_size=1, capacity=1)
        reqs = [Request.line(0, 3, t, rid=t) for t in range(5)]
        res = Model2LineSimulator(net).run(reqs, 30)
        assert all(
            st != DeliveryStatus.PENDING and st != DeliveryStatus.INJECTED
            for st in res.status.values()
        )


class TestModel2NetworkRule:
    """One rule decides where Model 2 runs: both engine constructors, the
    fast engine's ``supports`` and the ``ntg-model2`` capability gate."""

    @pytest.mark.parametrize("spec, defined", [
        (NetworkSpec("grid", (3, 3), 1, 1), False),
        (NetworkSpec("ring", (4,), 1, 1), False),
        (NetworkSpec("line", (4,), 1, 2), False),
        # c = 1, but one link raised to 3: Model 2 moves one packet a step
        (NetworkSpec("line", (4,), 1, 1, link_caps=(((1,), 0, 3),)), False),
        (NetworkSpec("line", (4,), 1, 1), True),
    ], ids=["grid", "ring", "line-c2", "line-raised-link", "line"])
    def test_one_rule(self, spec, defined):
        network = spec.build()
        reason = model2_network_reason(network)
        assert (reason is None) == defined
        assert FastModel2Engine.supports(Model2Policy(), network) == defined
        for engine in (FastModel2Engine, Model2LineSimulator):
            if defined:
                engine(network)
            else:
                with pytest.raises(ValidationError, match=re.escape(reason)):
                    engine(network)
        scenario = Scenario(spec, WorkloadSpec("uniform", {"num": 4,
                                                           "horizon": 4}),
                            "ntg-model2", horizon=16)
        assert unavailable_reason(scenario) == reason


class TestScenarioParity:
    """The registered ``ntg-model2`` algorithm and ``separation`` workload
    (the declarative form of E14): the Appendix F remark-1 separation must
    reproduce through the Scenario layer, seeded end to end."""

    def _scenario(self, algorithm):
        from repro.api import NetworkSpec, Scenario, WorkloadSpec

        return Scenario(
            network=NetworkSpec("line", (3,), 1, 1),
            workload=WorkloadSpec("separation"),
            algorithm=algorithm,
            horizon=10,
            seed=0,
        )

    def test_separation_through_run(self):
        from repro.api import run

        model1 = run(self._scenario("ntg"))
        model2 = run(self._scenario("ntg-model2"))
        # Model 1 keeps both packets (store one, forward the other);
        # Model 2 funnels both through the single buffer slot and drops one
        assert model1.throughput == 2
        assert model2.throughput == 1
        assert model2.preempted + model2.rejected == 1

    def test_matches_direct_simulation(self):
        from repro.api import run

        net, reqs = separation_instance()
        direct = Model2LineSimulator(net).run(reqs, 10)
        report = run(self._scenario("ntg-model2"))
        assert report.throughput == direct.stats.delivered
        arrivals = {r.rid: r.arrival for r in reqs}
        latencies = [t - arrivals[rid]
                     for rid, t in direct.stats.delivery_times.items()]
        assert report.latency_mean == pytest.approx(
            sum(latencies) / len(latencies))

    def test_model2_records_delivery_times(self):
        net, reqs = separation_instance()
        res = Model2LineSimulator(net).run(reqs, 10)
        assert len(res.stats.delivery_times) == res.stats.delivered + res.stats.late

    def test_model2_registers_fast_engine_capability(self):
        # PR 4: Model 2 runs on the vectorized decision ABI -- the
        # registry advertises it and the capability gate still holds
        from repro.api import ALGORITHMS

        entry = ALGORITHMS.get("ntg-model2")
        assert entry.fast_engine == "vector"
        net = LineNetwork(4, buffer_size=1, capacity=2)
        assert entry.unavailable(net, 10) is not None  # c must be 1

    def test_model2_selects_fast_engine_no_fallback(self):
        from repro.api import run

        ref = run(self._scenario("ntg-model2").replace(engine="reference"))
        fast = run(self._scenario("ntg-model2").replace(engine="fast"))
        assert ref.engine == "reference"
        assert fast.engine == "fast"  # no silent reference fallback
        for field in ("requests", "throughput", "bound", "late", "rejected",
                      "preempted", "latency_mean", "latency_max", "steps"):
            assert getattr(ref, field) == getattr(fast, field), field


@st.composite
def model2_lines(draw):
    """A unit-capacity line, a priority, a horizon and its requests: some
    arrive past the horizon, some carry deadlines, rids are shuffled."""
    n = draw(st.integers(1, 24))
    B = draw(st.integers(0, 4))
    priority = draw(st.sampled_from(("ntg", "fifo", "lifo", "longest")))
    horizon = draw(st.integers(0, 40))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, horizon + 3),
                  st.one_of(st.none(), st.integers(0, 6))),
        max_size=40))
    rids = draw(st.permutations(range(len(rows))))
    reqs = [
        Request.line(min(a, b), max(a, b), t,
                     deadline=None if slack is None else t + abs(b - a) + slack,
                     rid=rid)
        for rid, (a, b, t, slack) in zip(rids, rows)
    ]
    return LineNetwork(n, buffer_size=B, capacity=1), priority, horizon, reqs


class TestModel2EngineParity:
    """Model2LineSimulator vs FastModel2Engine bit-identity."""

    STAT_FIELDS = (
        "delivered", "late", "rejected", "preempted", "forwards", "stores",
        "max_link_load", "max_buffer_load", "steps",
    )

    def _parity(self, net, reqs, horizon, priority="ntg"):
        from repro.network.node_models import FastModel2Engine, Model2Policy

        ref = Model2LineSimulator(net, Model2Policy(priority)).run(reqs, horizon)
        fast = FastModel2Engine(net, Model2Policy(priority)).run(reqs, horizon)
        for name in self.STAT_FIELDS:
            assert getattr(fast.stats, name) == getattr(ref.stats, name), name
        assert fast.status == ref.status
        assert fast.stats.delivery_times == ref.stats.delivery_times
        return ref, fast

    @pytest.mark.parametrize("priority", ["ntg", "fifo", "lifo", "longest"])
    @pytest.mark.parametrize("n,B", [(3, 1), (8, 1), (8, 2), (8, 0), (12, 3)])
    def test_uniform_parity(self, n, B, priority):
        from repro.workloads import uniform_requests

        net = LineNetwork(n, buffer_size=B, capacity=1)
        for seed in range(3):
            reqs = uniform_requests(net, 30, 12, rng=seed)
            self._parity(net, reqs, 80, priority)

    @settings(max_examples=200, deadline=None)
    @given(model2_lines())
    def test_random_lines_parity(self, case):
        net, priority, horizon, reqs = case
        self._parity(net, reqs, horizon, priority)

    def test_deadline_parity(self):
        from repro.workloads import deadline_requests

        net = LineNetwork(8, buffer_size=1, capacity=1)
        for seed in range(3):
            reqs = deadline_requests(net, 20, 10, slack=3, rng=seed, jitter=2)
            self._parity(net, reqs, 60)

    def test_separation_parity(self):
        net, reqs = separation_instance()
        ref, fast = self._parity(net, reqs, 10)
        assert ref.stats.delivered == 1
        assert ref.engine == "reference" and fast.engine == "fast"
        # one packet per link per step, counted by both engines
        assert ref.stats.max_link_load == fast.stats.max_link_load == 1

    def test_fast_model2_requires_line_and_unit_capacity(self):
        from repro.network.node_models import FastModel2Engine, Model2Policy

        with pytest.raises(ValidationError):
            FastModel2Engine(LineNetwork(4, buffer_size=1, capacity=2))
        assert not FastModel2Engine.supports(
            Model2Policy(), LineNetwork(4, buffer_size=1, capacity=2))
        assert FastModel2Engine.supports(
            Model2Policy(), LineNetwork(4, buffer_size=1, capacity=1))

    def test_fast_model2_rejects_trace(self):
        from repro.network.node_models import FastModel2Engine

        with pytest.raises(ValidationError):
            FastModel2Engine(LineNetwork(4, buffer_size=1, capacity=1),
                             trace=True)

    def test_make_engine_routes_node_model(self):
        from repro.network.engine import make_engine
        from repro.network.node_models import FastModel2Engine, Model2Policy

        net = LineNetwork(4, buffer_size=1, capacity=1)
        assert isinstance(make_engine(net, Model2Policy(), engine="fast"),
                          FastModel2Engine)
        assert isinstance(make_engine(net, Model2Policy(), engine="reference"),
                          Model2LineSimulator)
        # tracing needs the per-packet loop: fall back even under "fast"
        assert isinstance(
            make_engine(net, Model2Policy(), engine="fast", trace=True),
            Model2LineSimulator)
        # Model 2 is not a Model 1 policy: the Model 1 array engines must
        # refuse it rather than silently run Model 1
        from repro.network.fast_batch_engine import FastBatchEngine
        from repro.network.fast_engine import FastEngine

        with pytest.raises(ValidationError):
            FastEngine(net, Model2Policy())
        with pytest.raises(ValidationError, match="no array decision"):
            FastBatchEngine([(net, Model2Policy(), [], 4)])

    def test_model2_counts_buffered_stores(self):
        # "everything transits the buffer": a non-trivial Model 2 run
        # must report stores > 0 (and identically on both engines)
        from repro.workloads import uniform_requests

        from repro.network.node_models import Model2Policy

        net = LineNetwork(8, buffer_size=2, capacity=1)
        reqs = uniform_requests(net, 24, 8, rng=0)
        ref, fast = self._parity(net, reqs, 40)  # includes stores ref==fast
        assert ref.stats.stores > 0
        traced = Model2LineSimulator(net, Model2Policy(),
                                     trace=True).run(reqs, 40)
        assert traced.stats.stores == len(traced.trace.of_kind("store"))

    def test_model2_trace_records_two_phase_events(self):
        from repro.network.node_models import Model2Policy

        net, reqs = separation_instance()
        res = Model2LineSimulator(net, Model2Policy(), trace=True).run(reqs, 10)
        kinds = {e.kind for e in res.trace.events}
        assert "forward" in kinds and "deliver" in kinds
        assert res.trace.of_kind("deliver")[0].rid in res.status
        # a node never moves more than B packets in one step (App. F):
        # per (t, node), forwards <= c = 1 and forwards + stores <= B
        per_node_step: dict = {}
        for e in res.trace.events:
            if e.kind in ("forward", "store"):
                per_node_step.setdefault((e.t, e.node), []).append(e.kind)
        B = net.buffer_size
        for moves in per_node_step.values():
            assert moves.count("forward") <= 1
            assert len(moves) <= B
