"""Tests for the repro.api Scenario layer: registries, specs, runner.

Extends the PR-1 determinism suite: scenario runs must be bit-identical
across serialization round-trips, process-pool sharding, and engines.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from repro.api import (
    ALGORITHMS,
    TOPOLOGIES,
    WORKLOADS,
    AlgorithmSpec,
    NetworkSpec,
    Scenario,
    ScenarioError,
    WorkloadSpec,
    algorithm_names,
    run,
    run_batch,
    unavailable_reason,
    workload_names,
)
from repro.util.errors import ValidationError


def line_scenario(algorithm="ntg", n=16, B=2, c=2, num=24, seed=0, **kw):
    return Scenario(
        network=NetworkSpec("line", (n,), B, c),
        workload=WorkloadSpec("uniform", {"num": num, "horizon": n}),
        algorithm=algorithm,
        horizon=4 * n,
        seed=seed,
        **kw,
    )


class TestRegistries:
    def test_builtin_algorithms_registered(self):
        assert {"det", "det2", "rand", "greedy", "ntg", "bufferless",
                "theorem13"} <= set(algorithm_names())

    def test_builtin_workloads_registered(self):
        assert {"uniform", "poisson", "bursty", "permutation", "deadline",
                "clogging", "dense-area", "distance-cascade",
                "crossfire"} <= set(workload_names())

    def test_topologies_registered(self):
        assert set(TOPOLOGIES.names()) >= {"line", "grid"}

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValidationError, match="registered"):
            ALGORITHMS.get("magic")

    def test_introspected_params(self):
        greedy = ALGORITHMS.get("greedy")
        assert greedy.params == ("priority",)
        uniform = WORKLOADS.get("uniform")
        assert set(uniform.params) == {"num", "horizon", "min_distance"}
        assert uniform.takes_rng
        assert not WORKLOADS.get("clogging").takes_rng

    def test_planner_adapter_exposes_factory_params(self):
        assert "lam" in ALGORITHMS.get("rand").params
        assert "k" in ALGORITHMS.get("det").params

    def test_validate_params_rejects_unknown(self):
        with pytest.raises(ValidationError, match="does not accept"):
            WORKLOADS.get("uniform").validate_params({"warp": 9})

    def test_validate_params_requires_required(self):
        with pytest.raises(ValidationError, match="requires parameters"):
            WORKLOADS.get("uniform").validate_params({"num": 5})

    def test_capability_metadata(self):
        net = NetworkSpec("line", (16,), 1, 1).build()
        assert ALGORITHMS.get("greedy").unavailable(net, 64) is None
        reason = ALGORITHMS.get("det").unavailable(net, 64)
        assert reason is not None and "B" in reason
        assert ALGORITHMS.get("bufferless").unavailable(net, 64) is not None

    def test_duplicate_registration_rejected(self):
        from repro.util.errors import ReproError

        with pytest.raises(ReproError, match="twice"):
            ALGORITHMS.add("greedy", lambda network, requests, horizon: None)

    def test_provider_reimport_is_idempotent(self):
        # a provider module re-executing its decorators (re-imported after
        # a failed provider load dropped it from sys.modules) must refresh
        # entries, not die with 'registered twice' or lose names
        import importlib
        import sys

        before = algorithm_names()
        sys.modules.pop("repro.baselines.greedy")
        try:
            importlib.import_module("repro.baselines.greedy")
        finally:
            assert "repro.baselines.greedy" in sys.modules
        assert algorithm_names() == before
        assert ALGORITHMS.get("greedy").params == ("priority",)


class TestSpecs:
    def test_network_spec_parse(self):
        spec = NetworkSpec.parse("8x8", 3, 3)
        assert spec.kind == "grid" and spec.dims == (8, 8)
        assert NetworkSpec.parse("64").kind == "line"

    def test_network_spec_build(self):
        net = NetworkSpec("grid", (4, 4), 2, 1).build()
        assert net.dims == (4, 4) and net.buffer_size == 2

    def test_params_frozen_and_sorted(self):
        a = WorkloadSpec("uniform", {"num": 5, "horizon": 8})
        b = WorkloadSpec("uniform", {"horizon": 8, "num": 5})
        assert a == b and hash(a) == hash(b)

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ValidationError, match="JSON scalar"):
            AlgorithmSpec("rand", {"lam": [1, 2]})

    def test_scenario_coercion(self):
        sc = Scenario(
            network={"kind": "line", "dims": [8], "B": 1, "c": 1},
            workload="clogging",
            algorithm="ntg",
            horizon=32,
        )
        assert isinstance(sc.network, NetworkSpec)
        assert sc.network.buffer_size == 1
        assert sc.workload == WorkloadSpec("clogging")
        assert sc.algorithm == AlgorithmSpec("ntg")

    def test_dict_round_trip(self):
        sc = line_scenario("rand", engine="fast")
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_json_round_trip(self):
        sc = line_scenario("det", B=3, c=3)
        again = Scenario.from_json(sc.to_json())
        assert again == sc
        assert json.loads(sc.to_json())["horizon"] == sc.horizon

    def test_missing_key_reports_field(self):
        with pytest.raises(ValidationError, match="horizon"):
            Scenario.from_dict({"network": {"kind": "line", "dims": [8]},
                                "workload": "uniform", "algorithm": "ntg"})

    def test_digest_stable_and_engine_free(self):
        sc = line_scenario()
        assert sc.digest() == Scenario.from_dict(sc.to_dict()).digest()
        # the engine must never influence results, so it is not hashed
        assert sc.digest() == sc.replace(engine="fast").digest()
        assert sc.digest() != sc.replace(seed=1).digest()
        assert sc.digest() != sc.replace(algorithm="greedy").digest()

    def test_instance_digest_ignores_algorithm(self):
        sc = line_scenario("ntg")
        assert sc.instance_digest() == sc.replace(algorithm="greedy").instance_digest()

    def test_same_instance_across_algorithms(self):
        ntg = line_scenario("ntg")
        greedy = ntg.replace(algorithm="greedy")
        _, reqs_a = ntg.build_instance()
        _, reqs_b = greedy.build_instance()
        assert [(r.source, r.dest, r.arrival) for r in reqs_a] == \
            [(r.source, r.dest, r.arrival) for r in reqs_b]


#: scenarios whose digests were computed once and must never change: the
#: digest keys the result cache, the bound cache, shard manifests and
#: queue chunks
PINNED = [
    (Scenario(network=NetworkSpec("line", (16,), 2, 2),
              workload=WorkloadSpec("uniform", {"num": 24, "horizon": 16}),
              algorithm="ntg", horizon=64),
     0xc9802b9e, 0xb6da8940),
    (Scenario(network=NetworkSpec("line", (16,), 3, 3,
                                  link_caps=[[[5], 0, 1]]),
              workload=WorkloadSpec("deadline",
                                    {"num": 20, "horizon": 16, "slack": 3}),
              algorithm=AlgorithmSpec("rand", {"lam": 0.5}), horizon=64,
              seed=7, engine="fast"),
     0x89ea9aa8, 0xa80a6247),
]

#: prints the digests of the batch in argv[1] (scenario dicts as JSON),
#: its batch digest, its pooled reports without the timing fields, and
#: the repro.analysis modules loaded by then
_DIGEST_SCRIPT = """
import json
import sys

from repro.api import Scenario, run_batch
from repro.api.dispatch import batch_digest

scenarios = [Scenario.from_dict(data) for data in json.loads(sys.argv[1])]
for scenario in scenarios:
    print(f"{scenario.digest():08x} {scenario.instance_digest():08x}")
print(batch_digest(scenarios))
for report in run_batch(scenarios, workers=2):
    data = report.to_dict()
    del data["wall_time"], data["engine_time"]
    print(json.dumps(data, sort_keys=True))
print(sorted(name for name in sys.modules if name.startswith("repro.analysis")))
"""


class TestDigestStability:
    def test_pinned_digests(self):
        for scenario, digest, instance_digest in PINNED:
            assert scenario.digest() == digest
            assert scenario.instance_digest() == instance_digest

    def _run_with_hashseed(self, hashseed: str, scenarios) -> str:
        batch = json.dumps([s.to_dict() for s in scenarios])
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, batch],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=hashseed,
                     PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_stable_across_hash_randomization(self):
        # hash(str) differs between the two processes; digests, the batch
        # digest and the pooled reports must not
        scenarios = [scenario for scenario, _, _ in PINNED] + [
            line_scenario(name, n=12, B=3, c=3, num=18, seed=seed)
            for name in ("greedy", "rand", "det2")
            for seed in range(2)
        ]
        a = self._run_with_hashseed("12345", scenarios)
        b = self._run_with_hashseed("54321", scenarios)
        assert a == b
        lines = a.splitlines()
        assert lines[:2] == [f"{d:08x} {i:08x}" for _, d, i in PINNED]
        assert sum(line.startswith("{") for line in lines) == len(scenarios)
        # run and run_batch measure on their own: no repro.analysis import
        assert lines[-1] == "[]"


class TestRun:
    def test_report_shape(self):
        report = run(line_scenario())
        assert 0 <= report.throughput <= report.requests == 24
        assert report.bound >= report.throughput
        assert report.ratio >= 1.0
        assert report.engine in ("reference", "fast")
        assert report.wall_time > 0

    def test_round_trip_bit_identical(self):
        # Scenario -> to_dict -> from_dict -> run == run (wall_time excluded
        # from equality by design)
        for name in ("ntg", "rand"):
            sc = line_scenario(name)
            assert run(Scenario.from_dict(sc.to_dict())) == run(sc)

    def test_engines_bit_identical(self):
        sc = line_scenario("greedy", n=12, num=30)
        ref = run(sc.replace(engine="reference"))
        fast = run(sc.replace(engine="fast"))
        measured = lambda r: (r.throughput, r.bound, r.late, r.rejected,
                              r.preempted, r.latency_mean, r.latency_max,
                              r.steps)
        assert measured(ref) == measured(fast)
        assert fast.engine == "fast" and ref.engine == "reference"

    def test_unavailable_raises_scenario_error(self):
        sc = line_scenario("det", B=1, c=1)
        with pytest.raises(ScenarioError, match="B, c >= 3"):
            run(sc)

    def test_unavailable_reason_matches(self):
        sc = line_scenario("det", B=1, c=1)
        assert "B, c >= 3" in unavailable_reason(sc)
        assert unavailable_reason(line_scenario("ntg")) is None

    def test_unknown_algorithm_param_rejected(self):
        sc = line_scenario()
        bad = sc.replace(algorithm=AlgorithmSpec("ntg", {"warp": 1}))
        with pytest.raises(ValidationError, match="does not accept"):
            run(bad)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("param", ["slack", "jitter"])
    def test_negative_deadline_param_refused(self, engine, param):
        params = {"num": 10, "horizon": 16, "slack": 2, "jitter": 1}
        params[param] = -1
        sc = line_scenario(engine=engine).replace(
            workload=WorkloadSpec("deadline", params))
        with pytest.raises(ValidationError, match=f"{param} must be >= 0"):
            run(sc)

    def test_latency_stats(self):
        report = run(line_scenario(num=10))
        if report.throughput > 0:
            assert report.latency_mean >= 1.0
            assert report.latency_max >= report.latency_mean
        else:
            assert math.isnan(report.latency_mean)

    def test_planner_consistency_enforced(self):
        # det runs through the plan/replay cross-check path
        report = run(line_scenario("det", B=3, c=3, num=12))
        assert report.throughput >= 0

    def test_bound_method_recorded_and_cd_no_looser(self):
        sc = line_scenario(num=30)
        maxflow = run(sc)
        cd = run(sc, bound_method="cd")
        assert maxflow.meta["bound_method"] == "maxflow"
        assert cd.meta["bound_method"] == "cd"
        assert cd.throughput <= cd.bound <= maxflow.bound

    def test_bound_method_validated(self):
        with pytest.raises(ValidationError, match="unknown offline bound"):
            run(line_scenario(), bound_method="psychic")
        with pytest.raises(ValidationError, match="unknown offline bound"):
            run_batch([line_scenario()], bound_method="psychic")


class TestReportEdges:
    def _report(self, throughput, bound):
        from repro.api.run import RunReport

        return RunReport(
            scenario=line_scenario(), requests=5, throughput=throughput,
            bound=bound, late=0, rejected=0, preempted=0, latency_mean=1.0,
            latency_max=1.0, steps=10, engine="fast")

    def test_zero_bound_positive_throughput_is_loud(self):
        # a bound claiming nothing was deliverable while packets landed is
        # broken; neither derived metric may dress that up as a perfect run
        report = self._report(throughput=3, bound=0.0)
        assert report.goodput == math.inf
        assert report.ratio == 0.0  # below 1.0: impossible for a true bound

    def test_zero_bound_zero_throughput_is_neutral(self):
        report = self._report(throughput=0, bound=0.0)
        assert report.goodput == 1.0
        assert report.ratio == 1.0

    def test_zero_throughput_positive_bound(self):
        report = self._report(throughput=0, bound=10.0)
        assert report.ratio == math.inf
        assert report.goodput == 0.0

    def test_jsonable_coerces_non_string_dict_keys(self):
        from repro.api.run import _jsonable

        meta = {"hist": {2: 7, True: "x", "s": 3, (1, 2): "dropped"},
                5: "five"}
        out = _jsonable(meta)
        assert out == {"hist": {"2": 7, "True": "x", "s": 3}, "5": "five"}
        # and the result survives an actual JSON round-trip unchanged --
        # the cache-replay equality this exists for
        assert json.loads(json.dumps(out)) == out

    def _with_meta(self):
        return self._report(throughput=3, bound=4.0).replace(
            meta={"ipp": {"accepted": 3, "rejected": 1}, "k": [1, 2]})

    def test_to_dict_does_not_alias_meta(self):
        # mutating the dict must not reach into the frozen report
        report = self._with_meta()
        data = report.to_dict()
        data["meta"]["ipp"]["accepted"] = 99
        data["meta"]["k"].append(3)
        data["meta"]["extra"] = True
        assert report.meta == {"ipp": {"accepted": 3, "rejected": 1},
                               "k": [1, 2]}
        assert report == self._with_meta()

    def test_from_dict_does_not_alias_meta(self):
        from repro.api.run import RunReport

        data = json.loads(json.dumps(self._with_meta().to_dict()))
        report = RunReport.from_dict(data)
        assert report == self._with_meta()
        data["meta"]["ipp"]["accepted"] = 99
        data["meta"]["k"].append(3)
        assert report == self._with_meta()


class TestRunBatch:
    def test_workers_bit_identical_to_serial(self):
        # small grid matrix: algorithms x seeds, shared instances per seed
        scenarios = [
            line_scenario(name, n=12, num=18, seed=seed)
            for name in ("greedy", "ntg", "rand")
            for seed in range(2)
        ]
        serial = run_batch(scenarios)
        pooled = run_batch(scenarios, workers=4)
        assert serial == pooled  # RunReport equality excludes wall_time
        assert [r.scenario for r in pooled] == scenarios

    def test_accepts_raw_dicts(self):
        sc = line_scenario()
        assert run_batch([sc.to_dict()]) == [run(sc)]

    def test_duplicate_scenarios_execute_once(self, monkeypatch):
        """Pinned behaviour: identical scenarios in one batch are handled
        deterministically -- a single execution whose report fills every
        duplicate position (duplicates used to race each other into the
        cache: bit-identical by contract, but wasted work and
        nondeterministic store accounting)."""
        import sys

        run_mod = sys.modules["repro.api.run"]

        sc = line_scenario(seed=4)
        other = line_scenario("greedy", seed=4)
        batch = [sc, other, sc, sc]

        calls = []
        real = run_mod._execute

        def counting(scenario, compute_bound):
            calls.append(scenario)
            return real(scenario, compute_bound)

        monkeypatch.setattr(run_mod, "_execute", counting)
        reports = run_batch(batch)
        assert calls == [sc, other]  # one execution per unique scenario
        assert reports[0] == reports[2] == reports[3] == run(sc)
        assert reports[1] == run(other)
        assert [r.scenario for r in reports] == batch

    def test_duplicate_scenarios_store_once(self, tmp_path):
        """Cache accounting for duplicates: one lookup per position, one
        store per unique scenario; a warmed rerun hits every position."""
        sc = line_scenario(seed=5)
        batch = [sc, sc, line_scenario("greedy", seed=5)]
        cold = run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert cold.cache_stats.misses == 3
        assert cold.cache_stats.stores == 2
        warm = run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert warm.cache_stats.hits == 3
        assert list(warm) == list(cold)

    def test_duplicate_scenarios_pooled_match_serial(self):
        sc = line_scenario(seed=6)
        batch = [sc, line_scenario("greedy", seed=6), sc]
        assert run_batch(batch, workers=3) == run_batch(batch)

    def test_spec_file_round_trip(self, tmp_path):
        from repro.api import load_scenarios

        scenarios = [line_scenario("ntg"), line_scenario("greedy", seed=3)]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(
            {"scenarios": [s.to_dict() for s in scenarios]}))
        assert load_scenarios(path) == scenarios
        single = tmp_path / "one.json"
        single.write_text(scenarios[0].to_json())
        assert load_scenarios(single) == [scenarios[0]]

    def test_empty_spec_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValidationError):
            from repro.api import load_scenarios

            load_scenarios(path)
