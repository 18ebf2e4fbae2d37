"""Tests for the command-line interface."""

import json

import pytest

from repro.api import algorithm_names, workload_names
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 64 and args.B == 1 and args.c == 1

    def test_route_args(self):
        args = build_parser().parse_args(
            ["route", "det", "--dims", "8x8", "-B", "3", "-c", "3"]
        )
        assert args.algorithm == "det" and args.dims == "8x8"

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "magic"])

    def test_engine_flag(self):
        args = build_parser().parse_args(["route", "greedy", "--engine", "fast"])
        assert args.engine == "fast"
        args = build_parser().parse_args(["route", "greedy"])
        assert args.engine is None  # resolved via REPRO_ENGINE / default

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "greedy", "--engine", "warp"])

    def test_choices_come_from_registries(self):
        # every registered algorithm/workload is reachable without touching
        # the CLI (no hardcoded tuples)
        for name in algorithm_names():
            args = build_parser().parse_args(["route", name])
            assert args.algorithm == name
        for name in workload_names():
            args = build_parser().parse_args(["route", "ntg", "--workload", name])
            assert args.workload == name


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "-n", "16", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "offline bound" in out

    def test_route_det(self, capsys):
        assert main([
            "route", "det", "--dims", "16", "-B", "3", "-c", "3",
            "--requests", "20", "--arrival-window", "16",
            "--horizon", "64", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_route_bufferless(self, capsys):
        assert main([
            "route", "bufferless", "--dims", "16", "-B", "0", "-c", "1",
            "--requests", "20", "--arrival-window", "16",
            "--horizon", "48", "--seed", "3",
        ]) == 0

    def test_compare(self, capsys):
        assert main([
            "compare", "greedy", "ntg", "--dims", "16", "-B", "2", "-c", "1",
            "--requests", "30", "--arrival-window", "16",
            "--horizon", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "ntg" in out

    def test_compare_reports_unavailable(self, capsys):
        # det requires B >= 3; with B = 1 it must degrade gracefully
        assert main([
            "compare", "det", "--dims", "16", "-B", "1", "-c", "1",
            "--requests", "10", "--arrival-window", "8", "--horizon", "32",
        ]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 8/9" in out

    def test_route_fast_engine(self, capsys):
        assert main([
            "route", "ntg", "--dims", "8x8", "-B", "2", "-c", "2",
            "--requests", "40", "--arrival-window", "16",
            "--horizon", "64", "--engine", "fast",
        ]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_compare_engines_agree(self, capsys):
        argv = [
            "compare", "greedy", "ntg", "--dims", "16", "-B", "2", "-c", "1",
            "--requests", "30", "--arrival-window", "16", "--horizon", "64",
        ]
        assert main(argv + ["--engine", "reference"]) == 0
        ref_out = capsys.readouterr().out
        assert main(argv + ["--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert ref_out == fast_out

    def test_clogging_workload(self, capsys):
        assert main([
            "route", "ntg", "--dims", "16", "-B", "2", "-c", "1",
            "--workload", "clogging", "--horizon", "96",
        ]) == 0

    def test_clogging_warns_on_ignored_flags(self, capsys):
        assert main([
            "route", "ntg", "--dims", "16", "-B", "2", "-c", "1",
            "--workload", "clogging", "--horizon", "96",
            "--requests", "55", "--seed", "9",
        ]) == 0
        err = capsys.readouterr().err
        assert "ignores --requests" in err
        assert "deterministic" in err  # --seed does not reach the generator

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "registered algorithms" in out and "registered workloads" in out
        assert "det" in out and "clogging" in out and "fast engine" in out

    def test_line_only_workload_on_grid_reports_cleanly(self, capsys):
        # workload capability metadata: no AttributeError traceback, a clean
        # n/a row (and no bound, since the instance cannot be generated)
        assert main(["compare", "greedy", "--dims", "8x8",
                     "--workload", "clogging", "--horizon", "64"]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out and "targets lines" in out

    def test_algorithm_arg_applies_per_algorithm(self, capsys):
        # greedy takes priority=longest; ntg ignores it with a warning
        # instead of aborting the whole comparison
        assert main(["compare", "greedy", "ntg", "--dims", "16", "-B", "2",
                     "-c", "1", "--requests", "30", "--arrival-window", "16",
                     "--horizon", "64", "--algorithm-arg",
                     "priority=longest"]) == 0
        captured = capsys.readouterr()
        assert "greedy" in captured.out and "ntg" in captured.out
        assert "ignores --algorithm-arg priority" in captured.err

    def test_workload_arg_flag(self, capsys):
        assert main([
            "route", "ntg", "--dims", "16", "-B", "2", "-c", "1",
            "--workload", "clogging", "--horizon", "96",
            "--workload-arg", "duration=4",
        ]) == 0

    def test_negative_jitter_is_a_clean_error(self, capsys):
        assert main([
            "route", "ntg", "--workload", "deadline",
            "--workload-arg", "slack=2", "--workload-arg", "jitter=-1",
        ]) == 2
        assert "error: jitter must be >= 0, got -1" in capsys.readouterr().err


def _throughput_rows(out):
    """Parse ``name | throughput`` (or wider sweep) table rows."""
    rows = {}
    for line in out.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) >= 2 and parts[0] and not set(parts[0]) <= {"-", "+"}:
            rows[parts[0]] = parts[1] if len(parts) == 2 else parts[4]
    return rows


class TestSpecs:
    SCENARIO = {
        "network": {"kind": "line", "dims": [16], "buffer_size": 3,
                    "capacity": 3},
        "workload": {"name": "uniform", "params": {"num": 20, "horizon": 16}},
        "algorithm": {"name": "det"},
        "horizon": 64,
        "seed": 2,
    }

    def test_route_spec(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.SCENARIO))
        assert main(["route", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "det" in out and "ratio" in out

    def test_route_spec_engines_agree(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.SCENARIO))
        assert main(["route", "--spec", str(path), "--engine", "reference"]) == 0
        ref = capsys.readouterr().out
        assert main(["route", "--spec", str(path), "--engine", "fast"]) == 0
        fast = capsys.readouterr().out

        def data_cells(out):
            lines = [l for l in out.splitlines() if "|" in l]
            return [c.strip() for c in lines[-1].split("|")]

        # identical measurements; only the engine column differs
        assert data_cells(ref)[:5] == data_cells(fast)[:5]
        assert data_cells(ref)[5] == "reference" and data_cells(fast)[5] == "fast"

    def test_route_spec_warns_on_ignored_flags(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.SCENARIO))
        assert main(["route", "--spec", str(path), "--seed", "9",
                     "--dims", "8x8"]) == 0
        err = capsys.readouterr().err
        assert "ignoring" in err and "--seed" in err and "--dims" in err

    def test_cli_applies_practical_rand_defaults(self):
        # the paper-exact lambda = 1/(200 k) rejects nearly everything at
        # CLI scale, so the CLI pins lam=0.5 (overridable)
        from repro.cli import _algorithm_spec

        args = build_parser().parse_args(["route", "rand"])
        assert dict(_algorithm_spec(args, "rand").params)["lam"] == 0.5
        args = build_parser().parse_args(
            ["route", "rand", "--algorithm-arg", "lam=0.25"])
        assert dict(_algorithm_spec(args, "rand").params)["lam"] == 0.25

    def test_route_rejects_spec_plus_algorithm(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.SCENARIO))
        with pytest.raises(SystemExit):
            main(["route", "det", "--spec", str(path)])

    def test_route_requires_algorithm_or_spec(self):
        with pytest.raises(SystemExit):
            main(["route"])

    def test_committed_specs_load(self):
        import pathlib

        from repro.api import load_scenarios

        spec_dir = pathlib.Path(__file__).parent.parent / "benchmarks" / "specs"
        specs = sorted(spec_dir.glob("*.json"))
        assert specs, "benchmarks/specs/ must stay populated (CI runs them)"
        for path in specs:
            assert load_scenarios(path)

    def test_compare_matches_spec_sweep(self, tmp_path, capsys):
        """Acceptance: the compare command and the same run expressed as a
        JSON scenario batch report identical throughput numbers."""
        argv = ["compare", "det", "rand", "greedy", "ntg",
                "--dims", "8x8", "--engine", "fast",
                "--requests", "40", "--arrival-window", "16",
                "--horizon", "64"]
        assert main(argv) == 0
        compare_rows = _throughput_rows(capsys.readouterr().out)

        scenarios = [
            {
                "network": {"kind": "grid", "dims": [8, 8],
                            "buffer_size": 3, "capacity": 3},
                "workload": {"name": "uniform",
                             "params": {"num": 40, "horizon": 16}},
                "algorithm": {"name": name},
                "horizon": 64,
                "seed": 0,
            }
            for name in ("det", "rand", "greedy", "ntg")
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"scenarios": scenarios}))
        assert main(["sweep", "--spec", str(path), "--engine", "fast",
                     "--workers", "2"]) == 0
        sweep_rows = _throughput_rows(capsys.readouterr().out)

        for name in ("det", "greedy", "ntg"):
            assert compare_rows[name] == sweep_rows[name], name
        assert "n/a" in compare_rows["rand"] and "n/a" in sweep_rows["rand"]

    def test_sweep_rejects_nonpositive_workers(self, tmp_path, capsys):
        """--workers 0 used to run silently serial; negative likewise.
        Both must exit 2 with one clear line, not a traceback."""
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.SCENARIO))
        for workers in ("0", "-2"):
            assert main(["sweep", "--spec", str(path),
                         "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert "--workers must be a positive integer" in err
            assert "Traceback" not in err

    def test_sweep_rejects_bad_shard_flags(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.SCENARIO))
        cases = (
            (["--shards", "2", "--shard-index", "2", "--out", "s.jsonl"],
             "0 <= index < --shards"),
            (["--shards", "2", "--shard-index", "-1", "--out", "s.jsonl"],
             "0 <= index < --shards"),
            (["--shards", "0", "--shard-index", "0", "--out", "s.jsonl"],
             "--shards must be a positive integer"),
            (["--shard-index", "0", "--out", "s.jsonl"],
             "--shard-index needs --shards"),
            (["--shards", "2", "--shard-index", "0"], "needs --out"),
            (["--out", "s.jsonl"], "--out only applies to shard runs"),
            (["--shards", "2"], "--shards needs --shard-index"),
        )
        for flags, message in cases:
            assert main(["sweep", "--spec", str(path)] + flags) == 2, flags
            err = capsys.readouterr().err
            assert message in err, (flags, err)
            assert "Traceback" not in err

    def _shard_spec(self, tmp_path):
        scenarios = [dict(self.SCENARIO, seed=s, algorithm={"name": name})
                     for s in (0, 1)
                     for name in ("greedy", "ntg")]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(scenarios))
        return path

    def test_sharded_sweep_merges_to_unsharded_table(self, tmp_path, capsys):
        """Acceptance: shard runs + merge print the same measurements as
        the plain sweep (modulo the wall-clock column)."""
        path = self._shard_spec(tmp_path)
        assert main(["sweep", "--spec", str(path)]) == 0
        plain = capsys.readouterr().out
        files = []
        for i in range(3):
            out = tmp_path / f"shard_{i}.jsonl"
            assert main(["sweep", "--spec", str(path), "--shards", "3",
                         "--shard-index", str(i), "--out", str(out)]) == 0
            files.append(str(out))
        capsys.readouterr()
        assert main(["merge"] + files) == 0
        merged = capsys.readouterr().out

        def strip_wall(text):
            return [[c.strip() for c in line.split("|")][:-1]
                    for line in text.splitlines() if "|" in line]

        assert strip_wall(plain) == strip_wall(merged)

    def test_merge_out_writes_canonical_json(self, tmp_path, capsys):
        path = self._shard_spec(tmp_path)
        out = tmp_path / "s0.jsonl"
        assert main(["sweep", "--spec", str(path), "--shards", "1",
                     "--shard-index", "0", "--out", str(out)]) == 0
        merged = tmp_path / "merged.json"
        assert main(["merge", str(out), "--out", str(merged)]) == 0
        reports = json.loads(merged.read_text())
        assert len(reports) == 4
        assert all("throughput" in r and "scenario" in r for r in reports)

    def test_merge_refuses_incomplete_set(self, tmp_path, capsys):
        path = self._shard_spec(tmp_path)
        out = tmp_path / "s0.jsonl"
        assert main(["sweep", "--spec", str(path), "--shards", "2",
                     "--shard-index", "0", "--out", str(out)]) == 0
        assert main(["merge", str(out)]) == 2
        assert "missing batch position" in capsys.readouterr().err

    def test_emit_shards_then_run_manifests(self, tmp_path, capsys):
        path = self._shard_spec(tmp_path)
        plan_dir = tmp_path / "plans"
        assert main(["sweep", "--spec", str(path), "--shards", "2",
                     "--emit-shards", str(plan_dir)]) == 0
        manifests = sorted(plan_dir.glob("shard_*.json"))
        assert len(manifests) == 2
        files = []
        for i, manifest in enumerate(manifests):
            out = tmp_path / f"m{i}.jsonl"
            assert main(["sweep", "--spec", str(manifest),
                         "--out", str(out)]) == 0
            files.append(str(out))
        capsys.readouterr()
        assert main(["merge"] + files) == 0
        merged = capsys.readouterr().out
        assert "merged batch (4 scenarios, 2 shard files)" in merged

    def test_sweep_workers_match_serial(self, tmp_path, capsys):
        scenarios = [dict(self.SCENARIO, seed=s, algorithm={"name": name})
                     for s in (0, 1)
                     for name in ("greedy", "ntg")]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(scenarios))
        assert main(["sweep", "--spec", str(path)]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", "--spec", str(path), "--workers", "3"]) == 0
        pooled = capsys.readouterr().out

        def strip_wall(text):
            return [
                [c.strip() for c in line.split("|")][:-1]
                for line in text.splitlines()
                if "|" in line
            ]

        assert strip_wall(serial) == strip_wall(pooled)


class TestQueueCommands:
    """The elastic sweep service verbs: enqueue / work / status / collect."""

    SCENARIO = TestSpecs.SCENARIO

    def _queue_spec(self, tmp_path):
        scenarios = [dict(self.SCENARIO, seed=s, algorithm={"name": name})
                     for s in (0, 1)
                     for name in ("greedy", "ntg")]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(scenarios))
        return path

    def test_enqueue_work_status_collect(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        spec = self._queue_spec(tmp_path)
        queue_dir = tmp_path / "q"

        assert main(["enqueue", str(queue_dir), "--spec", str(spec),
                     "--chunk-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 scenario(s) as 2 chunk(s)" in out

        assert main(["status", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "chunks: total=2 pending=2 leased=0 expired=0 done=0" in out
        assert "scenarios: done=0/4" in out

        assert main(["work", str(queue_dir), "--worker-id", "t",
                     "--cache", "off"]) == 0
        out = capsys.readouterr().out
        assert "queue drained" in out

        assert main(["status", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "chunks: total=2 pending=0 leased=0 expired=0 done=2" in out
        assert "scenarios: done=4/4" in out

        collected = tmp_path / "collected.json"
        assert main(["collect", str(queue_dir),
                     "--out", str(collected)]) == 0
        reports = json.loads(collected.read_text())
        assert len(reports) == 4
        assert all("throughput" in r and "scenario" in r for r in reports)

    def test_collect_table_matches_sweep(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        spec = self._queue_spec(tmp_path)
        assert main(["sweep", "--spec", str(spec)]) == 0
        plain = capsys.readouterr().out
        queue_dir = tmp_path / "q"
        assert main(["enqueue", str(queue_dir), "--spec", str(spec)]) == 0
        assert main(["work", str(queue_dir), "--cache", "off"]) == 0
        capsys.readouterr()
        assert main(["collect", str(queue_dir)]) == 0
        collected = capsys.readouterr().out

        def strip_wall(text):
            return [[c.strip() for c in line.split("|")][:-1]
                    for line in text.splitlines() if "|" in line]

        assert strip_wall(plain) == strip_wall(collected)

    def test_collect_refuses_undrained_queue(self, tmp_path, capsys):
        spec = self._queue_spec(tmp_path)
        queue_dir = tmp_path / "q"
        assert main(["enqueue", str(queue_dir), "--spec", str(spec),
                     "--chunk-size", "2"]) == 0
        capsys.readouterr()
        assert main(["collect", str(queue_dir)]) == 2
        err = capsys.readouterr().err
        assert "not drained" in err and "chunk_00000" in err
        assert "Traceback" not in err

    def test_enqueue_refuses_existing_queue(self, tmp_path, capsys):
        spec = self._queue_spec(tmp_path)
        queue_dir = tmp_path / "q"
        assert main(["enqueue", str(queue_dir), "--spec", str(spec)]) == 0
        capsys.readouterr()
        assert main(["enqueue", str(queue_dir), "--spec", str(spec)]) == 2
        assert "already holds a queue" in capsys.readouterr().err

    def test_enqueue_excludes_unavailable_scenarios(self, tmp_path,
                                                    capsys):
        """The capability pre-check mirrors 'sweep --shards': a scenario
        no engine can run never enters the queue (it would requeue
        forever)."""
        scenarios = [dict(self.SCENARIO, algorithm={"name": "bufferless"}),
                     dict(self.SCENARIO, algorithm={"name": "greedy"})]
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(scenarios))  # bufferless needs B=0
        queue_dir = tmp_path / "q"
        assert main(["enqueue", str(queue_dir), "--spec", str(spec)]) == 0
        captured = capsys.readouterr()
        assert "excluding 1 unavailable scenario(s)" in captured.err
        assert "1 scenario(s) as 1 chunk(s)" in captured.out

    def test_work_on_missing_queue_exits_cleanly(self, tmp_path, capsys):
        assert main(["work", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "not a work queue" in err and "Traceback" not in err

    def test_work_rejects_bad_crash_env(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_CRASH_AFTER", "soon")
        assert main(["work", str(tmp_path)]) == 2
        assert "REPRO_QUEUE_CRASH_AFTER" in capsys.readouterr().err

    def test_queue_defaults_are_the_module_constants(self, tmp_path,
                                                     capsys):
        """``enqueue`` passes no chunk size by default, so ``create``
        picks one of the two constants from the engine."""
        from repro.api.queue import (
            DEFAULT_CHUNK_SIZE,
            DEFAULT_TTL,
            STACKED_CHUNK_SIZE,
        )

        parser = build_parser()
        assert parser.parse_args(["enqueue", "q", "--spec", "s.json"]) \
            .chunk_size is None
        assert parser.parse_args(["work", "q"]).ttl == DEFAULT_TTL
        assert parser.parse_args(["status", "q"]).ttl == DEFAULT_TTL
        spec = self._queue_spec(tmp_path)
        for engine, size in (("fast", DEFAULT_CHUNK_SIZE),
                             ("batch", STACKED_CHUNK_SIZE)):
            queue_dir = tmp_path / engine
            assert main(["enqueue", str(queue_dir), "--spec", str(spec),
                         "--engine", engine]) == 0
            assert "4 scenario(s) as 1 chunk(s)" in capsys.readouterr().out
            header = json.loads((queue_dir / "queue.json").read_text())
            assert header["chunk_size"] == size

    def test_work_rejects_worker_id_with_separator(self, tmp_path, capsys):
        spec = self._queue_spec(tmp_path)
        queue_dir = tmp_path / "q"
        assert main(["enqueue", str(queue_dir), "--spec", str(spec)]) == 0
        capsys.readouterr()
        assert main(["work", str(queue_dir), "--worker-id", "a/b",
                     "--cache", "off"]) == 2
        err = capsys.readouterr().err
        assert "worker id 'a/b'" in err and "Traceback" not in err
        assert list((queue_dir / "claimed").iterdir()) == []
