"""Self-tests of the benchmark, on tiny workload sizes (about a minute).

Run from the repository root::

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = ("--seed", "5", "--seconds", "0", "--size", "tiny",
        "--setup-samples", "1")


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    out = subprocess.run([sys.executable, str(script), *args],
                         capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = out.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        line = None
    return out, line


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    out, line = _run("--workload", workload, "--trace", str(trace), *TINY)
    assert out.returncode == 0, out.stdout + out.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    table = END_TO_END if trace == 0 else PER_LAYER
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} \
        == {name: unit for name, unit, _, _ in table}
    printed = out.stdout.splitlines()
    for name, unit, _, _ in table:
        assert any(row.split()[:1] == [name] and row.split()[-1] == unit
                   for row in printed), name
    metrics = {name: metric["value"] for name, metric in line["metrics"].items()}
    if trace == 1:
        assert metrics["cache.replay_misses"] == 0
        assert (metrics["packing.bound_calls"] > 0) == (workload == "bound_sweep")
        assert metrics["trace.unattributed_frac"] < 0.2


def test_corrupted_expected_value_fails_the_check(tmp_path):
    expected = tmp_path / "expected.json"
    args = ("--workload", "bound_sweep", "--expected", str(expected), *TINY)
    recorded, _ = _run(*args, "--record", "1")
    assert recorded.returncode == 0, recorded.stderr

    good, line = _run(*args)
    assert good.returncode == 0 and line["correct"], good.stdout

    data = json.loads(expected.read_text())
    data["bound_sweep/tiny"]["5:0"] = "0" * 16
    expected.write_text(json.dumps(data))
    bad, line = _run(*args)
    assert bad.returncode == 1
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0
    assert "digest" in bad.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out, line = _run("--workload", "large_grid", *TINY, cwd=tmp_path,
                     script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert line is None


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [(name, unit, better) for name, unit, better, _ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]
