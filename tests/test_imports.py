"""Which modules a run loads.

scipy serves only the offline bounds and ``multiprocessing`` only a pooled
``run_batch``, so both load on first use.  Each test starts a fresh
interpreter, drives the package stage by stage and reads ``sys.modules``
after every stage.
"""

import json
import os
import subprocess
import sys

import pytest

#: runs the stages with the bound method in argv[1] and prints, per stage,
#: the scipy, multiprocessing and process-pool modules loaded by then
_STAGES_SCRIPT = """
import contextlib
import io
import json
import sys


def loaded():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("scipy", "multiprocessing")
                  or name == "concurrent.futures.process")


stages = {}
import repro
stages["import repro"] = loaded()
import repro.cli
stages["import repro.cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["list"]) == 0
stages["repro list"] = loaded()

from repro.api import NetworkSpec, Scenario, WorkloadSpec, run, run_batch


def scenario(algorithm="ntg", seed=0, engine=None):
    return Scenario(network=NetworkSpec("line", (8,), 2, 2),
                    workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
                    algorithm=algorithm, horizon=32, seed=seed, engine=engine)


engines = [run(scenario(engine="fast"), compute_bound=False).engine]
engines += [report.engine for report in run_batch(
    [scenario(name, engine="batch") for name in ("ntg", "greedy")],
    compute_bound=False)]
stages["bound-free runs"] = loaded()

report = run(scenario(), bound_method=sys.argv[1])
stages["bound"] = loaded()

# the pooled branch imports its pool from concurrent.futures: count it
import concurrent.futures

pools = []


def pool(*args, **kwargs):
    from concurrent.futures.process import ProcessPoolExecutor

    pools.append(kwargs.get("max_workers"))
    return ProcessPoolExecutor(*args, **kwargs)


concurrent.futures.ProcessPoolExecutor = pool
batch = [scenario(seed=seed) for seed in range(3)]
pooled = run_batch(batch, workers=2, compute_bound=False)
stages["pooled run_batch"] = loaded()
same = list(pooled) == list(run_batch(batch, compute_bound=False))
print(json.dumps({"stages": stages, "engines": engines,
                  "bound": report.bound, "pools": pools,
                  "pooled_equals_serial": same}))
"""


def _stages(method: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _STAGES_SCRIPT, method],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("method, loads, skips", [
    ("maxflow", "scipy.sparse.csgraph", "scipy.optimize"),
    ("cd", "scipy.sparse.csgraph", "scipy.optimize"),
    ("lp", "scipy.optimize", None),
], ids=["maxflow", "cd", "lp"])
def test_scipy_and_pool_load_on_first_use(method, loads, skips):
    out = _stages(method)
    stages = out["stages"]
    # imports, the CLI's list and bound-free runs on both array engines
    # load neither scipy nor the process pool
    for stage in ("import repro", "import repro.cli", "repro list",
                  "bound-free runs"):
        assert stages[stage] == [], stage
    assert out["engines"] == ["fast", "batch", "batch"]
    # a bound loads only the part of scipy it solves with
    assert out["bound"] >= 0
    assert loads in stages["bound"]
    assert not any(name.startswith(("multiprocessing", "concurrent"))
                   for name in stages["bound"])
    if skips is not None:
        assert not any(name.startswith(skips) for name in stages["bound"])
    # workers=2 still opens one two-worker process pool
    assert out["pools"] == [2]
    assert "concurrent.futures.process" in stages["pooled run_batch"]
    assert "multiprocessing" in stages["pooled run_batch"]
    assert out["pooled_equals_serial"]
