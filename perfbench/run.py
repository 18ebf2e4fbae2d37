"""End-to-end benchmark of ``repro`` sweeps, with a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload bound_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs every round twice, untraced and traced, and reports the
per-layer metrics plus the tracing overhead.  Both check every report and
print, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed check makes
the exit code 1.  ``END_TO_END`` and ``PER_LAYER`` below record what each
metric measures and which end-to-end metric and workload it should move.
End-to-end timings are read at one steady host speed: each is rescaled by
the host-speed probe ``workloads.reference`` timed beside it.

Results, with provenance, land in ``perfbench/_out/``; the traced run also
writes its spans there (``trace-<workload>-seed<n>.json.gz``).
``--record ROUNDS`` recomputes the committed expected digests of ``--seed``
in ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYERS, ROOT_LAYER, Tracer
from workloads import REFERENCE_S, SIZES, WORKLOADS, bound_tight, \
    check_round, digest, reference, run_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
EXPECTED = HERE / "expected.json"

#: a traced round fails its check when the layers leave more than this
#: share of the traced wall time unaccounted for
UNATTRIBUTED_LIMIT = 0.2

#: (name, unit, better, what it measures)
END_TO_END = (
    ("setup_s", "s", "lower",
     "process start until the scenario list is built: import repro, "
     "registry population, work directories; median of subprocess samples "
     "at the REFERENCE_S host speed"),
    ("scenarios_per_s", "1/s", "higher",
     "scenarios with passing checks per wall second of the cold sweeps "
     "(the queue drains on queue_sweep), at the host speed REFERENCE_S "
     "stands for; each sweep of a round timed by its median over the "
     "rounds"),
    ("replay_scenarios_per_s", "1/s", "higher",
     "scenarios per wall second of the warm passes that replay the same "
     "sweep from the result cache, at the REFERENCE_S host speed; median "
     "warm pass"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the benchmark process"),
)

#: (name, unit, better, the end-to-end metric and workload it should move);
#: values are medians over the traced rounds of one run, per round
PER_LAYER = (
    ("spec.build_s", "s", "lower",
     "scenarios_per_s on large_grid (about half its cold wall) and "
     "queue_sweep"),
    ("spec.requests", "count", "higher", "workload size; no time metric"),
    ("core.plan_s", "s", "lower",
     "scenarios_per_s on bound_sweep only (det2/det planning); algorithm "
     "time minus engine time"),
    ("network.replay_s", "s", "lower",
     "scenarios_per_s on large_grid (FastEngine) and queue_sweep (stacked "
     "FastBatchEngine)"),
    ("network.steps", "count", "lower", "engine ticks; scenarios_per_s on "
     "large_grid and queue_sweep"),
    ("network.delivered", "count", "higher", "packets delivered; a change "
     "here is a behaviour change, not a speed-up"),
    ("kernel.rank_s", "s", "lower",
     "scenarios_per_s on bound_sweep (grouped_rank runs only in the "
     "Model 2 engine, for ntg-model2)"),
    ("kernel.admit_s", "s", "lower",
     "scenarios_per_s on large_grid and queue_sweep (numpy kernel versus "
     "tick-loop glue)"),
    ("kernel.calls", "count", "lower", "kernel entry-point calls; "
     "scenarios_per_s on large_grid"),
    ("packing.bound_s", "s", "lower",
     "scenarios_per_s on bound_sweep; reads 0 on the other workloads"),
    ("packing.bound_share", "fraction", "lower",
     "share of traced wall in the offline bound; scenarios_per_s on "
     "bound_sweep"),
    ("packing.bound_calls", "count", "lower",
     "offline-bound solves; 0 on large_grid and queue_sweep"),
    ("packing.bound_memo_hits", "count", "higher",
     "scenarios whose bound came without a solve (algorithms share an "
     "instance); bound_sweep"),
    ("packing.bound_tight", "count", "higher",
     "instances whose bound equals the best throughput on them: solves a "
     "short-circuit would skip; bound_sweep"),
    ("cache.load_s", "s", "lower",
     "replay_scenarios_per_s on every workload, most on queue_sweep"),
    ("cache.store_s", "s", "lower", "scenarios_per_s on queue_sweep"),
    ("cache.hits", "count", "higher", "report lookups served from disk"),
    ("cache.misses", "count", "lower",
     "report lookups that missed (the cold queue pass misses every one)"),
    ("cache.replay_misses", "count", "lower",
     "misses during warm passes; must stay 0"),
    ("cache.stores", "count", "lower", "reports written"),
    ("queue.enqueue_s", "s", "lower", "scenarios_per_s on queue_sweep"),
    ("queue.claim_s", "s", "lower", "scenarios_per_s on queue_sweep"),
    ("queue.requeue_s", "s", "lower", "scenarios_per_s on queue_sweep "
     "(expired-lease sweep before every claim)"),
    ("queue.complete_s", "s", "lower", "scenarios_per_s on queue_sweep"),
    ("queue.collect_s", "s", "lower", "scenarios_per_s and "
     "replay_scenarios_per_s on queue_sweep"),
    ("queue.chunks", "count", "lower", "chunks completed; queue_sweep"),
    ("service.self_s", "s", "lower",
     "QueueWorker loop glue; scenarios_per_s on queue_sweep"),
    ("run.self_s", "s", "lower",
     "run_batch minus its child spans (dedupe, eligibility, partitioning, "
     "report assembly); scenarios_per_s on queue_sweep"),
    ("trace.unattributed_frac", "fraction", "lower",
     "share of traced wall no wrapped entry point accounts for"),
    ("trace.overhead_frac", "fraction", "lower",
     "fastest traced round divided by the fastest untraced round of the "
     "same scenarios, minus 1"),
)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure rounds for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every workload (self-tests)")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="expected digests (default: %(default)s)")
    parser.add_argument("--setup-samples", type=int, default=7,
                        help="subprocesses timed for setup_s")
    parser.add_argument("--record", type=int, metavar="ROUNDS",
                        help="write the expected digests of --seed for "
                        "ROUNDS rounds instead of benchmarking")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading is comparable
    # with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- set-up -----------------------------------------------------------------


def _setup_probe(args) -> None:
    """Child side of setup_s: import, populate registries, build the
    scenario list and the work directories, report the clock."""
    import repro  # noqa: F401  (timed: the import is part of set-up)
    from repro.api.registry import ALGORITHMS, TOPOLOGIES
    from repro.api.registry import WORKLOADS as GENERATORS

    for registry in (ALGORITHMS, GENERATORS, TOPOLOGIES):
        registry.names()
    WORKLOADS[args.workload].build(args.seed, 0, args.size)
    workdir = OUT / f"probe-{os.getpid()}"
    (workdir / "cache").mkdir(parents=True)
    shutil.rmtree(workdir)
    print(repr(_monotonic()))


def _measure_setup(args) -> float:
    """One set-up sample at the host speed :data:`REFERENCE_S` stands for
    (the probe runs just before and just after the subprocess)."""
    before = reference()
    start = _monotonic()
    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        capture_output=True, text=True, timeout=120, check=True)
    wall = float(child.stdout.split()[-1]) - start
    return wall * REFERENCE_S / ((before + reference()) / 2)


def _provenance() -> dict:
    import numpy
    import scipy

    from repro.network import kernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": kernel.active_kernel(),
        "numba_available": kernel.numba_available(),
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _load_expected(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def _forget_bounds() -> None:
    """Drop the per-process offline-bound memo of ``repro.api.run``.

    The traced run times each round twice on the same scenarios; without
    this the second pass would read every bound from the memo and the
    traced-versus-untraced comparison would be meaningless.
    """
    memo = getattr(sys.modules.get("repro.api.run"), "_bound_cache", None)
    if memo is not None:
        memo.clear()


# -- the benchmark ----------------------------------------------------------


def _layer_sample(summary, reports, compute_bound: bool) -> dict:
    """Per-layer metrics of one traced round."""
    count = summary.count
    wall = summary.wall
    needed = count("core.calls") + count("network.stacked") \
        if compute_bound else 0
    return {
        "spec.build_s": summary.layer("spec"),
        "spec.requests": count("spec.requests"),
        "core.plan_s": summary.layer("core"),
        "network.replay_s": summary.layer("network"),
        "network.steps": count("network.steps"),
        "network.delivered": count("network.delivered"),
        "kernel.rank_s": summary.entry("kernel:grouped_rank"),
        "kernel.admit_s": summary.entry("kernel:admit"),
        "kernel.calls": count("kernel.calls"),
        "packing.bound_s": summary.layer("packing"),
        "packing.bound_share": summary.layer("packing") / wall,
        "packing.bound_calls": count("packing.bound_calls"),
        "packing.bound_memo_hits": max(0, needed - count("packing.bound_calls")
                                       - count("cache.bound_hits")),
        "packing.bound_tight": bound_tight(reports) if compute_bound else 0,
        "cache.load_s": summary.entry("cache:ResultCache.load",
                                      "cache:ResultCache.load_bound"),
        "cache.store_s": summary.entry("cache:ResultCache.store",
                                       "cache:ResultCache.store_bound"),
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "cache.replay_misses": count("cache.replay_misses"),
        "cache.stores": count("cache.stores"),
        "queue.enqueue_s": summary.entry("queue:WorkQueue.create"),
        "queue.claim_s": summary.entry("queue:WorkQueue.claim"),
        "queue.requeue_s": summary.entry("queue:WorkQueue.requeue_expired"),
        "queue.complete_s": summary.entry("queue:WorkQueue.complete"),
        "queue.collect_s": summary.entry("queue:WorkQueue.collect"),
        "queue.chunks": count("queue.chunks"),
        "service.self_s": summary.layer("service"),
        "run.self_s": summary.layer("run"),
        "trace.unattributed_frac": summary.layer(ROOT_LAYER) / wall,
    }


def bench(args) -> tuple:
    """Run the measurement loop; returns ``(result line dict, report)``."""
    workload = WORKLOADS[args.workload]
    setup = [_measure_setup(args) for _ in range(args.setup_samples)]
    expected = _load_expected(args.expected).get(
        f"{workload.name}/{args.size}", {})
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    plain_attempted = plain_failed = 0
    messages: list = []
    cold_walls: dict = {}  # unit index -> walls of that sweep, untraced
    cold_refs: dict = {}  # unit index -> probe beside each of those walls
    replay_walls: list = []
    replay_refs: list = []
    round_walls: dict = {"plain": [], "traced": []}
    unit_sizes: list = []
    replay_size = 0
    layer_samples, self_times = [], []
    rounds = 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        # untimed warm-up: lazy imports and first-call set-up of every layer
        run_round(workload, workload.build(args.seed, 0, "tiny"),
                  workdir / "warmup", replays=1)
        deadline = time.perf_counter() + args.seconds
        while rounds == 0 or time.perf_counter() < deadline:
            scenarios = workload.build(args.seed, rounds, args.size)
            modes = [None] if tracer is None else \
                [None, tracer][::1 if rounds % 2 == 0 else -1]
            for mode in modes:
                if tracer is not None:
                    _forget_bounds()
                mark = tracer.mark() if mode is not None else None
                tag = "plain" if mode is None else "traced"
                result = run_round(workload, scenarios,
                                   workdir / f"round{rounds}-{tag}", mode)
                shutil.rmtree(workdir / f"round{rounds}-{tag}")
                bad, notes = check_round(
                    workload, result, expected.get(f"{args.seed}:{rounds}"),
                    args.seed, rounds)
                attempted += len(scenarios)
                failed += len(bad)
                messages += notes
                round_walls[tag].append(
                    sum(result.cold_walls) + sum(result.replay_walls))
                if mode is None:
                    plain_attempted += len(scenarios)
                    plain_failed += len(bad)
                    unit_sizes = result.unit_sizes
                    replay_size = result.replay_size
                    for index, wall in enumerate(result.cold_walls):
                        cold_walls.setdefault(index, []).append(wall)
                        cold_refs.setdefault(index, []).append(
                            result.cold_refs[index])
                    replay_walls += result.replay_walls
                    replay_refs += result.replay_refs
                    continue
                summary = tracer.summary(mark)
                if abs(summary.accounted() - summary.wall) > \
                        1e-6 * max(1.0, summary.wall):
                    messages.append(f"round {rounds}: layer self times sum "
                                    f"to {summary.accounted():.6f} s, traced "
                                    f"wall is {summary.wall:.6f} s")
                sample = _layer_sample(summary, result.reports,
                                       workload.compute_bound)
                if sample["trace.unattributed_frac"] > UNATTRIBUTED_LIMIT:
                    messages.append(
                        f"round {rounds}: layers account for only "
                        f"{1 - sample['trace.unattributed_frac']:.1%} of "
                        "traced wall")
                layer_samples.append(sample)
                self_times.append({layer: summary.layer(layer)
                                   for layer in LAYERS})
            rounds += 1
    except Exception:  # a raising sweep fails the run; report it, not crash
        messages.append(traceback.format_exc())
        failed = max(failed, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # on a shared host other tenants slow a process by up to 2x for tens
    # of seconds, longer than a run, so neither the fastest nor the median
    # raw wall is steady between runs; each wall is rescaled by the host
    # speed the probe beside it saw, then the median taken
    if tracer is None and cold_walls and replay_walls:
        passed = (plain_attempted - plain_failed) / plain_attempted
        metrics = {
            "setup_s": statistics.median(setup),
            "scenarios_per_s": passed * sum(unit_sizes) / sum(
                _rescaled(cold_walls[index], cold_refs[index])
                for index in cold_walls),
            "replay_scenarios_per_s": replay_size
            / _rescaled(replay_walls, replay_refs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    elif tracer is not None and layer_samples:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name, *_ in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = min(round_walls["traced"]) \
            / min(round_walls["plain"]) - 1
    else:
        metrics = {}  # the run failed before a full round
    units = {name: unit for name, unit, _, _ in END_TO_END + PER_LAYER}
    line = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    report = {
        "workload": workload.name, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "rounds": rounds,
        "provenance": _provenance(),
        "error_rate": failed / attempted if attempted else 1.0,
        "messages": messages,
        "samples": {"setup_s": setup, "unit_sizes": unit_sizes,
                    "cold_walls": cold_walls, "cold_refs": cold_refs,
                    "replay_walls": replay_walls, "replay_refs": replay_refs,
                    "round_walls": round_walls, "layers": layer_samples,
                    "self_time": self_times},
        "result": line,
    }
    if tracer is not None:
        with gzip.open(OUT / f"trace-{workload.name}-seed{args.seed}.json.gz",
                       "wt") as handle:
            json.dump(tracer.dump(), handle)
    return line, report


def _rescaled(walls: list, refs: list) -> float:
    """Median wall at the host speed :data:`REFERENCE_S` stands for."""
    return statistics.median(wall * REFERENCE_S / ref
                             for wall, ref in zip(walls, refs))


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _print_report(line: dict, report: dict) -> None:
    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"workload {report['workload']} seed {report['seed']} size "
          f"{report['size']}: {report['rounds']} round(s), "
          f"{line['attempted']} scenario(s) attempted")
    for name, metric in line["metrics"].items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<26} {report['error_rate']:>14.6g} fraction")
    if report["trace"]:
        rows = report["samples"]["self_time"]
        total = sum(_median([row[layer] for row in rows]) for layer in LAYERS)
        print("self time per traced round (median):")
        for layer in LAYERS:
            value = _median([row[layer] for row in rows])
            share = value / total if total else float("nan")
            print(f"  {layer:<10} {value:>10.4f} s {share:>7.1%}")
    for message in report["messages"]:
        print(f"CHECK FAILED: {message}")


def record(args) -> None:
    """Recompute the expected digests of ``--seed`` with a plain serial
    ``run_batch`` (bit-identical to every path the benchmark times)."""
    import importlib

    run_batch = importlib.import_module("repro.api.run").run_batch
    workload = WORKLOADS[args.workload]
    data = _load_expected(args.expected)
    table = data.setdefault(f"{workload.name}/{args.size}", {})
    for index in range(args.record):
        reports = run_batch(workload.build(args.seed, index, args.size),
                            workers=1, cache="off",
                            compute_bound=workload.compute_bound)
        table[f"{args.seed}:{index}"] = digest(reports)
    args.expected.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package in {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if args.record is not None:
        record(args)
        return 0
    line, report = bench(args)
    _print_report(line, report)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
