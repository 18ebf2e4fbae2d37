"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library, all driven by the
:mod:`repro.api` Scenario layer -- algorithm and workload choices come
from the registries, capability checks replace try/except ladders, and
any run can be expressed as (or replayed from) a JSON scenario spec:

* ``demo``    -- the quickstart scoreboard on a line;
* ``route``   -- run one algorithm (or a ``--spec`` file), print stats;
* ``compare`` -- algorithms side by side on the same instance;
* ``sweep``   -- run a batch of scenarios from a spec file, optionally
  over a process pool (``--workers``) and/or sharded for multi-host
  execution (``--shards``/``--shard-index``/``--out``, or
  ``--emit-shards`` to write the manifests; ``--spec`` also accepts a
  shard manifest directly);
* ``merge``   -- reassemble shard result files (or a directory of them)
  into the batch result;
* ``enqueue`` / ``work`` / ``status`` / ``collect`` -- the elastic
  sweep service: enqueue a batch as chunks into a shared queue
  directory, pull-execute it with any number of ``work`` processes
  (crashed workers' chunks are requeued via lease expiry), watch
  progress, and merge the results;
* ``figures`` -- the paper's figures as ASCII art.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys

from repro.analysis.tables import format_table
from repro.util.errors import ValidationError
from repro.api import (
    ALGORITHMS,
    WORKLOADS,
    AlgorithmSpec,
    NetworkSpec,
    Scenario,
    WorkloadSpec,
    algorithm_names,
    load_scenarios,
    run,
    run_batch,
    topology_names,
    unavailable_reason,
    workload_names,
)
from repro.api.queue import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_TTL,
    STACKED_CHUNK_SIZE,
)
from repro.baselines import offline

#: single source of truth for the common flag defaults (build_parser and
#: the ignored-flag warnings both read it, so the two cannot drift)
_COMMON_DEFAULTS = {
    "dims": "32",
    "topology": None,
    "B": 3,
    "c": 3,
    "requests": 100,
    "arrival_window": 32,
    "horizon": 128,
    "workload": "uniform",
    "seed": 0,
}

#: (flag, args attribute, generator parameter it maps onto)
_WORKLOAD_FLAGS = (
    ("--requests", "requests", "num"),
    ("--arrival-window", "arrival_window", "horizon"),
)

#: practical parameter defaults the CLI applies to registered algorithms --
#: the paper-exact sparsification lambda = 1/(200 k) rejects nearly
#: everything at CLI scale (see bench E6); override via --algorithm-arg
_ALGO_CLI_DEFAULTS = {
    "rand": (("lam", 0.5),),
    "rand-large-buffers": (("lam", 0.5),),
    "rand-small-buffers": (("lam", 0.5),),
}

#: flags that cannot override a --spec file (scenarios are self-contained)
_SPEC_FIXED_FLAGS = (
    ("--dims", "dims"),
    ("--topology", "topology"),
    ("-B", "B"),
    ("-c", "c"),
    ("--requests", "requests"),
    ("--arrival-window", "arrival_window"),
    ("--horizon", "horizon"),
    ("--workload", "workload"),
    ("--seed", "seed"),
)


def _parse_kv(item: str, flag: str) -> tuple:
    key, sep, raw = item.partition("=")
    if not sep:
        raise SystemExit(f"{flag} expects KEY=VALUE, got {item!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _algorithm_spec(args, name: str) -> AlgorithmSpec:
    """Build the AlgorithmSpec, applying only parameters ``name`` accepts.

    ``compare``/``demo`` pass one ``--algorithm-arg`` list to several
    algorithms; each takes what it understands (with a warning for the
    rest) instead of aborting the whole command.
    """
    entry = ALGORITHMS.get(name)
    params = {k: v for k, v in _ALGO_CLI_DEFAULTS.get(name, ())
              if k in entry.params}
    ignored = []
    for item in getattr(args, "algorithm_arg", None) or ():
        key, value = _parse_kv(item, "--algorithm-arg")
        if key in entry.params:
            params[key] = value
        else:
            ignored.append(key)
    if ignored:
        print(
            f"warning: algorithm {name!r} ignores --algorithm-arg "
            f"{', '.join(ignored)} (it accepts: {sorted(entry.params)})",
            file=sys.stderr,
        )
    return AlgorithmSpec(name, params)


def _warn_spec_overrides(args) -> None:
    """``--spec`` scenarios are self-contained; report flags they ignore."""
    ignored = [flag for flag, attr in _SPEC_FIXED_FLAGS
               if getattr(args, attr) != _COMMON_DEFAULTS[attr]]
    if args.workload_arg:
        ignored.append("--workload-arg")
    if getattr(args, "algorithm_arg", None):
        ignored.append("--algorithm-arg")
    if ignored:
        print(
            f"warning: --spec scenarios are self-contained; ignoring "
            f"{', '.join(ignored)} (only --engine overrides a spec)",
            file=sys.stderr,
        )


def _workload_spec(args, network: NetworkSpec) -> WorkloadSpec:
    """Map CLI flags onto the registered generator's parameters.

    Flags the generator does not accept are *reported*, not silently
    dropped (the pre-registry CLI lost ``--requests``/``--arrival-window``
    /``--seed`` on the clogging workload without a word).
    """
    entry = WORKLOADS.get(args.workload)
    params: dict = {}
    if args.workload == "clogging":
        # preserve the pre-registry CLI's instance shape (duration = n/2;
        # the generator's own default is a full-length n stream)
        params["duration"] = math.prod(network.dims) // 2
    ignored = []
    for flag, attr, param in _WORKLOAD_FLAGS:
        value = getattr(args, attr)
        if param in entry.params:
            params[param] = value
        elif value != _COMMON_DEFAULTS[attr]:
            ignored.append(flag)
    for item in args.workload_arg or ():
        key, value = _parse_kv(item, "--workload-arg")
        params[key] = value
    if ignored:
        print(
            f"warning: the {args.workload!r} workload ignores "
            f"{', '.join(ignored)} (it accepts: {sorted(entry.params)})",
            file=sys.stderr,
        )
    if not entry.takes_rng and args.seed != 0:
        print(
            f"warning: the {args.workload!r} generator is deterministic; "
            "--seed only affects randomized algorithms",
            file=sys.stderr,
        )
    return WorkloadSpec(args.workload, params)


def _scenario(args, algorithm: str) -> Scenario:
    network = NetworkSpec.parse(args.dims, args.B, args.c,
                                kind=args.topology)
    return Scenario(
        network=network,
        workload=_workload_spec(args, network),
        algorithm=_algorithm_spec(args, algorithm),
        horizon=args.horizon,
        seed=args.seed,
        engine=args.engine,
    )


def _scoreboard_rows(scenarios, network, cache=None,
                     bound_method: str = "maxflow") -> list:
    """``[name, throughput | "n/a (reason)"]`` rows plus the bound row.

    Capability checks from the registry decide the n/a rows; anything
    else raised by a run is a genuine bug and propagates.
    """
    rows, bound = [], None
    for scenario in scenarios:
        reason = unavailable_reason(scenario, network)
        if reason is not None:
            rows.append([scenario.algorithm.name, f"n/a ({reason})"])
            continue
        report = run(scenario, cache=cache, bound_method=bound_method)
        rows.append([scenario.algorithm.name, report.throughput])
        bound = report.bound
    if bound is None:  # every algorithm was unavailable
        scenario = scenarios[0]
        workload_ok = WORKLOADS.get(scenario.workload.name).unavailable(
            network, scenario.horizon) is None
        if workload_ok:
            _, requests = scenario.build_instance(network)
            bound = offline.offline_bound(network, requests, scenario.horizon,
                                          method=bound_method)
    rows.append(["offline bound", bound if bound is not None else "n/a"])
    return rows


def cmd_demo(args) -> int:
    net_spec = NetworkSpec("line", (args.n,), args.B, args.c)
    workload = WorkloadSpec("uniform", {"num": 3 * args.n, "horizon": args.n})
    network = net_spec.build()
    scenarios = [
        Scenario(net_spec, workload, _algorithm_spec(args, name),
                 horizon=4 * args.n, seed=args.seed, engine=args.engine)
        for name in ("rand", "greedy", "ntg")
    ]
    print(format_table(["algorithm", "throughput"],
                       _scoreboard_rows(scenarios, network, cache=args.cache,
                                        bound_method=args.bound),
                       title=f"demo on {network} ({workload})"))
    return 0


def cmd_route(args) -> int:
    if args.spec:
        if args.algorithm:
            raise SystemExit("route: pass an algorithm or --spec, not both")
        _warn_spec_overrides(args)
        scenarios = load_scenarios(args.spec)
        if len(scenarios) != 1:
            raise SystemExit(
                f"route --spec expects exactly one scenario, found "
                f"{len(scenarios)} (use 'sweep --spec' for batches)"
            )
        scenario = scenarios[0]
        if args.engine is not None:
            scenario = scenario.replace(engine=args.engine)
    elif args.algorithm:
        scenario = _scenario(args, args.algorithm)
    else:
        raise SystemExit("route: an algorithm name or --spec is required")
    report = run(scenario, cache=args.cache, bound_method=args.bound)
    print(format_table(
        ["algorithm", "requests", "throughput", "bound", "ratio", "engine"],
        [[scenario.algorithm.name, report.requests, report.throughput,
          report.bound, report.ratio, report.engine]],
        title=f"{scenario.network} / {scenario.workload}",
    ))
    return 0


def cmd_compare(args) -> int:
    scenarios = [_scenario(args, name) for name in args.algorithms]
    network = scenarios[0].network.build()
    print(format_table(["algorithm", "throughput"],
                       _scoreboard_rows(scenarios, network, cache=args.cache,
                                        bound_method=args.bound),
                       title=f"{network}"))
    return 0


_SWEEP_COLUMNS = ["algorithm", "network", "workload", "seed", "throughput",
                  "bound", "ratio", "engine", "wall_s"]


def _report_row(report) -> list:
    scenario = report.scenario
    return [scenario.algorithm.name, str(scenario.network),
            str(scenario.workload), scenario.seed, report.throughput,
            report.bound, report.ratio, report.engine,
            f"{report.wall_time:.3f}"]


def _validate_sweep_flags(args) -> None:
    """Reject inconsistent sweep flags with one clear line (exit 2), not a
    traceback (or, worse, a silently serial run for ``--workers 0``)."""
    if args.workers is not None and args.workers < 1:
        raise ValidationError(
            f"sweep: --workers must be a positive integer, got {args.workers}")
    if args.shards is not None and args.shards < 1:
        raise ValidationError(
            f"sweep: --shards must be a positive integer, got {args.shards}")
    if args.shard_index is not None:
        if args.shards is None:
            raise ValidationError(
                "sweep: --shard-index needs --shards (the plan it indexes)")
        if not 0 <= args.shard_index < args.shards:
            raise ValidationError(
                f"sweep: --shard-index must satisfy 0 <= index < --shards, "
                f"got index {args.shard_index} with {args.shards} shard(s)")
        if args.emit_shards:
            raise ValidationError(
                "sweep: --emit-shards writes manifests instead of running; "
                "drop --shard-index")
        if not args.out:
            raise ValidationError(
                "sweep: a shard run needs --out FILE for its JSONL result "
                "(merge the files with 'python -m repro merge')")
    elif args.out and not args.spec_is_manifest:
        raise ValidationError(
            "sweep: --out only applies to shard runs (--shard-index, or a "
            "shard-manifest --spec)")
    if args.emit_shards and args.shards is None:
        raise ValidationError("sweep: --emit-shards needs --shards")
    if args.shards is not None and args.shard_index is None \
            and not args.emit_shards and not args.spec_is_manifest:
        raise ValidationError(
            "sweep: --shards needs --shard-index i --out FILE (run one "
            "shard) or --emit-shards DIR (write the manifests)")


def _runnable_scenarios(scenarios) -> tuple:
    """Split a batch into runnable scenarios and preformatted n/a rows."""
    rows = [None] * len(scenarios)
    runnable = []
    for i, scenario in enumerate(scenarios):
        reason = unavailable_reason(scenario)
        if reason is not None:
            rows[i] = [scenario.algorithm.name, str(scenario.network),
                       str(scenario.workload), scenario.seed,
                       f"n/a ({reason})", "", "", "", ""]
        else:
            runnable.append((i, scenario))
    return runnable, rows


def cmd_sweep(args) -> int:
    from repro.api import load_manifest, plan_shards, run_shard, write_manifest
    from repro.api.dispatch import MANIFEST_KIND

    try:
        spec_data = json.loads(pathlib.Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"sweep: cannot read --spec {args.spec}: {exc}")
    args.spec_is_manifest = (isinstance(spec_data, dict)
                             and spec_data.get("kind") == MANIFEST_KIND)
    _validate_sweep_flags(args)

    if args.spec_is_manifest:
        # the spec *is* one shard of an already-planned batch (the file a
        # coordinating host emitted with --emit-shards)
        if args.shards is not None or args.shard_index is not None:
            raise ValidationError(
                "sweep: the --spec file is already a shard manifest; "
                "--shards/--shard-index do not apply")
        if args.engine is not None:
            raise ValidationError(
                "sweep: a shard manifest pins its scenarios (including the "
                "engine); re-plan with --emit-shards to change them")
        manifest = load_manifest(spec_data)
        reports = run_shard(manifest, out=args.out, workers=args.workers,
                            cache=args.cache, bound_method=args.bound)
        if args.out:
            print(f"shard {manifest['shard_index']}/{manifest['n_shards']} "
                  f"of batch {manifest['batch_digest']}: "
                  f"{len(reports)} report(s) -> {args.out}")
        else:
            print(format_table(
                _SWEEP_COLUMNS, [_report_row(r) for r in reports],
                title=f"shard {manifest['shard_index']}/"
                      f"{manifest['n_shards']} of batch "
                      f"{manifest['batch_digest']}"))
        if reports.cache_stats is not None:
            print(reports.cache_stats.summary())
        return 0

    from repro.api.run import parse_scenarios

    scenarios = parse_scenarios(spec_data, f"spec file {args.spec}")
    if args.engine is not None:
        scenarios = [s.replace(engine=args.engine) for s in scenarios]

    if args.shards is not None:
        # sharding covers the runnable scenarios: capability checks are
        # deterministic, so every host planning the same spec agrees
        runnable, rows = _runnable_scenarios(scenarios)
        skipped = len(scenarios) - len(runnable)
        if skipped:
            print(f"note: excluding {skipped} unavailable scenario(s) from "
                  "the shard plan", file=sys.stderr)
        manifests = plan_shards([s for _, s in runnable], args.shards)
        if args.emit_shards:
            out_dir = pathlib.Path(args.emit_shards)
            for manifest in manifests:
                path = out_dir / f"shard_{manifest['shard_index']}.json"
                write_manifest(manifest, path)
                print(f"shard {manifest['shard_index']}/{args.shards}: "
                      f"{len(manifest['scenarios'])} scenario(s) -> {path}")
            print(f"batch {manifests[0]['batch_digest']}: run each manifest "
                  "with 'repro sweep --spec shard_i.json --out shard_i.jsonl'"
                  ", then 'repro merge shard_*.jsonl'")
            return 0
        manifest = manifests[args.shard_index]
        reports = run_shard(manifest, out=args.out, workers=args.workers,
                            cache=args.cache, bound_method=args.bound)
        print(f"shard {args.shard_index}/{args.shards} of batch "
              f"{manifest['batch_digest']}: {len(reports)} report(s) "
              f"-> {args.out}")
        if reports.cache_stats is not None:
            print(reports.cache_stats.summary())
        return 0

    runnable, rows = _runnable_scenarios(scenarios)
    reports = run_batch([s for _, s in runnable], workers=args.workers,
                        cache=args.cache, bound_method=args.bound)
    for (i, scenario), report in zip(runnable, reports):
        rows[i] = _report_row(report)
    print(format_table(
        _SWEEP_COLUMNS,
        rows,
        title=f"sweep over {len(scenarios)} scenarios "
              f"(workers={args.workers or 1})",
    ))
    if reports.cache_stats is not None:
        print(reports.cache_stats.summary())
    return 0


def _emit_batch(reports, out, message: str, title: str) -> None:
    """Shared output path for ``merge`` and ``collect``: the ``--out``
    JSON is canonical and byte-identical across the two commands (the CI
    chaos job diffs a ``collect --out`` against a ``merge --out``)."""
    if out:
        payload = json.dumps([r.to_dict() for r in reports],
                             sort_keys=True, indent=2) + "\n"
        pathlib.Path(out).write_text(payload)
        print(f"{message} -> {out}")
    else:
        print(format_table(
            _SWEEP_COLUMNS, [_report_row(r) for r in reports], title=title))
    if reports.cache_stats is not None:
        print(reports.cache_stats.summary())


def cmd_merge(args) -> int:
    from repro.api import merge

    reports = merge(args.files)
    _emit_batch(
        reports, args.out,
        f"merged {len(reports)} report(s) from {len(args.files)} "
        f"shard file(s)",
        f"merged batch ({len(reports)} scenarios, "
        f"{len(args.files)} shard files)")
    return 0


def cmd_enqueue(args) -> int:
    from repro.api.queue import WorkQueue
    from repro.api.run import parse_scenarios

    try:
        spec_data = json.loads(pathlib.Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"enqueue: cannot read --spec {args.spec}: {exc}")
    scenarios = parse_scenarios(spec_data, f"spec file {args.spec}")
    if args.engine is not None:
        scenarios = [s.replace(engine=args.engine) for s in scenarios]
    # same capability pre-check as 'sweep --shards': unavailable scenarios
    # never enter the queue (a chunk that fails deterministically would
    # bounce between pending and claimed forever -- see api/queue.py)
    runnable, _ = _runnable_scenarios(scenarios)
    skipped = len(scenarios) - len(runnable)
    if skipped:
        print(f"note: excluding {skipped} unavailable scenario(s) from "
              "the queue", file=sys.stderr)
    if not runnable:
        raise ValidationError("enqueue: no runnable scenarios in the spec")
    queue = WorkQueue.create(args.queue, [s for _, s in runnable],
                             chunk_size=args.chunk_size)
    header = queue.header()
    print(f"enqueued batch {header['batch_digest']}: "
          f"{header['batch_size']} scenario(s) as {header['n_chunks']} "
          f"chunk(s) -> {queue.root}")
    print(f"start workers with 'repro work {queue.root}' (any number, "
          "any host sharing the directory)")
    return 0


def cmd_work(args) -> int:
    from repro.api.queue import WorkQueue
    from repro.api.service import QueueWorker

    crash_env = os.environ.get("REPRO_QUEUE_CRASH_AFTER")
    crash_after = None
    if crash_env is not None:
        try:
            crash_after = int(crash_env)
        except ValueError:
            raise ValidationError(
                "work: REPRO_QUEUE_CRASH_AFTER must be an integer, got "
                f"{crash_env!r}")
    worker = QueueWorker(
        WorkQueue(args.queue),
        args.worker_id,
        ttl=args.ttl,
        poll=args.poll,
        workers=args.workers,
        cache=args.cache,
        bound_method=args.bound,
        crash_after=crash_after,
        crash_mode="exit",
        log=lambda message: print(message, flush=True),
    )
    ran = worker.run(max_chunks=args.max_chunks)
    drained = worker.queue.is_drained()
    print(f"worker {worker.worker_id}: executed {ran} chunk(s); queue "
          f"{'drained' if drained else 'still has work'}")
    return 0


def cmd_status(args) -> int:
    from repro.api.queue import WorkQueue

    status = WorkQueue(args.queue).status(args.ttl)
    for line in status.lines():
        print(line)
    return 0


def cmd_collect(args) -> int:
    from repro.api.queue import WorkQueue

    queue = WorkQueue(args.queue)
    reports = queue.collect()
    _emit_batch(
        reports, args.out,
        f"collected {len(reports)} report(s) from queue {queue.root}",
        f"collected queue {queue.root} ({len(reports)} scenarios)")
    return 0


def cmd_list(args) -> int:
    """Print the registries: what can be named in scenarios and flags."""
    from repro.api import TOPOLOGIES

    print(format_table(
        ["algorithm", "fast engine", "batch", "description"],
        [[e.name, e.fast_engine, e.batch_engine, e.description]
         for e in ALGORITHMS.entries()],
        title="registered algorithms",
    ))
    print()
    print(format_table(
        ["workload", "parameters", "seeded", "description"],
        [[e.name, " ".join(e.params), "yes" if e.takes_rng else "no",
          e.description]
         for e in WORKLOADS.entries()],
        title="registered workloads",
    ))
    print()
    print(format_table(
        ["topology", "description"],
        [[e.name, e.description] for e in TOPOLOGIES.entries()],
        title="registered topologies",
    ))
    return 0


def cmd_figures(args) -> int:
    from repro.analysis.viz import render_spacetime, render_tile_quadrants
    from repro.network.topology import LineNetwork
    from repro.spacetime.graph import SpaceTimeGraph, STPath
    from repro.spacetime.tiling import Tiling

    net = LineNetwork(8, buffer_size=2, capacity=2)
    graph = SpaceTimeGraph(net, 16)
    path = STPath((1, -1), (0, 1, 0, 1, 1, 0, 0), rid=0)
    print("Figure 3 (untilted space-time graph, one detailed path, tiles):\n")
    print(render_spacetime(graph, [path], tiling=Tiling((4, 4)),
                           col_lo=-4, col_hi=12))
    print("\nFigure 8/9 (tile quadrants and routing roles):\n")
    print(render_tile_quadrants(8, 8))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Even & Medina, SPAA 2011 -- online packet routing in "
        "grids with bounded buffers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    engine_kwargs = dict(
        choices=("reference", "fast", "batch"), default=None,
        help="simulation engine (default: REPRO_ENGINE env var or "
        "reference); 'batch' stacks eligible sweep scenarios into one "
        "array program and falls back per-scenario otherwise",
    )
    cache_kwargs = dict(
        choices=("off", "read", "readwrite"), default=None,
        help="result-cache mode; the cache directory comes from the "
        "REPRO_CACHE env var (default ~/.cache/repro).  Default mode: "
        "readwrite when REPRO_CACHE is set, else off",
    )
    bound_kwargs = dict(
        choices=offline.BOUND_METHODS, default="maxflow",
        help="offline bound the ratios divide by (default maxflow; see "
        "benchmarks/README.md for tightness vs cost)",
    )

    p = sub.add_parser("demo", help="quick scoreboard on a line")
    p.add_argument("-n", type=int, default=64)
    p.add_argument("-B", type=int, default=1)
    p.add_argument("-c", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm-arg", action="append", metavar="KEY=VALUE")
    p.add_argument("--engine", **engine_kwargs)
    p.add_argument("--cache", **cache_kwargs)
    p.add_argument("--bound", **bound_kwargs)
    p.set_defaults(fn=cmd_demo)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dims", default=_COMMON_DEFAULTS["dims"],
                        help="e.g. 64 or 8x8")
    common.add_argument("--topology", default=_COMMON_DEFAULTS["topology"],
                        choices=topology_names(),
                        help="network family (default: line for one "
                        "dimension, grid otherwise)")
    common.add_argument("-B", type=int, default=_COMMON_DEFAULTS["B"])
    common.add_argument("-c", type=int, default=_COMMON_DEFAULTS["c"])
    common.add_argument("--requests", type=int,
                        default=_COMMON_DEFAULTS["requests"])
    common.add_argument("--arrival-window", type=int,
                        default=_COMMON_DEFAULTS["arrival_window"])
    common.add_argument("--horizon", type=int,
                        default=_COMMON_DEFAULTS["horizon"])
    common.add_argument("--workload", default=_COMMON_DEFAULTS["workload"],
                        choices=workload_names())
    common.add_argument("--workload-arg", action="append", metavar="KEY=VALUE",
                        help="extra generator parameter (repeatable); values "
                        "parse as JSON scalars")
    common.add_argument("--algorithm-arg", action="append", metavar="KEY=VALUE",
                        help="extra algorithm parameter (repeatable), e.g. "
                        "lam=0.1 or priority=longest")
    common.add_argument("--seed", type=int, default=_COMMON_DEFAULTS["seed"])
    common.add_argument("--engine", **engine_kwargs)
    common.add_argument("--cache", **cache_kwargs)
    common.add_argument("--bound", **bound_kwargs)

    p = sub.add_parser("route", parents=[common],
                       help="run one algorithm or a --spec file")
    p.add_argument("algorithm", nargs="?", choices=algorithm_names())
    p.add_argument("--spec", help="JSON scenario spec file")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("compare", parents=[common], help="compare algorithms")
    p.add_argument("algorithms", nargs="+", choices=algorithm_names())
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="run a batch of scenarios from a spec")
    p.add_argument("--spec", required=True,
                   help="JSON scenario spec file (or a shard manifest "
                   "emitted by --emit-shards)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool width (results are bit-identical to "
                   "serial for any value)")
    p.add_argument("--shards", type=int, default=None,
                   help="partition the batch into N deterministic shards "
                   "(merged output is bit-identical to the unsharded sweep)")
    p.add_argument("--shard-index", type=int, default=None,
                   help="run only shard i of the --shards plan (needs --out)")
    p.add_argument("--out", default=None,
                   help="JSONL result file for a shard run (input to "
                   "'repro merge')")
    p.add_argument("--emit-shards", default=None, metavar="DIR",
                   help="write the --shards manifests to DIR instead of "
                   "running (one JSON file per shard, for other hosts)")
    p.add_argument("--engine", **engine_kwargs)
    p.add_argument("--cache", **cache_kwargs)
    p.add_argument("--bound", **bound_kwargs)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "merge",
        help="reassemble shard result files into the batch result")
    p.add_argument("files", nargs="+", metavar="SHARD_JSONL_OR_DIR",
                   help="shard JSONL result files and/or directories of "
                   "them (a directory stands for every *.jsonl directly "
                   "inside it; any order)")
    p.add_argument("--out", default=None,
                   help="write the merged reports as canonical JSON instead "
                   "of printing the table")
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser(
        "enqueue",
        help="enqueue a sweep spec as chunks into a work-queue directory")
    p.add_argument("queue", metavar="QUEUE_DIR",
                   help="fresh queue directory (shared between workers, "
                   "e.g. on a network filesystem)")
    p.add_argument("--spec", required=True, help="JSON scenario spec file")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="scenarios per chunk: the unit of leasing, crash "
                   f"loss, and rebalancing (default {STACKED_CHUNK_SIZE} "
                   "when every scenario runs on the stacked engine, as "
                   "--engine or REPRO_ENGINE here resolves it, else "
                   f"{DEFAULT_CHUNK_SIZE})")
    p.add_argument("--engine", **engine_kwargs)
    p.set_defaults(fn=cmd_enqueue)

    p = sub.add_parser(
        "work",
        help="pull and execute chunks from a queue until it drains")
    p.add_argument("queue", metavar="QUEUE_DIR")
    p.add_argument("--worker-id", default=None,
                   help="lease owner label (default: hostname-pid)")
    p.add_argument("--ttl", type=float, default=DEFAULT_TTL,
                   help="lease seconds without a heartbeat before a chunk "
                   "is considered abandoned and requeued (default "
                   "%(default)s)")
    p.add_argument("--poll", type=float, default=1.0,
                   help="idle sleep between claim attempts (default 1s)")
    p.add_argument("--max-chunks", type=int, default=None,
                   help="exit after executing this many chunks (default: "
                   "run until the queue drains)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool width inside each chunk")
    p.add_argument("--cache", **cache_kwargs)
    p.add_argument("--bound", **bound_kwargs)
    p.set_defaults(fn=cmd_work)

    p = sub.add_parser(
        "status", help="live queue progress: chunks, leases, cache stats")
    p.add_argument("queue", metavar="QUEUE_DIR")
    p.add_argument("--ttl", type=float, default=DEFAULT_TTL,
                   help="lease TTL used to classify leases as live or "
                   "expired (match the workers' --ttl; default "
                   "%(default)s)")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser(
        "collect",
        help="merge a drained queue's results into the batch result")
    p.add_argument("queue", metavar="QUEUE_DIR")
    p.add_argument("--out", default=None,
                   help="write the merged reports as canonical JSON "
                   "(byte-identical to 'repro merge --out' of the same "
                   "batch) instead of printing the table")
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser("list", help="registered algorithms/workloads/topologies")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("figures", help="paper figures as ASCII")
    p.set_defaults(fn=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        # invalid input (bad spec, unsatisfied workload params, topology
        # mismatch): one clean line, not a traceback.  Only the
        # invalid-input subclass is caught -- CapacityError/RoutingError
        # and other ReproErrors indicate bugs and still propagate loudly
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
