"""Distributed sweep orchestration: shard a batch, run shards, merge.

:func:`repro.api.run.run_batch` saturates one host; this module is the
layer above it.  A batch of :class:`~repro.api.spec.Scenario` objects is
partitioned into **shard manifests** -- plain JSON files, each embedding
its scenarios plus a digest of the whole batch -- that can be copied to
any number of hosts.  Each host executes its manifest with
:func:`run_shard` (which is just ``run_batch`` plus a self-describing
JSONL result file) and the result files are reassembled with
:func:`merge` into a :class:`~repro.api.run.BatchResult` that is
bit-identical to running the whole batch serially on one machine.

Why this is sound: every scenario derives all of its randomness from its
own ``(seed, digest)`` (see :mod:`repro.api.spec`), engines are
bit-identical by contract, and ``run_batch`` is bit-identical to serial
for any worker count -- so *where* a scenario runs cannot change its
report.  ``tests/test_dispatch.py`` enforces the headline guarantee with
hypothesis: for random batches and random partitions, merged output
equals the serial ``run_batch`` report-for-report.

Determinism and accounting:

* :func:`plan_shards` orders scenarios by digest and stripes them across
  shards, so the same batch always yields the same manifests (no
  dependence on input order beyond tie-breaks, dict order, or host).
* Every manifest and result file carries the **batch digest** (a stable
  digest over the ordered scenario digests).  :func:`merge` refuses
  files from a different batch, duplicated shards, and incomplete
  coverage -- every scenario digest must be present exactly once.
* Result files are JSONL: a header line, one ``RunReport.to_dict()``
  line per scenario, and a footer carrying the shard's cache stats.
  A crashed shard simply reruns: with a warmed ``REPRO_CACHE`` the rerun
  is pure cache replay (see the crash-resume test).

Command-line wiring: ``python -m repro sweep --spec f.json --shards N
[--emit-shards DIR | --shard-index i --out shard_i.jsonl]`` and
``python -m repro merge shard_*.jsonl``.  The multi-host recipe lives in
``benchmarks/README.md``.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.api.cache import CacheStats
from repro.api.run import BatchResult, RunReport, run_batch
from repro.api.spec import Scenario, point_digest
from repro.util import atomic_write
from repro.util.errors import ValidationError

#: bump when the manifest / result-file layout changes incompatibly
SHARD_SCHEMA = 1

MANIFEST_KIND = "repro-shard-manifest"
RESULT_KIND = "repro-shard-result"
FOOTER_KIND = "repro-shard-footer"


class ShardError(ValidationError):
    """A shard manifest or result file is malformed, incomplete,
    duplicated, or belongs to a different batch."""


def _coerce_scenarios(scenarios) -> list:
    return [s if isinstance(s, Scenario) else Scenario.from_dict(s)
            for s in scenarios]


def batch_digest(scenarios) -> str:
    """Stable digest of the *ordered* batch (8-hex, like cache keys).

    Covers the scenario digests in input order, so two hosts planning
    the same spec file agree on it, and a shard produced from a
    different batch (or the same scenarios in a different order) is
    detected at merge time.
    """
    scenarios = _coerce_scenarios(scenarios)
    digests = tuple(s.digest() for s in scenarios)
    return f"{point_digest(('batch', digests)):08x}"


def plan_shards(scenarios, n_shards: int) -> list:
    """Partition a batch into ``n_shards`` deterministic shard manifests.

    Scenarios are ordered by digest and striped round-robin across the
    shards, so the plan depends only on the batch content -- every host
    planning the same spec computes identical manifests.  Each manifest
    is a plain JSON-serializable dict embedding its scenarios, their
    original batch positions, and the batch digest.

    Raises :class:`ShardError` on duplicate scenarios: sharding a
    duplicate would run it on several hosts, and the merge contract is
    "every scenario present exactly once" (``run_batch`` itself
    deduplicates identical scenarios, so deduplicate before planning).
    Duplicates are detected by :meth:`Scenario.key` -- content identity,
    not the 32-bit digest, so a CRC collision between genuinely
    different scenarios is *not* rejected (positions, not digests, are
    what ``merge`` accounts for).
    """
    if n_shards < 1:
        raise ShardError(f"n_shards must be >= 1, got {n_shards}")
    scenarios = _coerce_scenarios(scenarios)
    if not scenarios:
        raise ShardError("cannot shard an empty batch")
    seen: dict = {}
    for i, scenario in enumerate(scenarios):
        key = scenario.key()
        if key in seen:
            raise ShardError(
                f"duplicate scenario in batch (positions {seen[key]} and "
                f"{i}): {scenario}"
            )
        seen[key] = i
    batch = batch_digest(scenarios)
    order = sorted(range(len(scenarios)),
                   key=lambda i: (scenarios[i].digest(), i))
    manifests = []
    for shard_index in range(n_shards):
        assigned = order[shard_index::n_shards]
        manifests.append({
            "kind": MANIFEST_KIND,
            "schema": SHARD_SCHEMA,
            "batch_digest": batch,
            "batch_size": len(scenarios),
            "n_shards": n_shards,
            "shard_index": shard_index,
            "scenarios": [
                {
                    "index": i,
                    "digest": f"{scenarios[i].digest():08x}",
                    "scenario": scenarios[i].to_dict(),
                }
                for i in assigned
            ],
        })
    return manifests


def write_manifest(manifest: dict, path) -> pathlib.Path:
    """Write one shard manifest as one line of canonical JSON (atomically;
    no indent, so ``json`` keeps its C encoder)."""
    return atomic_write(path, json.dumps(manifest, sort_keys=True) + "\n")


def load_manifest(source) -> dict:
    """Load and validate a shard manifest (path, JSON text is not accepted:
    pass a dict straight from :func:`plan_shards` instead)."""
    if isinstance(source, dict):
        manifest = source
        label = "manifest"
    else:
        label = str(source)
        try:
            manifest = json.loads(pathlib.Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ShardError(f"cannot read shard manifest {label}: {exc}") \
                from None
    if not isinstance(manifest, dict) \
            or manifest.get("kind") != MANIFEST_KIND:
        raise ShardError(f"{label} is not a shard manifest (expected "
                         f"kind={MANIFEST_KIND!r})")
    if manifest.get("schema") != SHARD_SCHEMA:
        raise ShardError(
            f"{label} uses shard schema {manifest.get('schema')!r}; this "
            f"version reads schema {SHARD_SCHEMA}")
    required = {"batch_digest", "batch_size", "n_shards", "shard_index",
                "scenarios"}
    missing = sorted(required - set(manifest))
    if missing:
        raise ShardError(f"{label} is missing key(s) {missing}")
    if not 0 <= manifest["shard_index"] < manifest["n_shards"]:
        raise ShardError(
            f"{label}: shard_index {manifest['shard_index']} out of range "
            f"for n_shards={manifest['n_shards']}")
    for item in manifest["scenarios"]:
        scenario = Scenario.from_dict(item["scenario"])
        if f"{scenario.digest():08x}" != item["digest"]:
            raise ShardError(
                f"{label}: stored digest {item['digest']} does not match "
                f"scenario {scenario} ({scenario.digest():08x}) -- "
                "manifest edited or corrupted")
    return manifest


def run_shard(manifest, out=None, *, workers: int | None = None,
              cache: str | None = None, cache_dir=None,
              compute_bound: bool = True,
              bound_method: str = "maxflow") -> BatchResult:
    """Execute one shard manifest via :func:`run_batch`.

    ``manifest`` is a dict from :func:`plan_shards` or a path to one
    written by :func:`write_manifest`.  When ``out`` is given, the
    reports are written (atomically) as a self-describing JSONL result
    file for :func:`merge`: a header line identifying the shard and its
    batch, one report line per scenario, and a footer with the shard's
    cache stats.

    Crash resume is rerun: the execution is cache-backed (same
    ``cache``/``REPRO_CACHE`` contract as ``run_batch``), so rerunning a
    shard whose previous attempt died mid-write replays every completed
    scenario from the result cache and atomically replaces the partial
    file.

    Engine selection rides along unchanged: a shard whose scenarios
    resolve to ``engine="batch"`` executes its eligible subset as one
    stacked array program inside ``run_batch`` -- sharding composes with
    stacking, and merged output stays bit-identical either way.
    """
    manifest = load_manifest(manifest)
    scenarios = [Scenario.from_dict(item["scenario"])
                 for item in manifest["scenarios"]]
    reports = run_batch(scenarios, workers=workers, cache=cache,
                        cache_dir=cache_dir, compute_bound=compute_bound,
                        bound_method=bound_method)
    if out is not None:
        write_shard_result(manifest, reports, out)
    return reports


def write_shard_result(manifest: dict, reports, out) -> pathlib.Path:
    """Write a shard's reports as the JSONL result file ``merge`` reads."""
    header = {
        "kind": RESULT_KIND,
        "schema": SHARD_SCHEMA,
        "batch_digest": manifest["batch_digest"],
        "batch_size": manifest["batch_size"],
        "n_shards": manifest["n_shards"],
        "shard_index": manifest["shard_index"],
        "indices": [item["index"] for item in manifest["scenarios"]],
    }
    lines = [json.dumps(header, sort_keys=True)]
    for item, report in zip(manifest["scenarios"], reports):
        lines.append(json.dumps(
            {"index": item["index"], "digest": item["digest"],
             "report": report.to_dict()},
            sort_keys=True))
    cache_stats = getattr(reports, "cache_stats", None)
    footer = {
        "kind": FOOTER_KIND,
        "reports": len(manifest["scenarios"]),
        "cache_stats": vars(cache_stats) if cache_stats is not None else None,
    }
    lines.append(json.dumps(footer, sort_keys=True))
    return atomic_write(out, "\n".join(lines) + "\n")


def _iter_shard_result(path):
    """Stream one result file: yield ``("header", dict)`` once, then one
    ``("report", index, report)`` per body line, then ``("footer", stats)``.

    Memory-bounded by construction: lines are read one at a time from the
    open file and parsed records are yielded (and dropped) immediately --
    the raw text and the parsed JSON of a many-chunk result set never
    coexist in memory, which is what lets :func:`merge` (and the queue's
    ``collect``) scale with the number of *reports*, not with file sizes.

    Fails loudly on anything short of a complete, well-formed shard:
    a missing footer (the crash signature of a truncated write), a
    report-count mismatch, or a report whose recomputed scenario digest
    disagrees with its recorded one.
    """
    label = str(path)
    try:
        handle = open(path, "r")
    except OSError as exc:
        raise ShardError(f"cannot read shard result {label}: {exc}") from None
    with handle:
        header = None
        footer = None
        declared_set: set = set()
        n_declared = 0
        n_reports = 0
        for line in handle:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ShardError(
                    f"{label} is truncated or corrupted (bad JSONL line: "
                    f"{exc}); rerun the shard to regenerate it") from None
            if footer is not None:
                raise ShardError(
                    f"{label} has data after its footer -- corrupted "
                    "result file; rerun the shard to regenerate it")
            if header is None:
                header = record
                if not isinstance(header, dict) \
                        or header.get("kind") != RESULT_KIND:
                    raise ShardError(
                        f"{label} is not a shard result file (expected a "
                        f"kind={RESULT_KIND!r} header)")
                if header.get("schema") != SHARD_SCHEMA:
                    raise ShardError(
                        f"{label} uses shard schema {header.get('schema')!r};"
                        f" this version reads schema {SHARD_SCHEMA}")
                declared = header.get("indices", [])
                declared_set = set(declared)
                n_declared = len(declared)
                yield "header", header
                continue
            if isinstance(record, dict) and record.get("kind") == FOOTER_KIND:
                footer = record
                continue
            report = RunReport.from_dict(record["report"])
            if f"{report.scenario.digest():08x}" != record["digest"]:
                raise ShardError(
                    f"{label}: report digest {record['digest']} does not "
                    f"match its scenario ({report.scenario.digest():08x}) -- "
                    "corrupted result file")
            index = record["index"]
            if index not in declared_set:
                raise ShardError(
                    f"{label}: unexpected or repeated batch position {index}")
            declared_set.discard(index)
            n_reports += 1
            yield "report", index, report
        if header is None:
            raise ShardError(f"{label} is empty, not a shard result file")
        if footer is None:
            raise ShardError(
                f"{label} has no footer -- the shard run was interrupted "
                "mid-write; rerun the shard (cache-backed, so completed "
                "scenarios replay for free)")
        if footer.get("reports") != n_reports or n_reports != n_declared:
            raise ShardError(
                f"{label} holds {n_reports} report(s) but declares "
                f"{n_declared} -- truncated shard; rerun it")
        stats = footer.get("cache_stats")
        if stats is not None:
            stats = CacheStats(**stats)
        yield "footer", stats


def _expand_result_files(result_files) -> list:
    """Normalize merge input: paths and/or directories -> result files.

    A directory stands for every ``*.jsonl`` file directly inside it, in
    sorted-name order (deterministic on any host); a directory holding no
    result files is a loud :class:`ShardError`, not an empty merge.  A
    single path (string or ``Path``) is accepted in place of a list.
    """
    if isinstance(result_files, (str, os.PathLike)):
        result_files = [result_files]
    paths: list = []
    for item in result_files:
        path = pathlib.Path(item)
        if path.is_dir():
            found = sorted(p for p in path.iterdir()
                           if p.is_file() and p.suffix == ".jsonl")
            if not found:
                raise ShardError(
                    f"directory {path} holds no .jsonl shard result files")
            paths.extend(found)
        else:
            paths.append(path)
    return paths


def merge(result_files) -> BatchResult:
    """Reassemble shard result files into the original batch order.

    ``result_files`` is a list of result files and/or directories (a
    directory stands for every ``*.jsonl`` file directly inside it --
    the natural form for a queue's ``results/`` directory or a
    collected-from-hosts dropbox), or a single such path.

    The output is the :class:`BatchResult` the serial ``run_batch`` of
    the whole batch would have returned (``tests/test_dispatch.py``
    proves bit-identity), with ``cache_stats`` aggregated across shards
    (``None`` when no shard ran with the cache on).  Merge order does
    not matter: reports are keyed by their recorded batch position.
    Each file is *streamed* (see :func:`_iter_shard_result`): peak
    memory is one report plus the merged output, independent of how the
    batch was chunked.

    Raises :class:`ShardError` when the files do not form exactly one
    complete batch: a shard from a different batch ("foreign"), the same
    shard twice, a missing shard, or a truncated/corrupted file.
    """
    paths = _expand_result_files(result_files)
    if not paths:
        raise ShardError("merge needs at least one shard result file")
    batch = None
    batch_size = None
    n_shards = None
    seen_shards: dict = {}
    reports: dict = {}
    totals: CacheStats | None = None
    for path in paths:
        header = None
        for item in _iter_shard_result(path):
            if item[0] == "header":
                header = item[1]
                if batch is None:
                    batch = header["batch_digest"]
                    batch_size = header["batch_size"]
                    n_shards = header["n_shards"]
                elif header["batch_digest"] != batch:
                    raise ShardError(
                        f"{path} belongs to batch {header['batch_digest']}, "
                        f"not {batch} -- refusing to merge foreign shards")
                elif header["batch_size"] != batch_size \
                        or header["n_shards"] != n_shards:
                    raise ShardError(
                        f"{path} comes from a different plan "
                        f"(batch_size={header['batch_size']}, "
                        f"n_shards={header['n_shards']}; expected "
                        f"{batch_size} and {n_shards})")
                key = header["shard_index"]
                if key in seen_shards:
                    raise ShardError(
                        f"shard {key}/{n_shards} appears twice: "
                        f"{seen_shards[key]} and {path}")
                seen_shards[key] = path
            elif item[0] == "report":
                index, report = item[1], item[2]
                if index in reports:
                    raise ShardError(
                        f"batch position {index} is reported by more than "
                        f"one shard file (second: {path})")
                reports[index] = report
            else:
                stats = item[1]
                if stats is not None:
                    if totals is None:
                        totals = CacheStats()
                    totals.add(stats)
    missing = sorted(set(range(batch_size)) - set(reports))
    if missing:
        raise ShardError(
            f"merge is missing batch position(s) {missing} of {batch_size} "
            f"(batch {batch}) -- supply every shard's result file")
    extra = sorted(set(reports) - set(range(batch_size)))
    if extra:
        raise ShardError(
            f"shard files report position(s) {extra} outside the batch of "
            f"size {batch_size}")
    merged = BatchResult(reports[i] for i in range(batch_size))
    merged.cache_stats = totals
    return merged
