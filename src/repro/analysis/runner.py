"""Seeded multi-trial experiment running and aggregation.

Reproducibility contract: every trial's generator is derived from
``(base_seed, digest(point), trial_index)`` where the digest is a stable
CRC-32 of ``repr(point)`` -- *not* Python's ``hash``, which is randomized
per process by ``PYTHONHASHSEED`` and would make sweep results differ
across runs.  Because each trial is independently seeded, a sweep can be
sharded across a process pool (``workers=N``) and still produce results
bit-identical to the single-process run.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import spawn_generators


@dataclass
class ExperimentResult:
    """Aggregate of a metric over trials (mean, sd, extremes)."""

    label: str
    values: list = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def _finite(self) -> list:
        return [v for v in self.values if np.isfinite(v)]

    @property
    def mean(self) -> float:
        # nan (not inf) when no trial was finite, so empty/poisoned
        # aggregates are distinguishable from genuinely divergent ratios
        finite = self._finite()
        return float(np.mean(finite)) if finite else float("nan")

    @property
    def std(self) -> float:
        finite = self._finite()
        if not finite:
            return float("nan")
        return float(np.std(finite)) if len(finite) > 1 else 0.0

    @property
    def best(self) -> float:
        finite = self._finite()
        return min(finite) if finite else float("nan")

    @property
    def worst(self) -> float:
        finite = self._finite()
        return max(finite) if finite else float("nan")

    def summary(self) -> str:
        return f"{self.label}: mean={self.mean:.3f} sd={self.std:.3f} n={len(self.values)}"


def run_trials(fn, seeds: int, base_seed: int = 0, label: str = "") -> ExperimentResult:
    """Run ``fn(rng) -> float`` over ``seeds`` independent generators."""
    result = ExperimentResult(label=label or getattr(fn, "__name__", "metric"))
    for rng in spawn_generators(base_seed, seeds):
        result.add(fn(rng))
    return result


def point_digest(point) -> int:
    """Stable 32-bit digest of a sweep point (replaces randomized ``hash``)."""
    return zlib.crc32(repr(point).encode("utf-8"))


def _trial_generator(base_seed: int, point, seeds: int, index: int):
    """Generator for trial ``index`` of ``point``.

    Spawning is deterministic, so picking one child in a worker process
    yields the same stream as the serial run -- no shared state needed.
    """
    return spawn_generators((base_seed, point_digest(point)), seeds)[index]


def _run_shard(shard) -> float:
    """Execute one (point, trial) shard; module-level so it pickles."""
    fn, point, base_seed, seeds, index = shard
    return float(fn(point, _trial_generator(base_seed, point, seeds, index)))


def sweep(fn, points, seeds: int = 3, base_seed: int = 0,
          workers: int | None = None) -> dict:
    """Run ``fn(point, rng) -> float`` for each sweep point.

    Returns ``{point: ExperimentResult}`` -- the shape the benches print as
    table rows (point per row).

    ``workers > 1`` shards the ``(point, trial)`` pairs over a process
    pool.  Seeding is per-shard and derived only from ``(base_seed, point,
    trial index)``, so the output is bit-identical to the serial run for
    any worker count; ``fn`` must be picklable (a module-level function)
    and pure per trial.

    To partition a sweep across *hosts*, express it as Scenario batches
    and shard them with :mod:`repro.api.dispatch`, whose manifests
    round-trip through JSON files.
    """
    out: dict = {point: ExperimentResult(label=str(point)) for point in points}
    # shard over the dict keys, not the input list: duplicate points collapse
    # into one entry, and the positional regrouping below must stay aligned
    shards = [
        (fn, point, base_seed, seeds, index)
        for point in out
        for index in range(seeds)
    ]
    if workers is not None and workers > 1 and len(shards) > 1:
        chunksize = max(1, len(shards) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_run_shard, shards, chunksize=chunksize))
    else:
        values = [_run_shard(shard) for shard in shards]
    for index, result in enumerate(out.values()):
        for value in values[index * seeds:(index + 1) * seeds]:
            result.add(value)
    return out

