"""Span recorder for the traced benchmark run.

The tracer wraps the *public* entry points of each layer of ``repro`` from
the outside -- class methods, module functions and the algorithm registry
lookup are swapped for timing wrappers while a timed pass runs and are
restored afterwards.  Nothing inside ``src/`` is instrumented, so the
untraced run measures exactly the code users run.

A span is ``[name, start, end, parent]``: ``name`` is ``"<layer>:<entry
point>"``, times come from :func:`time.perf_counter`, and ``parent`` is the
index of the enclosing span (``-1`` for the root span of a timed pass).
The benchmark is single-threaded (no pool, no heartbeat thread), so spans
nest strictly and a layer's *self time* -- its spans' durations minus the
part covered by child spans -- partitions the traced wall time exactly.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: layer of the root span of every timed pass: time no wrapped entry point
#: accounts for (benchmark glue and unwrapped program code)
ROOT_LAYER = "bench"

#: layers in the order the self-time table prints them
LAYERS = ("spec", "core", "network", "kernel", "packing", "cache", "queue",
          "service", "run", ROOT_LAYER)

_MISSING = object()


def _layer(name: str) -> str:
    return name.split(":", 1)[0]


class Tracer:
    """In-memory span and counter store plus the layer wrappers.

    :meth:`timed_pass` installs the wrappers, opens a root span, and
    removes the wrappers again when the pass ends, so work the benchmark
    does between passes (storing reports, checks) is never traced.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original or _MISSING)
        self._entries: dict = {}  # algorithm name -> (entry, wrapped entry)
        self.pass_name = ""  # root span name of the running timed pass

    # -- spans -----------------------------------------------------------

    def _timed(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def timed_pass(self, name: str):
        """Trace one timed pass under a root span ``bench:<name>``."""
        self._install()
        self.pass_name = name
        record = [f"{ROOT_LAYER}:{name}", 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._uninstall()

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append(
            (owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def _method(self, cls, attribute: str, layer: str, on_result=None):
        original = getattr(cls, attribute)
        self._patch(cls, attribute, self._timed(
            f"{layer}:{cls.__name__}.{attribute}", original, on_result))

    def _function(self, module, attribute: str, layer: str, on_result=None):
        original = getattr(module, attribute)
        self._patch(module, attribute, self._timed(
            f"{layer}:{attribute}", original, on_result))

    def _install(self) -> None:
        from repro.api.cache import ResultCache
        from repro.api.queue import WorkQueue
        from repro.api.registry import ALGORITHMS
        from repro.api.service import QueueWorker
        from repro.api.spec import NetworkSpec, Scenario
        from repro.network.fast_batch_engine import FastBatchEngine
        from repro.network.fast_engine import FastEngine
        from repro.network.node_models import (
            FastModel2Engine,
            Model2LineSimulator,
        )
        from repro.network.simulator import Simulator

        counts = self.counts
        kernel = importlib.import_module("repro.network.kernel")
        offline = importlib.import_module("repro.baselines.offline")
        run_module = importlib.import_module("repro.api.run")

        def count(key):
            def on_result(_result):
                counts[key] += 1
            return on_result

        def instance(result):
            counts["spec.requests"] += len(result[1])

        def replayed(result):
            results = result if isinstance(result, list) else [result]
            if isinstance(result, list):
                counts["network.stacked"] += len(result)  # FastBatchEngine jobs
            for one in results:
                counts["network.steps"] += one.stats.steps
                counts["network.delivered"] += one.throughput

        def loaded(result):
            outcome = "hits" if result is not None else "misses"
            counts[f"cache.{outcome}"] += 1
            if self.pass_name == "replay":
                counts[f"cache.replay_{outcome}"] += 1

        def bound_loaded(result):
            if result is not None:
                counts["cache.bound_hits"] += 1

        def completed(_path):
            counts["queue.chunks"] += 1

        self._method(NetworkSpec, "build", "spec")
        self._method(Scenario, "build_instance", "spec", instance)
        self._registry(ALGORITHMS, count("core.calls"))
        for cls in (Simulator, FastEngine, FastModel2Engine,
                    Model2LineSimulator):
            self._method(cls, "run", "network", replayed)
        self._method(FastBatchEngine, "run_many", "network", replayed)
        self._function(kernel, "grouped_rank", "kernel", count("kernel.calls"))
        self._function(kernel, "admit", "kernel", count("kernel.calls"))
        self._function(offline, "offline_bound", "packing",
                       count("packing.bound_calls"))
        self._method(ResultCache, "load", "cache", loaded)
        self._method(ResultCache, "store", "cache", count("cache.stores"))
        self._method(ResultCache, "load_bound", "cache", bound_loaded)
        self._method(ResultCache, "store_bound", "cache")
        create = vars(WorkQueue)["create"].__func__
        self._patch(WorkQueue, "create", classmethod(
            self._timed("queue:WorkQueue.create", create)))
        self._method(WorkQueue, "claim", "queue")
        self._method(WorkQueue, "requeue_expired", "queue")
        self._method(WorkQueue, "complete", "queue", completed)
        self._method(WorkQueue, "collect", "queue")
        self._method(QueueWorker, "run", "service")
        self._function(run_module, "run_batch", "run")

    def _registry(self, registry, on_result) -> None:
        """Wrap the callables the registry hands out.

        ``RegistryEntry`` is frozen, so the lookup returns a copy whose
        ``fn`` is wrapped; the registry itself is left untouched.
        """
        lookup = registry.get
        entries = self._entries

        def get(name):
            entry = lookup(name)
            cached = entries.get(name)
            if cached is None or cached[0] is not entry:
                wrapped = dataclasses.replace(entry, fn=self._timed(
                    f"core:{name}", entry.fn, on_result))
                cached = entries[name] = (entry, wrapped)
            return cached[1]

        self._patch(registry, "get", get)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._entries.clear()

    # -- analysis ----------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to :meth:`summary` for the spans and counts
        recorded after this call."""
        return len(self.spans), Counter(self.counts)

    def summary(self, mark: tuple = (0, Counter())) -> "TraceSummary":
        first, counts_before = mark
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                covered[parent - first] += end - start
        self_time: dict = defaultdict(float)
        span_time: dict = defaultdict(float)
        wall = 0.0
        for (name, start, end, parent), inner in zip(spans, covered):
            self_time[_layer(name)] += (end - start) - inner
            span_time[name] += end - start
            if parent < 0:
                wall += end - start
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return TraceSummary(wall, dict(self_time), dict(span_time),
                            {k: v for k, v in counts.items() if v})

    def dump(self) -> dict:
        """The artefact: every span plus the counters, JSON-ready."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[name, round(start - origin, 9), round(end - origin, 9),
                       parent] for name, start, end, parent in self.spans],
            "counts": dict(self.counts),
        }


@dataclasses.dataclass
class TraceSummary:
    """Self time per layer, total time per entry point, and counters for
    a slice of the trace."""

    wall: float  # summed duration of the root spans
    self_time: dict  # layer -> seconds not covered by child spans
    span_time: dict  # span name -> summed duration
    counts: dict

    def layer(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def entry(self, *names: str) -> float:
        return sum(self.span_time.get(name, 0.0) for name in names)

    def count(self, key: str) -> int:
        return int(self.counts.get(key, 0))

    def accounted(self) -> float:
        """Sum of every layer's self time; equals :attr:`wall` whenever
        the spans nest, which the benchmark checks."""
        return sum(self.self_time.values())
