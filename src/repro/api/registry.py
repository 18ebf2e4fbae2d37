"""Decorator-based registries for algorithms, workloads, and topologies.

Three process-wide registries map stable string names to runnable entries:

* :data:`ALGORITHMS` -- ``fn(network, requests, horizon, *, rng, engine,
  **params) -> SimulationResult``.  Planning routers are wrapped by
  :func:`planner_adapter`, which routes, replays the plan through the
  simulation engine, and cross-checks consistency.
* :data:`WORKLOADS` -- request generators ``fn(network, **params)``
  returning a sequence of requests: a list, or (``uniform``) a
  :class:`~repro.network.packet.RequestTable` whose request objects are
  built only when iterated or indexed, so consumers must not assume a
  list; ``rng`` is threaded through only when the generator's signature
  accepts it (recorded as :attr:`RegistryEntry.takes_rng`).
* :data:`TOPOLOGIES` -- network builders ``fn(dims, buffer_size, capacity)
  -> Network``.

Entries carry metadata -- most importantly ``requires``, a callable
``(network, horizon) -> str | None`` returning a human-readable reason when
the algorithm cannot run on that network (e.g. ``"requires B, c >= 3"``).
Consumers use :meth:`RegistryEntry.unavailable` as a *capability check*
instead of try/except ladders, so real bugs keep their tracebacks.

Providers (``repro.baselines``, ``repro.core``, ``repro.workloads``)
register themselves at import time; :func:`ensure_providers` lazily imports
the built-in provider modules the first time a registry is queried, so
``repro.api`` works no matter which corner of the package was imported
first.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field

from repro.util.errors import ReproError, ValidationError

#: modules whose import populates the built-in registries
_PROVIDER_MODULES = (
    "repro.api.builtin",
    "repro.baselines.edd",
    "repro.baselines.greedy",
    "repro.baselines.nearest_to_go",
    "repro.core.deterministic",
    "repro.core.randomized",
    "repro.packing.ipp",
    "repro.workloads",
)

_providers_loaded = False


def ensure_providers() -> None:
    """Import the built-in provider modules once (idempotent).

    A failed provider import resets the flag so the next query retries
    and re-raises the original error instead of serving a silently
    partial registry.  Retrying is safe without any registry rollback:
    modules that imported fully stay cached in ``sys.modules`` (their
    registrations are kept), and the *failed* module -- which Python
    drops from the cache -- re-runs its decorators, which
    :meth:`Registry.add` accepts as same-origin re-registrations.
    """
    global _providers_loaded
    if _providers_loaded:
        return
    _providers_loaded = True  # set first: providers import this module back
    try:
        for module in _PROVIDER_MODULES:
            importlib.import_module(module)
    except BaseException:
        _providers_loaded = False
        raise


@dataclass(frozen=True)
class RegistryEntry:
    """One registered name: the callable plus introspected capabilities."""

    name: str
    kind: str  # which registry this entry belongs to
    fn: object
    metadata: dict = field(default_factory=dict)
    params: tuple = ()  # keyword parameters the callable accepts
    required: tuple = ()  # the subset without defaults
    takes_rng: bool = False

    @property
    def description(self) -> str:
        return self.metadata.get("description", "")

    @property
    def fast_engine(self) -> str:
        """How the algorithm's *default* configuration runs under
        ``REPRO_ENGINE=fast``.

        One of ``"vector"`` (a vectorized decision path: a native
        decision-ABI policy, a built-in greedy priority, or the Model 2
        decision program), ``"plan"`` (space-time plan replay),
        ``"adapter"`` (scalar policy lifted by the batched adapter) or
        ``"no"`` (engine-independent or reference-only).  Parameters may
        move an algorithm between paths (e.g. ``edd(adapter=true)`` forces
        the adapter); the label describes the default.
        """
        return str(self.metadata.get("fast_engine") or "no")

    @property
    def batch_engine(self) -> str:
        """How the algorithm runs under the stacked ``"batch"`` engine:
        ``"stack"`` when it registers a ``batch_policy`` factory (its
        scenarios join one stacked array execution in ``run_batch``),
        ``"no"`` when it falls back to the per-scenario path.  Parameters
        may still force the fallback (the factory returns ``None``, e.g.
        ``edd(adapter=true)``); the label describes the default."""
        return "stack" if self.metadata.get("batch_policy") else "no"

    def batch_policy(self, params: dict):
        """The scenario-level policy for stacked batch execution, or
        ``None`` when this algorithm (or this parameterization) cannot
        join a stacked batch and must run per-scenario."""
        factory = self.metadata.get("batch_policy")
        if factory is None:
            return None
        return factory(**params)

    def unavailable(self, network, horizon: int) -> str | None:
        """Why this algorithm cannot run on ``network`` (``None`` when ok)."""
        requires = self.metadata.get("requires")
        return requires(network, horizon) if requires is not None else None

    def validate_params(self, params: dict) -> None:
        """Reject unknown parameter names and missing required ones."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ValidationError(
                f"{self.kind} {self.name!r} does not accept {unknown}; "
                f"accepted parameters: {sorted(self.params)}"
            )
        missing = sorted(set(self.required) - set(params))
        if missing:
            raise ValidationError(
                f"{self.kind} {self.name!r} requires parameters {missing}"
            )


def _introspect(fn, skip: tuple) -> tuple:
    """``(params, required, takes_rng)`` from ``fn``'s keyword signature."""
    params, required, takes_rng = [], [], False
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        if i < len(skip) or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.name == "engine":
            continue  # engine selection lives on the Scenario, not in params
        if p.name == "rng":
            takes_rng = True
            continue
        params.append(p.name)
        if p.default is p.empty:
            required.append(p.name)
    return tuple(params), tuple(required), takes_rng


class Registry:
    """A named collection of :class:`RegistryEntry` objects."""

    def __init__(self, kind: str, skip_params: tuple = ()):
        self.kind = kind
        self._skip_params = skip_params
        self._entries: dict = {}

    def add(self, name: str, fn, **metadata) -> RegistryEntry:
        existing = self._entries.get(name)
        if existing is not None:
            same_origin = (
                getattr(fn, "__module__", None)
                == getattr(existing.fn, "__module__", None)
                and getattr(fn, "__qualname__", None)
                == getattr(existing.fn, "__qualname__", None)
            )
            if not same_origin:
                raise ReproError(f"{self.kind} {name!r} registered twice")
            # same definition re-executing (module re-imported after a
            # failed provider load): refresh the entry instead of failing
        params, required, takes_rng = _introspect(fn, self._skip_params)
        entry = RegistryEntry(
            name=name, kind=self.kind, fn=fn, metadata=metadata,
            params=params, required=required, takes_rng=takes_rng,
        )
        self._entries[name] = entry
        return entry

    def register(self, name: str, **metadata):
        """Decorator form of :meth:`add`; returns ``fn`` unchanged."""

        def decorate(fn):
            self.add(name, fn, **metadata)
            return fn

        return decorate

    def get(self, name: str) -> RegistryEntry:
        ensure_providers()
        entry = self._entries.get(name)
        if entry is None:
            raise ValidationError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            )
        return entry

    def names(self) -> tuple:
        ensure_providers()
        return tuple(sorted(self._entries))

    def entries(self) -> tuple:
        ensure_providers()
        return tuple(self._entries[name] for name in sorted(self._entries))

    def __contains__(self, name) -> bool:
        ensure_providers()
        return name in self._entries


#: the three public registries
ALGORITHMS = Registry("algorithm", skip_params=("network", "requests", "horizon"))
WORKLOADS = Registry("workload", skip_params=("network",))
TOPOLOGIES = Registry("topology", skip_params=("dims", "buffer_size", "capacity", "link_caps"))


def register_algorithm(name: str, **metadata):
    """``@register_algorithm("det", requires=..., fast_engine="plan")``

    The decorated callable must have the uniform signature
    ``fn(network, requests, horizon, *, rng=None, engine=None, **params)``
    and return a :class:`~repro.network.simulator.SimulationResult`.

    ``fast_engine`` labels how the algorithm runs under
    ``REPRO_ENGINE=fast`` (``"vector"``, ``"plan"``, ``"adapter"`` or
    ``"no"`` -- see :attr:`RegistryEntry.fast_engine`).

    ``batch_policy`` (optional) is a factory ``(**params) -> Policy |
    None`` producing the scenario policy for the stacked ``"batch"``
    engine; registering one marks the algorithm batch-eligible (see
    :attr:`RegistryEntry.batch_engine`).  Return ``None`` for
    parameterizations that must run per-scenario.
    """
    return ALGORITHMS.register(name, **metadata)


def register_workload(name: str, **metadata):
    """``@register_workload("uniform")`` over a request generator."""
    return WORKLOADS.register(name, **metadata)


def register_topology(name: str, **metadata):
    """``@register_topology("line")`` over a network builder."""
    return TOPOLOGIES.register(name, **metadata)


def algorithm_names() -> tuple:
    return ALGORITHMS.names()


def workload_names() -> tuple:
    return WORKLOADS.names()


def topology_names() -> tuple:
    return TOPOLOGIES.names()


def planner_adapter(factory, label: str, takes_rng: bool = False):
    """Wrap a planning-:class:`~repro.core.base.Router` factory into the
    uniform algorithm signature.

    The adapter routes the requests, replays the plan through the selected
    simulation engine, and raises :class:`~repro.util.errors.ReproError`
    when the plan and the simulation disagree, naming the first ten
    planned-only and simulated-only request ids -- the same cross-check
    the integration tests perform.
    """

    def runner(network, requests, horizon, *, rng=None, engine=None, **params):
        from repro.network.simulator import execute_plan

        if takes_rng:
            params = dict(params, rng=rng)
        router = factory(network, horizon, **params)
        plan = router.route(requests)
        result = execute_plan(network, plan.all_executable_paths(), requests,
                              horizon, engine=engine)
        if not plan.consistent_with_simulation(result):
            planned = plan.delivered_ids()
            simulated = result.delivered_ids()
            raise ReproError(
                f"{label}: plan/simulation mismatch: planned-only="
                f"{sorted(planned - simulated)[:10]} simulated-only="
                f"{sorted(simulated - planned)[:10]}"
            )
        # surface the router's accounting (framework/detailed counters,
        # tile side k, ...) to RunReport.meta -- what lets the benches
        # read per-part breakdowns without re-running the router
        result.plan_meta = plan.meta
        return result

    runner.__name__ = f"run_{label}"
    # embed the factory's identity: two adapters wrapping different routers
    # under one label must NOT look same-origin to Registry.add
    runner.__qualname__ = (
        f"run_{label}[{getattr(factory, '__module__', '?')}."
        f"{getattr(factory, '__qualname__', '?')}]"
    )
    runner.__doc__ = f"Route with {label!r} and replay the plan (adapter)."
    # expose the factory's tunables (lam, gamma, k, ...) through the
    # adapter's signature so registry introspection records them
    P = inspect.Parameter
    base = [
        P("network", P.POSITIONAL_OR_KEYWORD),
        P("requests", P.POSITIONAL_OR_KEYWORD),
        P("horizon", P.POSITIONAL_OR_KEYWORD),
        P("rng", P.KEYWORD_ONLY, default=None),
        P("engine", P.KEYWORD_ONLY, default=None),
    ]
    extras = [
        P(p.name, P.KEYWORD_ONLY, default=p.default)
        for i, p in enumerate(inspect.signature(factory).parameters.values())
        if i >= 2 and p.name != "rng"
    ]
    runner.__signature__ = inspect.Signature(base + extras)
    return runner
