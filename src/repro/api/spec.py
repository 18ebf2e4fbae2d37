"""Frozen, serializable run specifications.

A :class:`Scenario` is the declarative description of one experiment
point: *which network*, *which workload*, *which algorithm*, horizon,
seed, and (optionally) which simulation engine.  Scenarios round-trip
through plain dicts and JSON (``to_dict``/``from_dict``, ``to_json``/
``from_json``), hash to a stable cross-process digest (:func:`point_digest`,
a CRC-32 of the ``repr``, never Python's per-process randomized
``hash``), and are cheap, picklable values -- which is what lets
:func:`repro.api.run.run_batch` shard them over a process pool without
losing determinism.

Seeding contract (extends PR 1): all randomness of a run derives from
``(seed, instance_digest)`` where the *instance* digest covers the
network, the workload, and the horizon but **not** the algorithm.  Two
consequences:

* every algorithm run against the same ``(network, workload, horizon,
  seed)`` sees the *identical* request sequence (fair comparisons), and
* randomized algorithms draw from a common, reproducible stream
  (common-random-numbers across algorithm parameter sweeps).

The ``engine`` field is deliberately excluded from the digest: engines
are bit-identical by contract, so it must not change any result.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass

from repro.api.registry import TOPOLOGIES, WORKLOADS
from repro.util.errors import ValidationError
from repro.util.rng import spawn_generators


def point_digest(point) -> int:
    """Stable 32-bit digest of a value (replaces randomized ``hash``)."""
    return zlib.crc32(repr(point).encode("utf-8"))


_SCALARS = (str, int, float, bool, type(None))


def _check_keys(data: dict, allowed: set, what: str) -> None:
    """Reject unknown keys so a typo in a spec file cannot silently run a
    different experiment (the spec format is a contract; see CI)."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown key(s) {unknown} in {what} spec; allowed: "
            f"{sorted(allowed)}"
        )


def _freeze_params(params) -> tuple:
    """Normalize a mapping (or pair iterable) into a sorted tuple of
    ``(name, value)`` pairs with JSON-scalar values only."""
    if params is None:
        return ()
    items = sorted(params.items()) if isinstance(params, dict) else \
        sorted((str(k), v) for k, v in params)
    for key, value in items:
        if not isinstance(key, str):
            raise ValidationError(f"parameter names must be strings, got {key!r}")
        if not isinstance(value, _SCALARS):
            raise ValidationError(
                f"parameter {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return tuple(items)


def _parse_dims(dims) -> tuple:
    """Parse ``dims`` (CLI string, int, or iterable) into a tuple of
    positive side lengths, raising :class:`ValidationError` naming the
    offending input on anything malformed."""
    raw = dims
    if isinstance(dims, str):
        parts = dims.split("x")
        if not all(p.isdigit() for p in parts):
            raise ValidationError(
                f"invalid dims string {raw!r}; expected side lengths like "
                f"'64' or '8x8'"
            )
        sides = tuple(int(p) for p in parts)
    elif isinstance(dims, int):
        sides = (dims,)
    else:
        try:
            sides = tuple(int(x) for x in dims)
        except (TypeError, ValueError):
            raise ValidationError(
                f"invalid dims {raw!r}; expected an int, an 'LxW' string, "
                f"or a sequence of ints"
            ) from None
    if not sides or any(l < 1 for l in sides):
        raise ValidationError(f"dims must be positive, got {raw!r}")
    return sides


def _spec_int(value, name: str, minimum: int):
    """Coerce a spec field to int with a clean error (satisfies the
    ``--spec`` JSON contract: wrong-typed fields name themselves)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{name} must be an integer, got {value!r} "
            f"({type(value).__name__})"
        )
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _freeze_link_caps(link_caps, dims: tuple) -> tuple:
    """Normalize per-edge capacity overrides into a sorted tuple of
    ``((tail...), axis, cap)`` triples (hashable, digest-stable)."""
    if not link_caps:
        return ()
    if hasattr(link_caps, "items"):
        entries = [(tail, axis, cap) for (tail, axis), cap in link_caps.items()]
    else:
        entries = list(link_caps)
    out = []
    for entry in entries:
        try:
            tail, axis, cap = entry
            tail = tuple(int(x) for x in tail)
        except (TypeError, ValueError):
            raise ValidationError(
                f"link_caps entries must be [tail, axis, cap] triples, "
                f"got {entry!r}"
            ) from None
        axis = _spec_int(axis, "link_caps axis", 0)
        cap = _spec_int(cap, "link_caps capacity", 1)
        if len(tail) != len(dims) or axis >= len(dims):
            raise ValidationError(
                f"link_caps entry {entry!r} does not fit dims {dims}"
            )
        out.append((tail, axis, cap))
    out.sort()
    for prev, cur in zip(out, out[1:]):
        if prev[:2] == cur[:2]:
            raise ValidationError(
                f"duplicate link_caps entry for edge "
                f"(tail={cur[0]}, axis={cur[1]})"
            )
    return tuple(out)


@dataclass(frozen=True)
class NetworkSpec:
    """A registered topology plus its shape parameters.

    ``link_caps`` is an optional tuple of ``(tail, axis, cap)`` per-edge
    capacity overrides (JSON form: ``[[tail...], axis, cap]`` lists); it
    is omitted from the digest key when empty, so pre-existing scenario
    digests are unchanged.
    """

    kind: str
    dims: tuple
    buffer_size: int = 1
    capacity: int = 1
    link_caps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dims", _parse_dims(self.dims))
        object.__setattr__(
            self, "buffer_size", _spec_int(self.buffer_size, "buffer_size", 0))
        object.__setattr__(
            self, "capacity", _spec_int(self.capacity, "capacity", 1))
        object.__setattr__(
            self, "link_caps", _freeze_link_caps(self.link_caps, self.dims))

    @classmethod
    def parse(cls, dims: str, buffer_size: int = 1, capacity: int = 1,
              kind: str | None = None) -> "NetworkSpec":
        """Build from a CLI-style dims string: ``"64"`` or ``"8x8"``.

        ``kind`` overrides the inferred topology (``line`` for one side,
        ``grid`` otherwise) -- e.g. ``"ring"`` or ``"torus"``.
        """
        sides = _parse_dims(str(dims))
        if kind is None:
            kind = "line" if len(sides) == 1 else "grid"
        return cls(kind, sides, buffer_size, capacity)

    def build(self):
        """Instantiate the :class:`~repro.network.topology.Network`."""
        entry = TOPOLOGIES.get(self.kind)
        return entry.fn(self.dims, self.buffer_size, self.capacity,
                        self.link_caps)

    def key(self) -> tuple:
        base = ("network", self.kind, self.dims, self.buffer_size, self.capacity)
        if self.link_caps:
            base += (("link_caps", self.link_caps),)
        return base

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "dims": list(self.dims),
                "buffer_size": self.buffer_size, "capacity": self.capacity}
        if self.link_caps:
            data["link_caps"] = [[list(tail), axis, cap]
                                 for tail, axis, cap in self.link_caps]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        data = dict(data)
        # accept the paper's B / c shorthand in hand-written spec files
        if "B" in data:
            data["buffer_size"] = data.pop("B")
        if "c" in data:
            data["capacity"] = data.pop("c")
        _check_keys(data, {"kind", "dims", "buffer_size", "capacity",
                           "link_caps"}, "network")
        return cls(**data)

    def __str__(self) -> str:
        dims = "x".join(str(l) for l in self.dims)
        caps = f" +{len(self.link_caps)} link_caps" if self.link_caps else ""
        return f"{self.kind}:{dims} B={self.buffer_size} c={self.capacity}{caps}"


@dataclass(frozen=True)
class _NamedParams:
    """A registered name plus frozen keyword parameters (spec base)."""

    name: str
    params: tuple = ()

    _KIND = ""  # class attribute, not a field; set by subclasses

    def __post_init__(self):
        object.__setattr__(self, "params", _freeze_params(self.params))

    def kwargs(self) -> dict:
        return dict(self.params)

    def key(self) -> tuple:
        return (self._KIND, self.name, self.params)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data):
        if isinstance(data, str):
            return cls(data)
        _check_keys(data, {"name", "params"}, cls._KIND)
        return cls(data["name"], data.get("params", ()))

    def __str__(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params)
        return self.name + (f"({params})" if params else "")


class WorkloadSpec(_NamedParams):
    """A registered request generator plus its keyword parameters."""

    _KIND = "workload"

    def build(self, network, rng=None):
        """Generate the request sequence (threading ``rng`` only into
        generators that accept it): a list, or a
        :class:`~repro.network.packet.RequestTable` that the array engines
        read as columns (see :data:`~repro.api.registry.WORKLOADS`)."""
        entry = WORKLOADS.get(self.name)
        kwargs = self.kwargs()
        entry.validate_params(kwargs)
        if entry.takes_rng:
            kwargs["rng"] = rng
        return entry.fn(network, **kwargs)


class AlgorithmSpec(_NamedParams):
    """A registered algorithm plus its keyword parameters."""

    _KIND = "algorithm"


def _coerce(value, cls, label: str):
    if isinstance(value, cls):
        return value
    if isinstance(value, str) and cls is not NetworkSpec:
        return cls(value)
    if isinstance(value, dict):
        return cls.from_dict(value)
    raise ValidationError(f"cannot interpret {value!r} as a {label}")


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment point; the unit of :func:`repro.api.run`.

    ``network``/``workload``/``algorithm`` accept spec objects, dicts, or
    (for workload/algorithm) bare registered names.
    """

    network: NetworkSpec
    workload: WorkloadSpec
    algorithm: AlgorithmSpec
    horizon: int
    seed: int = 0
    engine: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "network",
                           _coerce(self.network, NetworkSpec, "NetworkSpec"))
        object.__setattr__(self, "workload",
                           _coerce(self.workload, WorkloadSpec, "WorkloadSpec"))
        object.__setattr__(self, "algorithm",
                           _coerce(self.algorithm, AlgorithmSpec, "AlgorithmSpec"))
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "seed", int(self.seed))

    # -- digests and derived randomness ---------------------------------

    def instance_key(self) -> tuple:
        """Identity of the *instance* (everything but the algorithm)."""
        return ("instance", self.network.key(), self.workload.key(), self.horizon)

    def instance_digest(self) -> int:
        return point_digest(self.instance_key())

    def key(self) -> tuple:
        return ("scenario", self.network.key(), self.workload.key(),
                self.algorithm.key(), self.horizon, self.seed)

    def digest(self) -> int:
        """Stable cross-process digest (excludes the engine by design)."""
        return point_digest(self.key())

    def rngs(self) -> tuple:
        """``(workload_rng, algorithm_rng)`` derived from the seeding
        contract; both depend only on ``(seed, instance_digest)``."""
        return tuple(spawn_generators((self.seed, self.instance_digest()), 2))

    # -- materialization -------------------------------------------------

    def build_instance(self, network=None) -> tuple:
        """``(network, requests)`` -- the concrete instance every algorithm
        run of this scenario (and its siblings on other algorithms) sees.

        The single materialization path of the seeding contract: pass a
        prebuilt ``network`` to reuse one (capability checks run between
        building the network and generating the requests).
        """
        if network is None:
            network = self.network.build()
        requests = self.workload.build(network, rng=self.rngs()[0])
        return network, requests

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "network": self.network.to_dict(),
            "workload": self.workload.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "horizon": self.horizon,
            "seed": self.seed,
        }
        if self.engine is not None:
            data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _check_keys(data, {"network", "workload", "algorithm", "horizon",
                           "seed", "engine"}, "scenario")
        try:
            return cls(
                network=data["network"],
                workload=data["workload"],
                algorithm=data["algorithm"],
                horizon=data["horizon"],
                seed=data.get("seed", 0),
                engine=data.get("engine"),
            )
        except KeyError as exc:
            raise ValidationError(f"scenario spec is missing {exc.args[0]!r}") from None

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:
        engine = f" engine={self.engine}" if self.engine else ""
        return (f"{self.algorithm} on {self.network} / {self.workload} "
                f"T={self.horizon} seed={self.seed}{engine}")
