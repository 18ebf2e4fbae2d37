"""Shared utilities: errors, RNG handling, and small helpers."""

import os
import pathlib

from repro.util.errors import (
    CapacityError,
    ReproError,
    RoutingError,
    ValidationError,
)
from repro.util.rng import as_generator, spawn_generators

__all__ = [
    "CapacityError",
    "ReproError",
    "RoutingError",
    "ValidationError",
    "as_generator",
    "atomic_write",
    "spawn_generators",
]


def atomic_write(path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` through a ``<name>.tmp<pid>`` sibling and
    one ``os.replace``, so readers see the old file or the whole new one."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path
