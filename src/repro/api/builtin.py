"""Built-in registrations for the network substrate.

Topologies (and the Model 2 node-semantics baseline) are registered here
rather than in :mod:`repro.network` so that the network substrate keeps
zero knowledge of the API layer (everything else -- algorithms,
workloads -- registers itself in its home module, one import level
further up).
"""

from __future__ import annotations

from repro.api.registry import register_algorithm, register_topology
from repro.network.topology import (
    GridNetwork,
    LineNetwork,
    RingNetwork,
    TorusNetwork,
)
from repro.util.errors import ValidationError


@register_topology("line", description="uni-directional line 0 -> 1 -> ... -> n-1")
def _build_line(dims, buffer_size, capacity, link_caps=()):
    if len(dims) != 1:
        raise ValidationError(f"line topology takes one dimension, got {dims}")
    return LineNetwork(dims[0], buffer_size=buffer_size, capacity=capacity,
                       link_caps=link_caps)


@register_topology("grid", description="uni-directional d-dimensional grid")
def _build_grid(dims, buffer_size, capacity, link_caps=()):
    return GridNetwork(dims, buffer_size=buffer_size, capacity=capacity,
                       link_caps=link_caps)


@register_topology(
    "uniline",
    description="unidirectional line as a first-class instance (alias "
    "geometry of 'line'; distinct spec kind)",
)
def _build_uniline(dims, buffer_size, capacity, link_caps=()):
    if len(dims) != 1:
        raise ValidationError(f"uniline topology takes one dimension, got {dims}")
    return LineNetwork(dims[0], buffer_size=buffer_size, capacity=capacity,
                       link_caps=link_caps)


@register_topology(
    "ring",
    description="uni-directional ring: line whose last node feeds node 0",
)
def _build_ring(dims, buffer_size, capacity, link_caps=()):
    if len(dims) != 1:
        raise ValidationError(f"ring topology takes one dimension, got {dims}")
    return RingNetwork(dims[0], buffer_size=buffer_size, capacity=capacity,
                       link_caps=link_caps)


@register_topology(
    "torus",
    description="uni-directional torus: grid wrapping around every axis",
)
def _build_torus(dims, buffer_size, capacity, link_caps=()):
    return TorusNetwork(dims, buffer_size=buffer_size, capacity=capacity,
                        link_caps=link_caps)


def _model2_requires(network, horizon) -> str | None:
    from repro.network.node_models import model2_network_reason

    return model2_network_reason(network)


@register_algorithm(
    "ntg-model2",
    description="nearest-to-go under node Model 2 ([AZ05, AKK09], App. F): "
    "everything transits the buffer, so a node moves <= B packets per step; "
    "'priority' picks the phase-0/phase-1 order",
    requires=_model2_requires,
    fast_engine="vector",
)
def _run_ntg_model2(network, requests, horizon, *, rng=None, engine=None,
                    priority: str = "ntg"):
    from repro.network.engine import make_engine
    from repro.network.node_models import Model2Policy

    sim = make_engine(network, Model2Policy(priority), engine=engine)
    return sim.run(requests, horizon)
