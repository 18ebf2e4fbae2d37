"""Uniform random request generation.

The draws come from blocks of raw words (:func:`repro.util.rng.bounded_draws`),
and the requests and the generator's final state equal those of one
``rng.integers`` call per coordinate: ``deadline`` keeps drawing from it.
"""

from __future__ import annotations

from repro.api.registry import register_workload
from repro.network.packet import Request
from repro.network.topology import Network
from repro.util.rng import as_generator, bounded_draws


@register_workload(
    "uniform",
    description="num requests with uniform source, dominating destination, "
    "and arrival in [0, horizon - 1] (0 when horizon <= 1)",
)
def uniform_requests(network: Network, num: int, horizon: int, rng=None,
                     min_distance: int = 1) -> list:
    """``num`` requests with uniformly random source, destination
    (dominating the source by at least ``min_distance`` hops in total) and
    arrival time in ``[0, horizon - 1]`` (0 when ``horizon <= 1``).

    Sources/destinations are drawn by sampling the source uniformly, then
    each destination coordinate uniformly from ``[source_i, l_i)``;
    degenerate draws below ``min_distance`` are resampled (bounded retries,
    then the farthest corner is used).
    """
    rng = as_generator(rng)
    out = []
    dims = network.dims
    zeros = (0,) * len(dims)
    top = max(1, horizon)
    with bounded_draws(rng, num * (2 * len(dims) + 1) + 32) as draw:
        for _ in range(num):
            for _attempt in range(64):
                src = tuple(map(draw, zeros, dims))
                dst = tuple(map(draw, src, dims))
                if sum(dst) - sum(src) >= min_distance:
                    break
            else:
                src = zeros
                dst = tuple(l - 1 for l in dims)
            out.append(Request._trusted(src, dst, draw(0, top)))
    return out
