"""Deadline workloads (Section 5.4 / experiment E12)."""

from __future__ import annotations

from repro.api.registry import register_workload
from repro.network.packet import Request
from repro.network.topology import Network
from repro.util.errors import ValidationError
from repro.util.rng import as_generator, bounded_draws
from repro.workloads.uniform import uniform_requests


def _check_slack(slack, jitter) -> None:
    """Refuse a negative ``slack`` or ``jitter`` before anything is drawn."""
    for name, value in (("slack", slack), ("jitter", jitter)):
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value}")


def with_deadlines(requests, slack: int, rng=None, jitter: int = 0,
                   network: Network | None = None) -> list:
    """Copy ``requests`` with deadlines ``t_i + dist + slack + e_i``, where
    ``e_i`` is drawn uniformly from ``0..jitter`` (``0`` when ``jitter`` is
    0, which draws nothing).

    ``slack = 0`` forces delivery along a shortest schedule (no buffering
    allowed anywhere); larger slack admits buffering.  A negative ``slack``
    or ``jitter`` raises :class:`ValidationError`.

    ``network`` selects the distance metric: when given, ``network.dist``
    is used (required for wraparound topologies, where the closed-form
    coordinate difference overstates the distance); otherwise the
    closed-form ``r.distance`` applies.  On dominating draws over
    non-wrapping axes the two agree, so omitting ``network`` is safe for
    the built-in grid workloads.

    The jitter comes from :func:`repro.util.rng.bounded_draws`, so the
    deadlines and the generator's final state equal those of one
    ``rng.integers(0, jitter + 1)`` call per request.
    """
    _check_slack(slack, jitter)
    rng = as_generator(rng)
    requests = list(requests)
    out = []
    with bounded_draws(rng, len(requests) + 32) as draw:
        for r in requests:
            extra = slack + draw(0, jitter + 1) if jitter else slack
            dist = r.distance if network is None else \
                network.dist(r.source, r.dest)
            out.append(Request._trusted(r.source, r.dest, r.arrival,
                                        int(r.arrival + dist + extra), r.rid))
    return out


@register_workload(
    "deadline",
    description="uniform requests with feasible deadlines arrival + distance "
    "+ slack + a uniform extra in 0..jitter",
)
def deadline_requests(network: Network, num: int, horizon: int, slack: int,
                      rng=None, jitter: int = 0) -> list:
    """Uniform requests with feasible deadlines of the given slack (see
    :func:`with_deadlines`)."""
    _check_slack(slack, jitter)
    rng = as_generator(rng)
    base = uniform_requests(network, num, horizon, rng)
    return with_deadlines(base, slack, rng, jitter, network=network)
