"""Offline throughput bounds used as competitive-ratio denominators.

``opt(sigma)`` is NP-hard; the experiments divide by one of four
surrogates, in decreasing tightness / increasing scalability:

* ``"exact"``   -- branch-and-bound integral optimum (tiny instances only);
* ``"lp"``      -- optimal fractional packing ``opt_f`` (what the paper's
  own guarantees are stated against);
* ``"cd"``      -- congestion + dilation cut analysis (arXiv:1206.3718)
  taken jointly with the max-flow relaxation: never looser than
  ``"maxflow"``, strictly tighter when per-request crossing windows on a
  cut bind (see :mod:`repro.packing.cd`);
* ``"maxflow"`` -- single-commodity max-flow relaxation (default; scales to
  the sweep sizes of the benches).

All four upper-bound the true ``opt``, so the measured ratios are
conservative (never flatter than reality).
"""

from __future__ import annotations

from repro.network.topology import Network
from repro.packing.cd import cd_throughput_bound
from repro.packing.exact import exact_opt_small
from repro.packing.lp import fractional_opt
from repro.packing.maxflow import throughput_upper_bound
from repro.util.errors import ValidationError

#: the accepted ``method=`` values, loosest first
BOUND_METHODS = ("maxflow", "cd", "lp", "exact")


def offline_bound(network: Network, requests, horizon: int,
                  method: str = "maxflow") -> float:
    """An upper bound on the offline optimal throughput.  Every method
    checks ``requests`` as a whole (:meth:`Network.check_requests`)."""
    if not requests:
        return 0.0
    if method == "maxflow":
        return float(throughput_upper_bound(network, requests, horizon))
    if method == "cd":
        return float(cd_throughput_bound(network, requests, horizon))
    if method == "lp":
        return float(fractional_opt(network, requests, horizon))
    if method == "exact":
        value, _ = exact_opt_small(network, requests, horizon)
        return float(value)
    raise ValidationError(
        f"unknown offline bound {method!r}; choose exact, lp, maxflow or cd"
    )
