"""Path- and interval-packing algorithms.

* :mod:`repro.packing.ipp` -- Algorithm 3 (Appendix E): the online
  primal-dual integral path packing algorithm, ``(2, log(1+3 p_max))``-
  competitive (Theorem 1).
* :mod:`repro.packing.oracle` -- lightest-path oracles used by IPP.
* :mod:`repro.packing.interval` -- interval packing on a line: the optimal
  offline algorithm and the paper's online preemptive simulation of GLL82
  (Section 5.2.1).
* :mod:`repro.packing.maxflow` -- the single-commodity max-flow throughput
  upper bound, solved by scipy's ``maximum_flow``.
* :mod:`repro.packing.lp` -- fractional multicommodity LP (the paper's
  ``opt_f``), with the path-length-bounded variant of Lemma 2.
* :mod:`repro.packing.exact` -- exact integral optimum for tiny instances.
"""

from repro.packing.interval import Interval, OnlineIntervalPacker, max_disjoint_intervals
from repro.packing.ipp import IPPStats, OnlinePathPacking
from repro.packing.oracle import lightest_path
from repro.packing.maxflow import throughput_upper_bound
from repro.packing.lp import fractional_opt
from repro.packing.exact import exact_opt_small
from repro.packing.distributed import DistributedLinePacker

__all__ = [
    "DistributedLinePacker",
    "IPPStats",
    "Interval",
    "OnlineIntervalPacker",
    "OnlinePathPacking",
    "exact_opt_small",
    "fractional_opt",
    "lightest_path",
    "max_disjoint_intervals",
    "throughput_upper_bound",
]
