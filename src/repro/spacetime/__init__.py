"""Space-time transformation, untilting, tiling and sketch graphs.

Implements Section 3 of the paper:

* :mod:`repro.spacetime.coords` -- the space-time transformation
  ``(v, t)`` and the untilting automorphism ``q`` (Sections 3.1-3.2).
* :mod:`repro.spacetime.graph` -- :class:`SpaceTimeGraph`, the finite-horizon
  (d+1)-dimensional grid DAG with transmit edges (capacity ``c``) and buffer
  edges (capacity ``B``), plus load ledgers that store only charged edges.
* :mod:`repro.spacetime.tiling` -- :class:`Tiling`: partition of the untilted
  space-time grid into boxes, with phase shifts and quadrants (Sections 3.3,
  7.2).
* :mod:`repro.spacetime.sketch` -- sketch graphs over tiles: the plain sketch
  graph (Section 3.4) and the split ``{1, d+1, inf}``-sketch graph
  (Section 5.1), both with sink nodes (Sections 3.1, 5.4).
"""

from repro.spacetime.coords import tilt, untilt
from repro.spacetime.graph import BUFFER, LoadLedger, STPath, SpaceTimeGraph
from repro.spacetime.tiling import Quadrant, Tiling
from repro.spacetime.sketch import PlainSketchGraph, SplitSketchGraph

__all__ = [
    "BUFFER",
    "LoadLedger",
    "PlainSketchGraph",
    "Quadrant",
    "STPath",
    "SpaceTimeGraph",
    "SplitSketchGraph",
    "Tiling",
    "tilt",
    "untilt",
]
