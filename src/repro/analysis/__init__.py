"""Bench output: the result-table formatter and the ASCII renderers.

Runs are measured by :func:`repro.api.run` and
:func:`repro.api.run_batch`, whose :class:`~repro.api.run.RunReport`
carries throughput, the offline bound and the competitive ratio; this
package only presents results.
"""

from repro.analysis.tables import format_table
from repro.analysis.viz import (
    render_sketch_loads,
    render_spacetime,
    render_tile_quadrants,
)

__all__ = [
    "format_table",
    "render_sketch_loads",
    "render_spacetime",
    "render_tile_quadrants",
]
