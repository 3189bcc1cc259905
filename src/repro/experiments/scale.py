"""Experiment scale presets.

The paper sweeps n = 1000 → 10000 with 100 event originators per point; a
pure-Python simulator reproduces the *shapes* at smaller scales in minutes
rather than hours.  Each experiment accepts a :class:`Scale`; the
presets are selected by name (``--scale`` on the CLI, ``scale`` in a
campaign spec), and ``default`` is used when none is given:

* ``smoke`` — seconds; used by the test suite and CI;
* ``default`` — a few minutes for the whole figure set;
* ``full`` — tens of minutes, larger sizes and more origins;
* ``paper`` — the original 1000..10000 × 100-origin design (hours).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.errors import ParameterError


@dataclasses.dataclass(frozen=True)
class Scale:
    """Size grid and sampling effort for one experiment campaign."""

    name: str
    #: network sizes to sweep
    sizes: Tuple[int, ...]
    #: C-event originators per topology
    origins: int
    #: BFS roots used for path-length estimation in topology metrics
    metric_sources: int = 50

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ParameterError("scale needs at least one size")
        if any(size < 50 for size in self.sizes):
            raise ParameterError("sizes below 50 nodes are degenerate")
        if self.origins < 1:
            raise ParameterError("origins must be >= 1")

    @property
    def smallest(self) -> int:
        """The smallest network size in the grid."""
        return self.sizes[0]

    @property
    def largest(self) -> int:
        """The largest network size in the grid."""
        return self.sizes[-1]


PRESETS: Dict[str, Scale] = {
    "smoke": Scale(name="smoke", sizes=(200, 400), origins=4, metric_sources=20),
    "default": Scale(
        name="default", sizes=(400, 800, 1200, 1600, 2000), origins=12
    ),
    "full": Scale(
        name="full", sizes=(500, 1000, 2000, 3000, 4000), origins=24
    ),
    "paper": Scale(
        name="paper",
        sizes=(1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000),
        origins=100,
        metric_sources=100,
    ),
}


def get_scale(name: str = "default") -> Scale:
    """Resolve a preset by name (case-insensitive)."""
    try:
        return PRESETS[name.lower()]
    except KeyError as exc:
        raise ParameterError(
            f"unknown scale {name!r}; presets: {', '.join(sorted(PRESETS))}"
        ) from exc
