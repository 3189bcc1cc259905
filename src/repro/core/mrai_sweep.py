"""MRAI-value sensitivity (the Griffin–Premore study, paper ref. [13]).

The paper fixes MRAI at 30 s and varies everything else; the classic
companion question — *what does the MRAI value itself do?* — was studied
experimentally by Griffin & Premore (ICNP 2001), which the paper cites
when discussing rate limiting.  This module sweeps the timer value on a
fixed topology and measures, per value:

* churn (updates per C-event, per node type),
* convergence time after the withdrawal and the re-announcement.

The expected shape: more rate limiting (larger MRAI) monotonically slows
convergence in the delay-first model, while churn under NO-WRATE is
largely flat (withdrawals bypass the timer and announcements coalesce in
the out-queue); under WRATE small timers allow bursts of path exploration
messages while large timers trade messages for time.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.bgp.config import BGPConfig
from repro.core.cevent import CEventStats, run_c_event_experiment
from repro.errors import ExperimentError, ParameterError
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType

#: A reasonable default grid around the standard 30 s value.
DEFAULT_MRAI_VALUES = (0.0, 5.0, 15.0, 30.0, 60.0)


@dataclasses.dataclass(frozen=True)
class MRAISweepResult:
    """Churn and convergence across MRAI values on one topology."""

    n: int
    scenario: str
    base_config: BGPConfig
    values: List[float]
    stats: List[CEventStats]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.stats):
            raise ExperimentError("values and stats length mismatch")

    def u_series(self, node_type: NodeType) -> List[float]:
        """U(X) per MRAI value."""
        return [s.u(node_type) for s in self.stats]

    def down_convergence_series(self) -> List[float]:
        """Mean convergence seconds after the withdrawal, per MRAI value."""
        return [s.mean_down_convergence for s in self.stats]

    def up_convergence_series(self) -> List[float]:
        """Mean convergence seconds after the re-announcement, per value."""
        return [s.mean_up_convergence for s in self.stats]

    def stats_at(self, mrai: float) -> CEventStats:
        """The stats for one specific timer value."""
        for value, stat in zip(self.values, self.stats):
            if value == mrai:
                return stat
        raise ExperimentError(f"MRAI value {mrai} not in sweep {self.values}")


def run_mrai_sweep(
    graph: ASGraph,
    *,
    values: Sequence[float] = DEFAULT_MRAI_VALUES,
    base_config: Optional[BGPConfig] = None,
    num_origins: int = 10,
    seed: int = 0,
) -> MRAISweepResult:
    """Re-run the C-event experiment for each MRAI value.

    All other protocol parameters come from ``base_config`` (which fixes
    WRATE vs NO-WRATE, the discipline, etc.); the same origins are used
    at every value so the curves are directly comparable.
    """
    if not values:
        raise ParameterError("empty MRAI value grid")
    if any(v < 0 for v in values):
        raise ParameterError(f"MRAI values must be >= 0: {list(values)}")
    base_config = base_config if base_config is not None else BGPConfig()
    stats: List[CEventStats] = []
    for value in values:
        config = base_config.replace(mrai=float(value))
        stats.append(
            run_c_event_experiment(
                graph, config, num_origins=num_origins, seed=seed
            )
        )
    return MRAISweepResult(
        n=len(graph),
        scenario=graph.scenario,
        base_config=base_config,
        values=[float(v) for v in values],
        stats=stats,
    )
