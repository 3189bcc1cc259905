"""Fig. 10 — the effect of peering relations on M-node churn.

Paper shape: the peering degree does *not* cause a significant change in
churn.  NO-PEERING, BASELINE, STRONG-CORE-PEERING and STRONG-EDGE-PEERING
all land on essentially the same U(M) curve, because updates cross peering
links only for customer routes and with customer-only export scope.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bgp.config import BGPConfig
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType

EXPERIMENT_ID = "fig10"
TITLE = "Effect of peering relations on U(M)"

SCENARIOS = (
    "BASELINE",
    "NO-PEERING",
    "STRONG-CORE-PEERING",
    "STRONG-EDGE-PEERING",
)

#: Max tolerated spread of U(M) across peering scenarios (the paper's
#: "no significant change"), relative to the Baseline value.
SPREAD_TOLERANCE = 0.30


def sweeps(
    scale: Scale, *, seed: int, config: Optional[BGPConfig] = None
) -> List[SweepRequest]:
    """The sweeps :func:`run` reads: one per peering scenario."""
    return [SweepRequest(scenario, config) for scenario in SCENARIOS]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Sweep the peering deviations and measure the spread of U(M)."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(scale, seed=seed, config=config)
    series: Dict[str, List[float]] = {
        f"U(M) {scenario}": sweep.u_series(NodeType.M)
        for scenario, sweep in zip(
            SCENARIOS, cached_sweeps(requests, scale, seed=seed), strict=True
        )
    }

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in scale.sizes],
        series=series,
    )
    worst_spread = 0.0
    for i in range(len(scale.sizes)):
        values = [series[f"U(M) {s}"][i] for s in SCENARIOS]
        base = series["U(M) BASELINE"][i]
        spread = (max(values) - min(values)) / base if base else 0.0
        worst_spread = max(worst_spread, spread)
    result.add_check(
        "peering degree does not move churn",
        worst_spread <= SPREAD_TOLERANCE,
        "all four curves coincide (no major differences)",
        f"worst relative spread {worst_spread * 100:.0f}%",
    )
    last = -1
    base_last = series["U(M) BASELINE"][last]
    strong_core = series["U(M) STRONG-CORE-PEERING"][last]
    result.add_check(
        "doubling core peering ≈ no effect",
        abs(strong_core - base_last) <= SPREAD_TOLERANCE * base_last,
        "STRONG-CORE-PEERING on the Baseline curve",
        f"{strong_core:.2f} vs Baseline {base_last:.2f}",
    )
    return result
