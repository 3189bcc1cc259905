"""Extension experiment: churn concentration across nodes.

The paper notes "significant variation in the churn experienced across
nodes of the same type" and cites Broido et al.: a small fraction of ASes
carries most of the churn.  We quantify both with Gini coefficients and
top-10 % shares of per-node updates across the sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bgp.config import BGPConfig
from repro.core.heterogeneity import churn_heterogeneity
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType

EXPERIMENT_ID = "ext-heterogeneity"
TITLE = "Churn concentration (Gini / top-10% share) across the sweep"



def sweeps(
    scale: Scale, *, seed: int, config: Optional[BGPConfig] = None
) -> List[SweepRequest]:
    """The sweeps :func:`run` reads: Baseline under ``config``."""
    return [SweepRequest("BASELINE", config)]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Derive concentration metrics from the (cached) Baseline sweep."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(scale, seed=seed, config=config)
    (sweep,) = cached_sweeps(requests, scale, seed=seed)
    series: Dict[str, List[float]] = {
        "gini M": [],
        "gini C": [],
        "top10% share M": [],
        "max/mean M": [],
    }
    for stats in sweep.stats:
        reports = churn_heterogeneity(stats)
        m_report = reports[NodeType.M]
        series["gini M"].append(m_report.gini)
        series["top10% share M"].append(m_report.top_10_percent_share)
        series["max/mean M"].append(m_report.max_to_mean)
        c_report = reports.get(NodeType.C)
        series["gini C"].append(c_report.gini if c_report else 0.0)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in sweep.sizes],
        series=series,
    )
    result.add_check(
        "same-type churn is significantly uneven",
        min(series["gini M"]) > 0.1,
        "heavy-tailed degrees -> heavy-tailed churn (Sec. 4 remark)",
        f"Gini(M) in [{min(series['gini M']):.2f}, {max(series['gini M']):.2f}]",
    )
    result.add_check(
        "a small node fraction carries outsized churn",
        min(series["top10% share M"]) > 0.15,
        "ref [5]: few ASes responsible for most churn",
        f"top-10% M nodes carry >= {min(series['top10% share M']) * 100:.0f}% "
        "of M-node updates",
    )
    return result
