"""Fig. 4 — updates per C-event at T, M, CP and C nodes (Baseline).

Paper shape: churn grows with network size for every type; transit
providers at the top of the hierarchy (T) both receive the most updates
and show the strongest growth; C stubs receive the least.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.config import BGPConfig
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult, series_ratio
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NODE_TYPE_ORDER

EXPERIMENT_ID = "fig04"
TITLE = "Updates per C-event by node type (Baseline, NO-WRATE)"



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
    """Sweep the Baseline model and report U(X) per node type."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(scale, seed=seed, config=config)
    (sweep,) = cached_sweeps(requests, scale, seed=seed)
    series = {
        f"U({node_type.value})": sweep.u_series(node_type)
        for node_type in NODE_TYPE_ORDER
    }
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in sweep.sizes],
        series=series,
    )

    u_t, u_m = series["U(T)"], series["U(M)"]
    u_cp, u_c = series["U(CP)"], series["U(C)"]
    last = -1
    ordering_ok = u_t[last] > u_m[last] >= u_cp[last] > u_c[last]
    result.add_check(
        "ordering at largest n",
        ordering_ok,
        "U(T) > U(M) >= U(CP) > U(C)",
        f"T={u_t[last]:.1f}, M={u_m[last]:.1f}, CP={u_cp[last]:.1f}, C={u_c[last]:.1f}",
    )
    result.add_check(
        "churn grows with n for transit types",
        series_ratio(u_t) > 1.1 and series_ratio(u_m) > 0.95,
        "all transit curves increase with network size",
        f"growth T={series_ratio(u_t):.2f}x, M={series_ratio(u_m):.2f}x "
        "(M growth is driven by dM(n) and is tiny on narrow sweeps)",
    )
    result.add_check(
        "T shows the strongest growth",
        series_ratio(u_t) > series_ratio(u_m)
        and series_ratio(u_t) > series_ratio(u_cp)
        and series_ratio(u_t) > series_ratio(u_c),
        "tier-1 churn grows fastest",
        f"ratios T={series_ratio(u_t):.2f} M={series_ratio(u_m):.2f} "
        f"CP={series_ratio(u_cp):.2f} C={series_ratio(u_c):.2f}",
    )
    return result
