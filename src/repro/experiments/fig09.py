"""Fig. 9 — the effect of the multihoming degree on T-node churn.

Paper shape: higher MHD means higher churn at equal size.  DENSE-CORE
(3× dM) exceeds DENSE-EDGE (3× dC/dCP) even though both end up with a
similar T-node customer count — meshing the *core* inflates qc,T more.
TREE (single-homing) pins U(T) at exactly 2 updates per C-event;
CONSTANT-MHD stays roughly flat as n grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bgp.config import BGPConfig
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult, series_ratio
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType, Relationship

EXPERIMENT_ID = "fig09"
TITLE = "Effect of the multihoming degree on U(T) (and mc,T)"

SCENARIOS = ("DENSE-CORE", "DENSE-EDGE", "BASELINE", "TREE", "CONSTANT-MHD")


def sweeps(
    scale: Scale, *, seed: int, config: Optional[BGPConfig] = None
) -> List[SweepRequest]:
    """The sweeps :func:`run` reads: one per MHD scenario."""
    return [SweepRequest(scenario, config) for scenario in SCENARIOS]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Sweep the four MHD deviations against Baseline."""
    scale = scale if scale is not None else get_scale()
    u_series: Dict[str, List[float]] = {}
    m_series: Dict[str, List[float]] = {}
    q_series: Dict[str, List[float]] = {}
    requests = sweeps(scale, seed=seed, config=config)
    fetched = cached_sweeps(requests, scale, seed=seed)
    for scenario, sweep in zip(SCENARIOS, fetched, strict=True):
        u_series[scenario] = sweep.u_series(NodeType.T)
        m_series[scenario] = sweep.m_series(NodeType.T, Relationship.CUSTOMER)
        q_series[scenario] = sweep.q_series(NodeType.T, Relationship.CUSTOMER)

    series: Dict[str, List[float]] = {}
    for name in SCENARIOS:
        series[f"U(T) {name}"] = u_series[name]
    for name in ("DENSE-CORE", "DENSE-EDGE", "BASELINE"):
        series[f"mc,T {name}"] = m_series[name]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in scale.sizes],
        series=series,
    )
    last = -1
    result.add_check(
        "higher MHD → higher churn",
        u_series["DENSE-CORE"][last] > u_series["BASELINE"][last]
        and u_series["DENSE-EDGE"][last] > u_series["BASELINE"][last],
        "DENSE-CORE and DENSE-EDGE above Baseline",
        f"CORE={u_series['DENSE-CORE'][last]:.1f}, EDGE={u_series['DENSE-EDGE'][last]:.1f}, "
        f"BASE={u_series['BASELINE'][last]:.1f}",
    )
    result.add_check(
        "core multihoming hurts more than edge multihoming",
        u_series["DENSE-CORE"][last] > u_series["DENSE-EDGE"][last],
        "DENSE-CORE churn significantly above DENSE-EDGE",
        f"CORE={u_series['DENSE-CORE'][last]:.1f} vs EDGE={u_series['DENSE-EDGE'][last]:.1f}",
    )
    result.add_check(
        "TREE pins U(T) at 2 updates per C-event",
        all(abs(v - 2.0) < 0.2 for v in u_series["TREE"]),
        "constant at exactly 2 (one DOWN + one UP)",
        f"TREE U(T) in [{min(u_series['TREE']):.2f}, {max(u_series['TREE']):.2f}]",
    )
    const_growth = series_ratio(u_series["CONSTANT-MHD"])
    base_growth = series_ratio(u_series["BASELINE"])
    if scale.largest / scale.smallest >= 4.0:
        # wide sweeps: the paper's claim is about the growth trend
        result.add_check(
            "CONSTANT-MHD roughly flat",
            const_growth < base_growth and const_growth < 1.6,
            "constant MHD offsets the customer-count growth",
            f"CONSTANT-MHD growth {const_growth:.2f}x vs Baseline {base_growth:.2f}x",
        )
    else:
        # narrow sweeps can't estimate growth reliably; check levels: a
        # constant-MHD network must churn far below a densifying core
        result.add_check(
            "CONSTANT-MHD churns far below DENSE-CORE",
            u_series["CONSTANT-MHD"][last] < 0.5 * u_series["DENSE-CORE"][last],
            "constant multihoming keeps tier-1 churn low",
            f"CONSTANT-MHD={u_series['CONSTANT-MHD'][last]:.1f} vs "
            f"DENSE-CORE={u_series['DENSE-CORE'][last]:.1f} "
            f"(growth {const_growth:.2f}x vs Baseline {base_growth:.2f}x "
            "- unreliable at this span)",
        )
    q_core = series_ratio(q_series["DENSE-CORE"])
    q_edge = series_ratio(q_series["DENSE-EDGE"])
    result.add_check(
        "qc,T grows faster in DENSE-CORE than DENSE-EDGE",
        u_series["DENSE-CORE"][last] / max(m_series["DENSE-CORE"][last], 1e-9)
        > u_series["DENSE-EDGE"][last] / max(m_series["DENSE-EDGE"][last], 1e-9)
        or q_core > q_edge,
        "paper: qc,T × 1.6 (CORE) vs × 1.3 (EDGE)",
        f"qc,T growth CORE={q_core:.2f}x vs EDGE={q_edge:.2f}x",
    )
    return result
