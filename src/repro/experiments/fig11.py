"""Fig. 11 — the effect of provider preference on T-node churn.

Paper shape: PREFER-MIDDLE (stubs buy transit from M nodes, M nodes capped
at one T provider) produces the highest churn at T nodes; PREFER-TOP
(everyone capped at one M provider, more direct T connections) the lowest.
The explanation: PREFER-TOP gives T nodes far *more* customers (mc,T) but
each customer is far *less* likely to be on a path from the event origin
(qc,T collapses), and the q effect wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bgp.config import BGPConfig
from repro.core.regression import relative_increase
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType, Relationship

EXPERIMENT_ID = "fig11"
TITLE = "Effect of provider preference on U(T) (with mc,T and qc,T)"

SCENARIOS = ("PREFER-MIDDLE", "BASELINE", "PREFER-TOP")


def sweeps(
    scale: Scale, *, seed: int, config: Optional[BGPConfig] = None
) -> List[SweepRequest]:
    """The sweeps :func:`run` reads: one per provider-preference scenario."""
    return [SweepRequest(scenario, config) for scenario in SCENARIOS]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Sweep the provider-preference deviations."""
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

    relative: Dict[str, List[float]] = {
        name: relative_increase(u_series[name]) for name in SCENARIOS
    }
    series: Dict[str, List[float]] = {}
    for name in SCENARIOS:
        series[f"U(T) {name}"] = u_series[name]
        series[f"rel {name}"] = relative[name]
    for name in ("PREFER-MIDDLE", "PREFER-TOP"):
        series[f"mc,T {name}"] = m_series[name]
        series[f"qc,T {name}"] = q_series[name]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in scale.sizes],
        series=series,
    )
    last = -1
    # The paper's core mechanism: PREFER-TOP hands T nodes many times more
    # customers, but the qc,T collapse offsets (at paper scale:
    # over-compensates) that advantage, so U(T) does not scale with mc,T.
    m_ratio = m_series["PREFER-TOP"][last] / max(m_series["PREFER-MIDDLE"][last], 1e-9)
    u_ratio = u_series["PREFER-TOP"][last] / max(u_series["PREFER-MIDDLE"][last], 1e-9)
    result.add_check(
        "qc,T collapse offsets PREFER-TOP's customer advantage",
        u_ratio < 0.5 * m_ratio,
        "U(T) ratio far below the mc,T ratio (paper: more than offset)",
        f"U(T) TOP/MIDDLE = {u_ratio:.2f} vs mc,T TOP/MIDDLE = {m_ratio:.2f}",
    )
    result.notes.append(
        "The strict U(T) ordering PREFER-MIDDLE > BASELINE > PREFER-TOP of "
        "Fig. 11 needs paper-scale multihoming (dM up to 4.5 at n=10000); "
        "at reduced sweeps the U(T) curves are statistically "
        "indistinguishable while the mc,T / qc,T mechanism reproduces. "
        f"Measured growth: MIDDLE={relative['PREFER-MIDDLE'][last]:.2f}x, "
        f"BASE={relative['BASELINE'][last]:.2f}x, "
        f"TOP={relative['PREFER-TOP'][last]:.2f}x."
    )
    result.add_check(
        "PREFER-TOP has far more T customers",
        m_series["PREFER-TOP"][last] > 1.5 * m_series["PREFER-MIDDLE"][last],
        "mc,T much higher under PREFER-TOP",
        f"mc,T TOP={m_series['PREFER-TOP'][last]:.0f} vs "
        f"MIDDLE={m_series['PREFER-MIDDLE'][last]:.0f}",
    )
    result.add_check(
        "qc,T collapses under PREFER-TOP",
        q_series["PREFER-TOP"][last] < q_series["PREFER-MIDDLE"][last],
        "strong decrease in qc,T more than offsets the mc,T gain",
        f"qc,T TOP={q_series['PREFER-TOP'][last]:.4f} vs "
        f"MIDDLE={q_series['PREFER-MIDDLE'][last]:.4f}",
    )
    return result
