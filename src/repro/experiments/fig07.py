"""Fig. 7 — the m / e / q factors behind the Fig. 6 growth.

Paper shape (Baseline, NO-WRATE):

* top panel: mc,T grows much faster than mp,T and md,M (the T-node
  customer count is the engine of tier-1 churn growth);
* middle panel: the e factors grow far more slowly than the m factors
  (and stay near the 2-update minimum under NO-WRATE);
* bottom panel: qd,M is essentially 1 (providers almost always notify
  customers), while qc,T and qp,T increase with size and qp,T ≫ qc,T.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.config import BGPConfig
from repro.core.regression import relative_increase
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType, Relationship

EXPERIMENT_ID = "fig07"
TITLE = "Factor decomposition: m, e and q across the sweep"



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
    """Extract the nine factor series of Fig. 7 from the Baseline sweep."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(scale, seed=seed, config=config)
    (sweep,) = cached_sweeps(requests, scale, seed=seed)
    m_c_t = sweep.m_series(NodeType.T, Relationship.CUSTOMER)
    m_p_t = sweep.m_series(NodeType.T, Relationship.PEER)
    m_d_m = sweep.m_series(NodeType.M, Relationship.PROVIDER)
    e_c_t = sweep.e_series(NodeType.T, Relationship.CUSTOMER)
    e_p_t = sweep.e_series(NodeType.T, Relationship.PEER)
    e_d_m = sweep.e_series(NodeType.M, Relationship.PROVIDER)
    q_c_t = sweep.q_series(NodeType.T, Relationship.CUSTOMER)
    q_p_t = sweep.q_series(NodeType.T, Relationship.PEER)
    q_d_m = sweep.q_series(NodeType.M, Relationship.PROVIDER)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in sweep.sizes],
        series={
            "mc,T": m_c_t,
            "mp,T": m_p_t,
            "md,M": m_d_m,
            "ec,T": e_c_t,
            "ep,T": e_p_t,
            "ed,M": e_d_m,
            "qc,T": q_c_t,
            "qp,T": q_p_t,
            "qd,M": q_d_m,
        },
    )
    rel_mc = relative_increase(m_c_t)[-1]
    rel_mp = relative_increase(m_p_t)[-1]
    rel_md = relative_increase(m_d_m)[-1]
    result.add_check(
        "mc,T grows much faster than mp,T and md,M",
        rel_mc > rel_mp and rel_mc > rel_md,
        "customer count of T nodes grows ~linearly with n (9.5x over 10x span)",
        f"mc,T {rel_mc:.2f}x vs mp,T {rel_mp:.2f}x, md,M {rel_md:.2f}x",
    )
    result.add_check(
        "qd,M ≈ 1",
        min(q_d_m) > 0.9,
        "always larger than 0.99",
        f"min qd,M = {min(q_d_m):.3f}",
    )
    result.add_check(
        "qp,T much larger than qc,T",
        all(p > c for p, c in zip(q_p_t, q_c_t)),
        "T peers have far larger customer trees than T customers",
        f"at largest n: qp,T={q_p_t[-1]:.3f} vs qc,T={q_c_t[-1]:.4f}",
    )
    e_growth = max(
        relative_increase(e_c_t)[-1],
        relative_increase(e_p_t)[-1],
        relative_increase(e_d_m)[-1],
    )
    result.add_check(
        "e factors near the 2-update minimum (NO-WRATE)",
        max(max(e_c_t), max(e_p_t), max(e_d_m)) < 3.0 and e_growth < 1.5,
        "e ≈ 2, growth factor ≤ 1.2 (no path exploration)",
        f"max e = {max(max(e_c_t), max(e_p_t), max(e_d_m)):.2f}, "
        f"max e-growth {e_growth:.2f}x",
    )
    return result
