"""Fig. 5 — where the updates come from: Uc(T)/Up(T) and Ud(M)/Up(M)/Uc(M).

Paper shape (Baseline, NO-WRATE):

* at T nodes both customer and peer updates matter; Up(T) is larger at
  small sizes, Uc(T) grows faster (quadratic) and dominates at scale;
* M nodes receive the large majority of their updates from providers:
  U(M) ≈ Ud(M).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.config import BGPConfig
from repro.core.regression import fit_linear, fit_quadratic
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult, series_ratio
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType, Relationship

EXPERIMENT_ID = "fig05"
TITLE = "Update sources: Uc(T), Up(T) (top); Ud(M), Up(M), Uc(M) (bottom)"



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
    """Decompose U(T) and U(M) by the sender's relationship class."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(scale, seed=seed, config=config)
    (sweep,) = cached_sweeps(requests, scale, seed=seed)
    x = [float(n) for n in sweep.sizes]
    uc_t = sweep.u_rel_series(NodeType.T, Relationship.CUSTOMER)
    up_t = sweep.u_rel_series(NodeType.T, Relationship.PEER)
    ud_m = sweep.u_rel_series(NodeType.M, Relationship.PROVIDER)
    up_m = sweep.u_rel_series(NodeType.M, Relationship.PEER)
    uc_m = sweep.u_rel_series(NodeType.M, Relationship.CUSTOMER)
    u_m = sweep.u_series(NodeType.M)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=x,
        series={
            "Uc(T)": uc_t,
            "Up(T)": up_t,
            "Ud(M)": ud_m,
            "Up(M)": up_m,
            "Uc(M)": uc_m,
        },
    )
    provider_share = [d / total if total else 0.0 for d, total in zip(ud_m, u_m)]
    result.add_check(
        "M nodes dominated by provider updates",
        min(provider_share) > 0.5 and sum(provider_share) / len(provider_share) > 0.65,
        "U(M) ≈ Ud(M): large majority from providers",
        f"Ud share of U(M): min {min(provider_share) * 100:.0f}%, "
        f"mean {sum(provider_share) / len(provider_share) * 100:.0f}%",
    )
    result.add_check(
        "Uc(T) grows faster than Up(T)",
        series_ratio(uc_t) > series_ratio(up_t),
        "customer term takes over as n grows",
        f"growth Uc(T)={series_ratio(uc_t):.2f}x vs Up(T)={series_ratio(up_t):.2f}x",
    )
    if len(x) >= 3:
        quad = fit_quadratic(x, uc_t)
        lin = fit_linear(x, uc_t)
        result.add_check(
            "Uc(T) superlinear (quadratic fit)",
            quad.r_squared >= lin.r_squared - 1e-9 and quad.r_squared > 0.6,
            "quadratic, R² = 0.92",
            f"quadratic R²={quad.r_squared:.2f} (linear {lin.r_squared:.2f})",
        )
        lin_p = fit_linear(x, up_t)
        result.add_check(
            "Up(T) approximately linear",
            lin_p.r_squared > 0.6,
            "linear, R² = 0.95",
            f"linear R²={lin_p.r_squared:.2f}",
        )
    return result
