"""Fig. 6 — relative increase in Uc(T), Up(T) and Ud(M).

Paper shape (n = 1000 → 10000): Uc(T) grows by ≈ 18.5×, far outpacing
Up(T) (driven by the slow growth in the number of T peers) and Ud(M)
(≈ 2.6×, driven by the linear MHD growth).  At reduced sweep spans the
absolute ratios shrink, but the ordering Uc(T) ≫ Up(T), Ud(M) must hold.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.config import BGPConfig
from repro.core.regression import relative_increase
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult, monotone_fraction
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NodeType, Relationship

EXPERIMENT_ID = "fig06"
TITLE = "Relative increase in Uc(T), Up(T) and Ud(M)"



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
    """Normalize the Fig. 5 series to 1 at the smallest size."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(scale, seed=seed, config=config)
    (sweep,) = cached_sweeps(requests, scale, seed=seed)
    uc_t = relative_increase(sweep.u_rel_series(NodeType.T, Relationship.CUSTOMER))
    up_t = relative_increase(sweep.u_rel_series(NodeType.T, Relationship.PEER))
    ud_m = relative_increase(sweep.u_rel_series(NodeType.M, Relationship.PROVIDER))

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in sweep.sizes],
        series={"Uc(T) rel": uc_t, "Up(T) rel": up_t, "Ud(M) rel": ud_m},
    )
    result.add_check(
        "Uc(T) has the strongest relative increase",
        uc_t[-1] > up_t[-1] and uc_t[-1] > ud_m[-1],
        "Uc(T) 18.5x vs Up(T) / Ud(M) (2.6x) at full span",
        f"Uc(T)={uc_t[-1]:.2f}x, Up(T)={up_t[-1]:.2f}x, Ud(M)={ud_m[-1]:.2f}x",
    )
    result.add_check(
        "the customer and peer terms increase with n",
        uc_t[-1] > 1.0 and up_t[-1] > 1.0 and ud_m[-1] > 0.9
        and monotone_fraction(uc_t) >= 0.5,
        "all curves trend upward (Ud(M) only via the slow dM(n) growth)",
        f"Uc(T)={uc_t[-1]:.2f}x, Up(T)={up_t[-1]:.2f}x, Ud(M)={ud_m[-1]:.2f}x, "
        f"Uc(T) monotone fraction {monotone_fraction(uc_t):.2f}",
    )
    result.notes.append(
        "Paper span is n=1000→10000 (10x); at reduced spans the ratios are "
        "proportionally smaller but the ordering is preserved."
    )
    return result
