"""Fig. 12 — the effect of WRATE (rate-limiting explicit withdrawals).

Paper shape: rate-limiting withdrawals (RFC 4271) slows their propagation,
enabling path exploration that NO-WRATE suppresses.  The WRATE/NO-WRATE
update ratio is > 1 for every node type, grows with network size (≈ 2×
for T at n = 10000), is larger for peripheral nodes (longer paths → more
exploration), and is amplified in a densely meshed core (DENSE-CORE:
≈ 3.6× vs 2.0× in the Baseline).  The mechanism shows up in the e
factors, which grow well beyond the NO-WRATE minimum of 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bgp.config import BGPConfig
from repro.experiments.cache import SweepRequest, cached_sweeps
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.topology.types import NODE_TYPE_ORDER, NodeType, Relationship

EXPERIMENT_ID = "fig12"
TITLE = "WRATE vs NO-WRATE: churn ratio and e-factors"


def sweeps(
    scale: Scale,
    *,
    seed: int,
    config: Optional[BGPConfig] = None,
    include_dense_core: bool = True,
) -> List[SweepRequest]:
    """The sweeps :func:`run` reads: Baseline (and, by default,
    DENSE-CORE) under NO-WRATE and WRATE variants of ``config``."""
    base_config = config if config is not None else BGPConfig()
    scenarios = ("BASELINE", "DENSE-CORE") if include_dense_core else ("BASELINE",)
    return [
        SweepRequest(scenario, base_config.replace(wrate=wrate))
        for scenario in scenarios
        for wrate in (False, True)
    ]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
    include_dense_core: bool = True,
) -> ExperimentResult:
    """Sweep Baseline under both MRAI variants and compare."""
    scale = scale if scale is not None else get_scale()
    requests = sweeps(
        scale, seed=seed, config=config, include_dense_core=include_dense_core
    )
    sweep_nw, sweep_w, *dense_core = cached_sweeps(requests, scale, seed=seed)

    series: Dict[str, List[float]] = {}
    ratios: Dict[NodeType, List[float]] = {}
    for node_type in NODE_TYPE_ORDER:
        u_nw = sweep_nw.u_series(node_type)
        u_w = sweep_w.u_series(node_type)
        ratio = [w / nw if nw else float("nan") for w, nw in zip(u_w, u_nw)]
        ratios[node_type] = ratio
        series[f"ratio {node_type.value}"] = ratio
    series["ec,T wrate"] = sweep_w.e_series(NodeType.T, Relationship.CUSTOMER)
    series["ep,T wrate"] = sweep_w.e_series(NodeType.T, Relationship.PEER)
    series["ed,C wrate"] = sweep_w.e_series(NodeType.C, Relationship.PROVIDER)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in scale.sizes],
        series=series,
    )
    last = -1
    result.add_check(
        "WRATE increases churn for every node type",
        all(ratios[t][last] > 1.0 for t in NODE_TYPE_ORDER),
        "significant increase relative to NO-WRATE for all types",
        ", ".join(f"{t.value}={ratios[t][last]:.2f}x" for t in NODE_TYPE_ORDER),
    )
    result.add_check(
        "the ratio grows with network size",
        ratios[NodeType.T][last] > ratios[NodeType.T][0]
        or ratios[NodeType.C][last] > ratios[NodeType.C][0],
        "increase factor grows with n (2x for T at n=10000)",
        f"T: {ratios[NodeType.T][0]:.2f}x → {ratios[NodeType.T][last]:.2f}x, "
        f"C: {ratios[NodeType.C][0]:.2f}x → {ratios[NodeType.C][last]:.2f}x",
    )
    result.add_check(
        "relative increase larger at the periphery",
        ratios[NodeType.C][last] > ratios[NodeType.T][last],
        "longer paths to the origin → more path exploration",
        f"C={ratios[NodeType.C][last]:.2f}x vs T={ratios[NodeType.T][last]:.2f}x",
    )
    e_at_largest = (
        series["ec,T wrate"][last],
        series["ep,T wrate"][last],
        series["ed,C wrate"][last],
    )
    result.add_check(
        "e factors exceed the NO-WRATE minimum of 2",
        min(e_at_largest) > 2.0,
        "path exploration inflates per-neighbor update counts",
        f"WRATE e-factors at largest n: ec,T={e_at_largest[0]:.2f}, "
        f"ep,T={e_at_largest[1]:.2f}, ed,C={e_at_largest[2]:.2f}",
    )

    if include_dense_core:
        dc_nw, dc_w = dense_core
        dc_ratio = [
            w / nw if nw else float("nan")
            for w, nw in zip(
                dc_w.u_series(NodeType.T), dc_nw.u_series(NodeType.T)
            )
        ]
        result.series["ratio T DENSE-CORE"] = dc_ratio
        result.add_check(
            "denser core amplifies the WRATE penalty",
            dc_ratio[last] > ratios[NodeType.T][last],
            "DENSE-CORE 3.6x vs Baseline 2.0x at n=10000",
            f"DENSE-CORE {dc_ratio[last]:.2f}x vs Baseline "
            f"{ratios[NodeType.T][last]:.2f}x",
        )
    return result
