"""Extension experiment: churn and table growth along the prefix axis.

The paper scales the *topology* (n) at one prefix per event; real routing
tables scale along a second axis — the number of prefixes each router
carries.  This study sweeps the table size P on a fixed topology and
measures what that axis costs: monitor-side churn, Loc-RIB occupancy, and
the decision-process work per delivered update, contrasting PER_INTERFACE
(vendor practice) with PER_PREFIX (the letter of RFC 4271) MRAI — the
granularity distinction only becomes meaningful when many prefixes share
a session.

Grids are scale-dependent: the ``paper`` preset reaches 10k prefixes on
the paper's n=1000 topology; ``smoke`` stays CI-sized.  The run also
reports the per-prefix saving: with per-prefix decision tracking, a flap
of one prefix re-decides only that prefix, so ``decisions skipped``
should dwarf ``decisions run`` as P grows.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.bgp.config import BGPConfig, MRAIMode
from repro.core.prefix_churn import build_allocation, run_prefix_churn
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.prefix.workload import PrefixChurnSpec
from repro.sim.rng import derive_seed
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params

EXPERIMENT_ID = "ext-prefix-scaling"
TITLE = "Churn and table growth vs number of prefixes (per-prefix MRAI ablation)"

#: scale preset → (topology size, prefix-count grid)
GRIDS: Dict[str, Tuple[int, Tuple[int, ...]]] = {
    "smoke": (150, (20, 50)),
    "default": (400, (100, 300, 1000)),
    "full": (800, (300, 1000, 3000)),
    "paper": (1000, (1000, 3000, 10000)),
}

#: flap arrivals per prefix per simulated second (the stream rate scales
#: with the table, mirroring how real churn scales with announced space)
RATE_PER_PREFIX = 2.0e-4
DURATION = 600.0


def _grid(scale: Scale) -> Tuple[int, Tuple[int, ...]]:
    grid = GRIDS.get(scale.name)
    if grid is not None:
        return grid
    # Custom scales (the test suite's tiny presets): derive a grid from
    # the scale's smallest topology so small stays small.
    n = scale.sizes[0]
    if n <= 200:
        return (n, (10, 40))
    return GRIDS["default"]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Sweep the prefix count on one topology, per MRAI granularity."""
    scale = scale if scale is not None else get_scale()
    base = config if config is not None else BGPConfig()
    n, prefix_counts = _grid(scale)
    graph = generate_topology(baseline_params(n), seed=derive_seed(seed, n, 1))

    churn: Dict[MRAIMode, List[float]] = {mode: [] for mode in MRAIMode}
    tables: List[float] = []
    skip_ratio: List[float] = []
    for num_prefixes in prefix_counts:
        allocation = build_allocation(
            graph,
            num_prefixes,
            num_origins=max(4, min(scale.origins, num_prefixes)),
            seed=derive_seed(seed, num_prefixes, 2),
        )
        spec = PrefixChurnSpec(
            duration=DURATION,
            event_rate=RATE_PER_PREFIX * num_prefixes,
            mean_downtime=30.0,
            deaggregation_probability=0.05,
        )
        for mode in MRAIMode:
            run_config = dataclasses.replace(base, mrai_mode=mode)
            result = run_prefix_churn(
                graph,
                allocation,
                spec,
                run_config,
                seed=derive_seed(seed, num_prefixes, 3),
            )
            churn[mode].append(result.churn_rate)
            if mode is MRAIMode.PER_INTERFACE:
                tables.append(result.mean_table_size)
                total = result.decisions_run + result.decisions_skipped
                skip_ratio.append(
                    result.decisions_skipped / total if total else 0.0
                )

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="prefixes",
        x_values=[float(p) for p in prefix_counts],
        series={
            "churn per-interface (upd/s)": churn[MRAIMode.PER_INTERFACE],
            "churn per-prefix (upd/s)": churn[MRAIMode.PER_PREFIX],
            "mean table size": tables,
            "decisions skipped (frac)": skip_ratio,
        },
    )
    result.notes.append(f"n={n}, duration={DURATION:.0f}s simulated")
    result.add_check(
        "churn grows with the prefix table",
        churn[MRAIMode.PER_INTERFACE][-1] > churn[MRAIMode.PER_INTERFACE][0],
        "more prefixes, more updates at the monitors",
        f"{churn[MRAIMode.PER_INTERFACE][0]:.2f} -> "
        f"{churn[MRAIMode.PER_INTERFACE][-1]:.2f} upd/s",
    )
    result.add_check(
        "tables grow linearly with P",
        tables[-1] > tables[0],
        "Loc-RIB occupancy tracks the allocated table",
        f"{tables[0]:.0f} -> {tables[-1]:.0f} entries/node",
    )
    result.add_check(
        "incremental decisions dominate at scale",
        skip_ratio[-1] > 0.9,
        "per-prefix dirty tracking skips nearly all re-decisions",
        f"skipped fraction {skip_ratio[-1]:.3f} at P={prefix_counts[-1]}",
    )
    return result
