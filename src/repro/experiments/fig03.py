"""Sec. 3 / Fig. 3 — the four stable properties of generated topologies.

The paper claims its Baseline topologies preserve, at every size: a strict
provider hierarchy, a power-law degree distribution, strong clustering
(coefficient ≈ 0.15, far above a random graph of equal density) and a
roughly constant average path length of ≈ 4 AS hops.

This experiment measures all four across the size sweep.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.sim.rng import derive_seed
from repro.topology.generator import generate_topology
from repro.topology.metrics import (
    average_valley_free_path_length,
    clustering_coefficient,
    power_law_alpha,
)
from repro.stats.powerlaw import best_minimum
from repro.topology.params import baseline_params
from repro.topology.validation import find_violations

EXPERIMENT_ID = "fig03"
TITLE = "Stable topology properties across the growth sweep"


def run(scale: Optional[Scale] = None, *, seed: int = 0) -> ExperimentResult:
    """Measure hierarchy/power-law/clustering/path-length per size."""
    scale = scale if scale is not None else get_scale()
    clustering, path_length, alpha, violations = [], [], [], []
    random_clustering = []
    for n in scale.sizes:
        graph = generate_topology(baseline_params(n), seed=derive_seed(seed, n, 1))
        violations.append(float(len(find_violations(graph))))
        clustering.append(
            clustering_coefficient(graph, sample=min(n, 400), seed=seed)
        )
        path_length.append(
            average_valley_free_path_length(
                graph, sources=min(n, scale.metric_sources), seed=seed
            )
        )
        alpha.append(power_law_alpha(graph))
        # Erdős–Rényi clustering of the same density is ~ mean_degree / n.
        random_clustering.append(2.0 * graph.edge_count() / (n * n))

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in scale.sizes],
        series={
            "clustering": clustering,
            "ER clustering": random_clustering,
            "avg path len": path_length,
            "power-law alpha": alpha,
            "violations": violations,
        },
    )
    result.add_check(
        "hierarchy + peering invariants",
        all(v == 0 for v in violations),
        "no provider loops, no customer-tree peering",
        f"{int(sum(violations))} violations",
    )
    min_margin = min(c / r for c, r in zip(clustering, random_clustering))
    result.add_check(
        "strong clustering",
        min(clustering) >= 0.05 and min_margin > 5.0,
        "≈ 0.15, far above random graphs",
        f"min {min(clustering):.3f}, ≥ {min_margin:.0f}x random",
    )
    result.add_check(
        "constant average path length ≈ 4",
        max(path_length) - min(path_length) <= 1.0
        and 2.5 <= sum(path_length) / len(path_length) <= 5.5,
        "~4 hops, constant as n grows",
        f"range [{min(path_length):.2f}, {max(path_length):.2f}]",
    )
    result.add_check(
        "power-law degree distribution",
        all(1.2 <= a <= 3.5 for a in alpha),
        "truncated power law (Internet alpha ≈ 2.1)",
        f"MLE alpha in [{min(alpha):.2f}, {max(alpha):.2f}]",
    )
    # Goodness-of-fit at the largest size (the sweep's last graph): the
    # CSN KS distance of the degree tail against the fitted discrete
    # power law.
    fit = best_minimum([graph.degree(v) for v in graph.node_ids])
    result.add_check(
        "degree tail fits a discrete power law",
        fit.ks_distance < 0.2,
        "truncated power law, CSN goodness-of-fit",
        f"KS distance {fit.ks_distance:.3f} at d_min={fit.d_min} "
        f"(alpha={fit.alpha:.2f}, tail n={fit.tail_size})",
    )
    return result
