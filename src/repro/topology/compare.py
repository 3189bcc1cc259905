"""Structural comparison of topologies.

Used to answer "are these two topologies the same kind of network?" —
e.g. whether an *evolved* instance is statistically indistinguishable
from a *regenerated* one at the same parameter point, or how far a
scenario deviation moves the structure from the Baseline.

Two levels of comparison live here:

* :func:`compare_topologies` — the coarse check (node mix, multihoming
  degrees, a degree-distribution KS test, hierarchy depth) used by the
  evolution-vs-regeneration experiments;
* :func:`topology_fidelity_report` — the fine-grained generated-vs-
  *measured* check motivated by "Beyond Node Degree" (PAPERS.md): joint
  degree distribution (dK-2), degree-dependent clustering spectrum, and
  pivot-sampled betweenness, each reduced to a per-metric distance.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.topology.graph import ASGraph
from repro.topology.metrics import (
    approximate_betweenness,
    clustering_spectrum,
    joint_degree_distribution,
    mean_multihoming_degree,
)
from repro.topology.tiers import hierarchy_depth, mean_chain_length
from repro.topology.types import NodeType


@dataclasses.dataclass(frozen=True)
class TopologyComparison:
    """Structural distance measures between two topologies."""

    n_a: int
    n_b: int
    #: max absolute difference of node-type fractions
    mix_divergence: float
    #: per-type absolute MHD difference
    mhd_gap: Dict[NodeType, float]
    #: two-sample KS statistic on the degree distributions
    degree_ks_statistic: float
    #: p-value of the KS test (high = indistinguishable)
    degree_ks_pvalue: float
    #: difference in hierarchy depth (b - a)
    depth_difference: int
    #: difference in mean longest provider-chain length (b - a)
    chain_length_difference: float

    def similar(
        self,
        *,
        mix_tolerance: float = 0.05,
        mhd_tolerance: float = 0.5,
        ks_alpha: float = 0.01,
    ) -> bool:
        """A coarse same-kind-of-network verdict.

        True when node mixes agree within ``mix_tolerance``, every type's
        MHD within ``mhd_tolerance``, the degree KS test does not reject
        at ``ks_alpha``, and the hierarchy depth matches within one tier.
        """
        return (
            self.mix_divergence <= mix_tolerance
            and all(gap <= mhd_tolerance for gap in self.mhd_gap.values())
            and self.degree_ks_pvalue >= ks_alpha
            and abs(self.depth_difference) <= 1
        )


def compare_topologies(a: ASGraph, b: ASGraph) -> TopologyComparison:
    """Compute the structural distance between two topologies."""
    counts_a = a.type_counts()
    counts_b = b.type_counts()
    mix_divergence = max(
        abs(counts_a[t] / len(a) - counts_b[t] / len(b)) for t in NodeType
    )
    mhd_gap = {
        node_type: abs(
            mean_multihoming_degree(a, node_type)
            - mean_multihoming_degree(b, node_type)
        )
        for node_type in (NodeType.M, NodeType.CP, NodeType.C)
    }
    degrees_a = [a.degree(v) for v in a.node_ids]
    degrees_b = [b.degree(v) for v in b.node_ids]
    from scipy.stats import ks_2samp

    ks = ks_2samp(degrees_a, degrees_b)
    return TopologyComparison(
        n_a=len(a),
        n_b=len(b),
        mix_divergence=mix_divergence,
        mhd_gap=mhd_gap,
        degree_ks_statistic=float(ks.statistic),
        degree_ks_pvalue=float(ks.pvalue),
        depth_difference=hierarchy_depth(b) - hierarchy_depth(a),
        chain_length_difference=mean_chain_length(b) - mean_chain_length(a),
    )


@dataclasses.dataclass(frozen=True)
class FidelityReport:
    """Per-metric distances between a generated and a measured topology.

    All distances are in ``[0, 1]`` with 0 meaning identical.  The report
    is deterministic: the same pair of graphs and the same ``seed``
    always produce the same numbers (the betweenness pivot sample is the
    only randomised ingredient, and it is seeded).
    """

    n_generated: int
    n_measured: int
    #: total-variation distance between normalised dK-2 histograms
    jdd_distance: float
    #: mean |c_gen(k) - c_meas(k)| over degrees present in both spectra
    clustering_spectrum_distance: float
    #: degrees where one spectrum has mass and the other has none
    clustering_spectrum_disjoint: int
    #: two-sample KS statistic on pivot-sampled betweenness values
    betweenness_ks_statistic: float
    #: two-sample KS statistic on plain degree sequences (context)
    degree_ks_statistic: float
    #: pivots and seed actually used (part of the reproducibility contract)
    pivots: int
    seed: int

    def distances(self) -> Dict[str, float]:
        """The headline distances keyed by metric name."""
        return {
            "jdd": self.jdd_distance,
            "clustering_spectrum": self.clustering_spectrum_distance,
            "betweenness_ks": self.betweenness_ks_statistic,
            "degree_ks": self.degree_ks_statistic,
        }

    def to_dict(self) -> dict:
        """JSON-ready payload (sorted keys left to the serialiser)."""
        return {
            "n_generated": self.n_generated,
            "n_measured": self.n_measured,
            "jdd_distance": self.jdd_distance,
            "clustering_spectrum_distance": self.clustering_spectrum_distance,
            "clustering_spectrum_disjoint": self.clustering_spectrum_disjoint,
            "betweenness_ks_statistic": self.betweenness_ks_statistic,
            "degree_ks_statistic": self.degree_ks_statistic,
            "pivots": self.pivots,
            "seed": self.seed,
        }


def _total_variation(
    a: Dict[Tuple[int, int], int], b: Dict[Tuple[int, int], int]
) -> float:
    """Total-variation distance between two (unnormalised) histograms."""
    total_a = sum(a.values())
    total_b = sum(b.values())
    if total_a == 0 or total_b == 0:
        return 1.0
    distance = 0.0
    for key in sorted(set(a) | set(b)):
        distance += abs(a.get(key, 0) / total_a - b.get(key, 0) / total_b)
    return distance / 2.0


def topology_fidelity_report(
    generated: ASGraph,
    measured: ASGraph,
    *,
    pivots: int = 64,
    seed: int = 0,
) -> FidelityReport:
    """How structurally faithful is ``generated`` to ``measured``?

    Computes the three "beyond node degree" metrics on both graphs and
    reduces each to a scalar distance:

    * **dK-2** — total-variation distance between the normalised joint
      degree distributions;
    * **clustering spectrum** — mean absolute c(k) gap over degrees both
      graphs populate (degrees only one graph populates are counted in
      ``clustering_spectrum_disjoint`` rather than silently ignored);
    * **betweenness** — two-sample KS statistic between the pivot-sampled
      betweenness value distributions (``pivots`` sources, seeded).

    A plain degree-sequence KS statistic is included for context: if it
    is already large, the richer metrics mostly restate the degree
    mismatch; the interesting regime is degree-KS small but dK-2 or
    clustering distance large.
    """
    jdd = _total_variation(
        joint_degree_distribution(generated),
        joint_degree_distribution(measured),
    )
    spectrum_gen = clustering_spectrum(generated)
    spectrum_meas = clustering_spectrum(measured)
    shared = sorted(set(spectrum_gen) & set(spectrum_meas))
    disjoint = len(set(spectrum_gen) ^ set(spectrum_meas))
    if shared:
        spectrum_distance = sum(
            abs(spectrum_gen[k] - spectrum_meas[k]) for k in shared
        ) / len(shared)
    else:
        spectrum_distance = 1.0
    pivots_used = min(pivots, len(generated), len(measured))
    bc_gen = approximate_betweenness(generated, pivots=pivots_used, seed=seed)
    bc_meas = approximate_betweenness(measured, pivots=pivots_used, seed=seed)
    values_gen: List[float] = sorted(bc_gen.values())
    values_meas: List[float] = sorted(bc_meas.values())
    from scipy.stats import ks_2samp

    betweenness_ks = ks_2samp(values_gen, values_meas)
    degree_ks = ks_2samp(
        [generated.degree(v) for v in generated.node_ids],
        [measured.degree(v) for v in measured.node_ids],
    )
    return FidelityReport(
        n_generated=len(generated),
        n_measured=len(measured),
        jdd_distance=jdd,
        clustering_spectrum_distance=spectrum_distance,
        clustering_spectrum_disjoint=disjoint,
        betweenness_ks_statistic=float(betweenness_ks.statistic),
        degree_ks_statistic=float(degree_ks.statistic),
        pivots=pivots_used,
        seed=seed,
    )
