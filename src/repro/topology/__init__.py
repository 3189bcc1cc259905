"""AS-level topology substrate: generator, scenarios, metrics, validation."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.topology.compare": ("TopologyComparison", "compare_topologies"),
        "repro.topology.dot": ("save_dot", "to_dot"),
        "repro.topology.evolve": ("evolve_topology",),
        "repro.topology.generator": ("generate_topology",),
        "repro.topology.graph": ("ASGraph", "ASNode"),
        "repro.topology.params": ("TopologyParams", "baseline_params"),
        "repro.topology.scenarios": ("scenario_names", "scenario_params"),
        "repro.topology.tiers": (
            "depth_histogram",
            "hierarchy_depth",
            "mean_chain_length",
            "tier_map",
        ),
        "repro.topology.types": (
            "LOCAL_PREFERENCE",
            "NODE_TYPE_ORDER",
            "NodeType",
            "RELATIONSHIP_ORDER",
            "Relationship",
        ),
        "repro.topology.validation": ("find_violations", "validate"),
    },
)
