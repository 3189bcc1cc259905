"""BGP protocol model: routes, policies, decision process, MRAI, damping."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.bgp.config": (
            "BGPConfig",
            "DampingConfig",
            "MRAIMode",
            "NO_WRATE_CONFIG",
            "SendDiscipline",
            "WRATE_CONFIG",
        ),
        "repro.bgp.messages": ("UpdateMessage", "announcement", "withdrawal"),
        "repro.bgp.node": ("BGPNode",),
        "repro.bgp.route": (
            "Route",
            "best_route",
            "import_route",
            "local_route",
            "stable_hash",
        ),
    },
)
