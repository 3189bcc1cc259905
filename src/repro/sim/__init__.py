"""Discrete-event simulation substrate."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.sim.counters": ("UpdateCounter",),
        "repro.sim.engine": ("Engine",),
        "repro.sim.network": ("SimNetwork",),
        "repro.sim.rng": ("derive_rng", "derive_seed"),
        "repro.sim.trace": (
            "BurstinessReport",
            "MonitorTrace",
            "TracedUpdate",
        ),
    },
)
