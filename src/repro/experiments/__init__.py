"""Experiment harness: one runnable reproduction per paper table/figure.

Import :func:`repro.experiments.registry.run_experiment` (or use the
``repro-bgp`` CLI) to regenerate any figure.  Heavy sweeps are memoized
per process so the full campaign simulates each (scenario, config, size)
exactly once.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.experiments.report": ("ExperimentResult", "ShapeCheck"),
        "repro.experiments.results_io": ("load_results", "save_results"),
        "repro.experiments.scale": ("PRESETS", "Scale", "get_scale"),
    },
)
