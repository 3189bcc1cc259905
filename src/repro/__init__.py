"""repro — a reproduction of "On the scalability of BGP: the roles of
topology growth and update rate-limiting" (Elmokashfi, Kvalbein, Dovrolis;
CoNEXT 2008).

The package provides:

* :mod:`repro.topology` — the paper's parameterized AS-level topology
  generator (Table 1) and all Sec. 5 growth-scenario deviations;
* :mod:`repro.bgp` — the BGP speaker model (policies, decision process,
  MRAI with the WRATE / NO-WRATE variants, route-flap damping);
* :mod:`repro.sim` — the discrete-event simulator;
* :mod:`repro.core` — C-event / link-event experiments, the m·q·e factor
  decomposition of Eq. (1), growth sweeps and regression tools;
* :mod:`repro.stats` — Mann–Kendall trend test, confidence intervals,
  synthetic churn series;
* :mod:`repro.experiments` — one runnable experiment per paper figure.

Quickstart::

    from repro import baseline_params, generate_topology, run_c_event_experiment

    graph = generate_topology(baseline_params(1000), seed=1)
    stats = run_c_event_experiment(graph, num_origins=10, seed=1)
    print({t.value: stats.u(t) for t in stats.per_type})
"""

from __future__ import annotations

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """A package's PEP 562 ``__getattr__`` and ``__dir__``, and its ``__all__``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name's module is imported on its first access
    and the value is then cached on the package, so importing a package
    costs nothing until one of its names is used: a CLI verb loads the
    modules it runs, not every subsystem.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, sorted(home)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro._version": ("__version__",),
        "repro.bgp.config": ("BGPConfig", "MRAIMode", "NO_WRATE_CONFIG", "WRATE_CONFIG"),
        "repro.core.cevent": ("CEventStats", "run_c_event_experiment"),
        "repro.core.linkevent": ("run_link_event_experiment",),
        "repro.core.sweep": ("SweepResult", "run_growth_sweep", "run_scenario_comparison"),
        "repro.errors": (
            "ConvergenceError",
            "ExperimentError",
            "ParameterError",
            "ReproError",
            "SerializationError",
            "SimulationError",
            "TopologyError",
        ),
        "repro.sim.network": ("SimNetwork",),
        "repro.topology.generator": ("generate_topology",),
        "repro.topology.graph": ("ASGraph",),
        "repro.topology.params": ("TopologyParams", "baseline_params"),
        "repro.topology.scenarios": ("scenario_names", "scenario_params"),
        "repro.topology.types": ("NodeType", "Relationship"),
    },
)
