"""Core churn experiments: C-events, factor analysis, growth sweeps."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.cevent": (
            "CEventStats",
            "pick_origins",
            "run_c_event_experiment",
        ),
        "repro.core.exploration": (
            "ExplorationStats",
            "exploration_comparison",
            "measure_path_exploration",
        ),
        "repro.core.factors": (
            "FactorAccumulator",
            "TypeFactors",
            "predicted_u",
        ),
        "repro.core.heterogeneity": (
            "HeterogeneityReport",
            "churn_heterogeneity",
            "gini_coefficient",
            "lorenz_curve",
            "top_share",
        ),
        "repro.core.linkevent": (
            "LinkEventStats",
            "run_link_event_experiment",
        ),
        "repro.core.load": (
            "LoadReport",
            "TypeLoad",
            "load_report",
            "run_load_probe",
        ),
        "repro.core.mrai_sweep": (
            "DEFAULT_MRAI_VALUES",
            "MRAISweepResult",
            "run_mrai_sweep",
        ),
        "repro.core.reference": ("RouteSummary", "steady_state_routes"),
        "repro.core.regression": (
            "PolynomialFit",
            "fit_linear",
            "fit_polynomial",
            "fit_quadratic",
            "growth_classification",
            "log_log_exponent",
            "relative_increase",
        ),
        "repro.core.sweep": (
            "DEFAULT_SIZES",
            "SweepResult",
            "run_growth_sweep",
            "run_scenario_comparison",
        ),
        "repro.core.workload": (
            "WorkloadResult",
            "WorkloadSpec",
            "default_monitors",
            "generate_poisson_workload",
            "run_workload",
        ),
    },
)
