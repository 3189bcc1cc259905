"""Statistics substrate: trend tests, confidence intervals, synthesis."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.stats.confidence": (
            "ConfidenceInterval",
            "bootstrap_confidence_interval",
            "mean_confidence_interval",
        ),
        "repro.stats.descriptive": (
            "Summary",
            "coefficient_of_variation",
            "geometric_mean",
            "percentile",
            "summarize",
        ),
        "repro.stats.mannkendall": (
            "MannKendallResult",
            "mann_kendall",
            "sen_slope",
            "trend_total_growth",
        ),
        "repro.stats.powerlaw": (
            "PowerLawFit",
            "best_minimum",
            "fit_power_law",
        ),
        "repro.stats.timeseries": (
            "ChurnSeriesSpec",
            "daily_to_cumulative",
            "synthesize_churn_series",
        ),
    },
)
