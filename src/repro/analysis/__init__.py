"""Long-memory analysis of churn series.

Kitsak et al., "Long-Range Correlations and Memory in the Dynamics of
Internet Interdomain Routing" (PAPERS.md), measured Hurst exponents of
H ≈ 0.6–0.9 in real BGP update-rate series — churn is *long-range
correlated*, not Poisson.  The source paper's scalability argument only
eyeballed its simulated churn against measured data; this package makes
the check quantitative, so a campaign can report whether simulated churn
reproduces the measured memory structure.

* :mod:`repro.analysis.fgn` — exact fractional Gaussian noise synthesis
  (circulant embedding), the ground truth the estimators are validated
  against;
* :mod:`repro.analysis.estimators` — detrended fluctuation analysis
  (DFA-1/DFA-2), aggregated-variance and rescaled-range (R/S) Hurst
  estimators, all deterministic and strict about degenerate input;
* :mod:`repro.analysis.bootstrap` — seeded circular block bootstrap
  confidence intervals for any of the estimators;
* :mod:`repro.analysis.report` — :class:`LongMemoryReport` bundling all
  estimates for one series, plus the churn-series entry point used by
  the ``ext-longmem`` experiment and the ``analyze churn`` CLI verb.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.bootstrap": ("hurst_confidence_interval",),
        "repro.analysis.estimators": (
            "HurstEstimate",
            "aggregated_variance_hurst",
            "dfa",
            "rs_hurst",
        ),
        "repro.analysis.fgn": (
            "fractional_gaussian_noise",
            "longmem_noise_source",
        ),
        "repro.analysis.report": ("LongMemoryReport", "analyze_churn_series"),
    },
)
