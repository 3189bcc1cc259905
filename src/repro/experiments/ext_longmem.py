"""Extension experiment: long-memory structure of simulated churn.

Kitsak et al. (PAPERS.md) measured Hurst exponents of H ≈ 0.6–0.9 in
real BGP update-rate series: churn has long-range memory.  The source
paper's churn model is a Poisson C-event stream — memoryless by
construction — so the question this experiment answers is *where on the
memory axis our simulated churn actually sits*, using the estimators of
:mod:`repro.analysis`.

Three series are analysed side by side:

1. **poisson** — a plain Poisson workload through the fast kernel.  The
   arrival process has H = 0.5; the measured monitor-side rate series
   should stay near it (MRAI batching adds only short-range structure).
2. **storms** — the same workload with flap storms enabled.  Storms
   cluster events over minutes, which the estimators should register as
   *at least* as much persistence as the memoryless stream.
3. **reference** — a synthetic churn series with a *known* long-memory
   level (fractional Gaussian noise at H = 0.75 through the
   ``noise_source`` seam of :func:`repro.stats.timeseries`).  Recovering
   it validates the whole analysis chain inside the experiment, and its
   H sits inside the measured band — this is what real churn looks like
   to the estimators.

Set the ``REPRO_LONGMEM_TOPOLOGY`` environment variable to a serial-1
snapshot path to run the simulated workloads on a *measured* topology
instead of the generative model (the measured-smoke CI gate does this
with the test fixture).
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bgp.config import BGPConfig
from repro.core.workload import WorkloadSpec, rate_bin_width, run_workload
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.obs.telemetry import current_telemetry
from repro.sim.rng import derive_seed
from repro.stats.timeseries import ChurnSeriesSpec, synthesize_churn_series
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.params import baseline_params

if TYPE_CHECKING:
    from repro.analysis import LongMemoryReport

EXPERIMENT_ID = "ext-longmem"
TITLE = "Long-memory structure of simulated churn (DFA/Hurst validation)"

#: environment seam: path to a serial-1 snapshot to use as the topology
TOPOLOGY_ENV = "REPRO_LONGMEM_TOPOLOGY"

#: scale preset → (topology size, injection window (s), target rate bins)
#: Durations are sized so that even with the paper's default MRAI (30 s)
#: the effective bin width (see :func:`repro.core.workload.rate_bin_width`)
#: still yields the target bin count.
GRIDS: Dict[str, Tuple[int, float, int]] = {
    "smoke": (120, 7680.0, 64),
    "default": (300, 15360.0, 128),
    "full": (600, 30720.0, 256),
    "paper": (1000, 61440.0, 512),
}

#: target H of the synthetic reference series, inside the measured band
REFERENCE_HURST = 0.75
#: reference series length (days); long enough for tight estimates
REFERENCE_DAYS = 2048
#: documented recovery tolerance on the reference H
REFERENCE_TOLERANCE = 0.12
#: documented tolerance around H = 0.5 for the memoryless workload
POISSON_TOLERANCE = 0.15

#: C-events per simulated second (kept constant across scales so the
#: per-bin statistics stay comparable)
EVENT_RATE = 0.1
#: mean prefix downtime — kept *below* the bin width so one C-event's
#: withdraw/re-announce pair lands in one bin instead of correlating
#: neighbouring bins (which DFA would read as spurious memory)
MEAN_DOWNTIME = 2.0


def _grid(scale: Scale) -> Tuple[int, float, int]:
    grid = GRIDS.get(scale.name)
    if grid is not None:
        return grid
    # Custom scales (the test suite's tiny presets): stay tiny.
    return (scale.sizes[0], 2048.0, 128)


def _topology(n: int, seed: int) -> Tuple[ASGraph, str]:
    """The topology under test: generated, or measured via the env seam."""
    path = os.environ.get(TOPOLOGY_ENV)
    if path:
        from repro.measured import load_serial1

        graph, report = load_serial1(path)
        return graph, f"measured topology {path} (n={report.num_nodes})"
    graph = generate_topology(baseline_params(n), seed=derive_seed(seed, n, 1))
    return graph, f"generated topology n={n}"


def _reference_series(seed: int) -> List[float]:
    """Synthetic churn with known H, via the noise-source seam.

    Trend, weekly seasonality and bursts are disabled so the log-series
    is pure fGn — the cleanest possible known-H validation input.
    """
    from repro.analysis import longmem_noise_source

    spec = ChurnSeriesSpec(
        days=REFERENCE_DAYS,
        total_growth=0.0,
        weekly_amplitude=0.0,
        burst_probability=0.0,
    )
    source = longmem_noise_source(
        hurst=REFERENCE_HURST,
        days=REFERENCE_DAYS,
        sigma=spec.noise_sigma,
        seed=derive_seed(seed, REFERENCE_DAYS, 4),
    )
    series = synthesize_churn_series(spec, seed=seed, noise_source=source)
    return [math.log(value) for value in series]


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Estimate Hurst exponents of simulated and reference churn."""
    from repro.analysis import analyze_churn_series

    scale = scale if scale is not None else get_scale()
    config = config if config is not None else BGPConfig()
    n, duration, bins = _grid(scale)
    bin_width = rate_bin_width(duration, bins, config)
    telemetry = current_telemetry()
    graph, topology_note = _topology(n, seed)

    workloads: Dict[str, WorkloadSpec] = {
        "poisson": WorkloadSpec(
            duration=duration,
            event_rate=EVENT_RATE,
            mean_downtime=MEAN_DOWNTIME,
            storm_probability=0.0,
        ),
        "storms": WorkloadSpec(
            duration=duration,
            event_rate=EVENT_RATE,
            mean_downtime=MEAN_DOWNTIME,
            storm_probability=0.3,
            storm_size_mean=12.0,
            storm_gap=bin_width,
        ),
    }
    reports: Dict[str, LongMemoryReport] = {}
    for index, (name, spec) in enumerate(workloads.items()):
        with telemetry.phase("longmem-workload"):
            churn = run_workload(graph, spec, config, seed=derive_seed(seed, index, 2))
            series = churn.rate_series(bin_width)
        reports[name] = analyze_churn_series(
            series, seed=derive_seed(seed, index, 3), resamples=50
        )
    reports["reference"] = analyze_churn_series(
        _reference_series(seed), seed=derive_seed(seed, 2, 3), resamples=50
    )

    names = ["poisson", "storms", "reference"]
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="workload (1=poisson, 2=storms, 3=reference)",
        x_values=[float(i + 1) for i in range(len(names))],
        series={
            "hurst (dfa1)": [reports[k].hurst for k in names],
            "hurst (consensus)": [reports[k].consensus_hurst for k in names],
            "ci low": [reports[k].dfa1_interval.low for k in names],
            "ci high": [reports[k].dfa1_interval.high for k in names],
        },
    )
    result.notes.append(topology_note)
    result.notes.append(
        f"duration={duration:.0f}s, bin width {bin_width:.0f}s, "
        f"event_rate={EVENT_RATE}/s"
    )
    result.notes.append(
        f"reference: fGn noise at H={REFERENCE_HURST}, "
        f"{REFERENCE_DAYS} days, tolerance ±{REFERENCE_TOLERANCE}"
    )
    poisson_h = reports["poisson"].hurst
    result.add_check(
        "poisson churn is memoryless",
        abs(poisson_h - 0.5) <= POISSON_TOLERANCE,
        f"H within 0.5 ± {POISSON_TOLERANCE}",
        f"dfa1 H = {poisson_h:.3f}",
    )
    reference_h = reports["reference"].hurst
    result.add_check(
        "estimators recover the known reference H",
        abs(reference_h - REFERENCE_HURST) <= REFERENCE_TOLERANCE,
        f"H within {REFERENCE_HURST} ± {REFERENCE_TOLERANCE}",
        f"dfa1 H = {reference_h:.3f}",
    )
    result.add_check(
        "reference series sits in the measured churn band",
        reports["reference"].in_measured_band(),
        "H in [0.6, 0.9] (Kitsak et al.)",
        f"dfa1 H = {reference_h:.3f}",
    )
    storm_h = reports["storms"].hurst
    result.add_check(
        "storm churn is at least as persistent as poisson churn",
        storm_h >= poisson_h - 0.05,
        "flap storms should not reduce memory",
        f"storms H = {storm_h:.3f} vs poisson H = {poisson_h:.3f}",
    )
    return result
