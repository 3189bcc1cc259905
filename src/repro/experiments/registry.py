"""Registry of all reproduced tables and figures."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments import (
    ext_damping,
    ext_evolution,
    ext_exploration,
    ext_heterogeneity,
    ext_load,
    ext_longmem,
    ext_monitor,
    ext_mrai,
    ext_prefix_scaling,
    fig01,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    table1,
)
from repro.experiments.cache import SweepRequest
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale

RunFn = Callable[..., ExperimentResult]

#: A sweeping experiment's ``sweeps(scale, *, seed, config=None)``.
SweepsFn = Callable[..., List[SweepRequest]]


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible artifact (paper figure or extension study)."""

    experiment_id: str
    title: str
    run: RunFn
    #: False for the extension studies beyond the paper's figures.
    paper_artifact: bool = True
    #: the growth sweeps ``run`` reads (None: it reads none)
    sweeps: Optional[SweepsFn] = None


_SPECS: Dict[str, ExperimentSpec] = {}


def _register(module, *, paper_artifact: bool = True) -> None:
    spec = ExperimentSpec(
        experiment_id=module.EXPERIMENT_ID,
        title=module.TITLE,
        run=module.run,
        paper_artifact=paper_artifact,
        sweeps=getattr(module, "sweeps", None),
    )
    _SPECS[spec.experiment_id] = spec


for _module in (
    fig01,
    table1,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
):
    _register(_module)

for _module in (
    ext_monitor,
    ext_mrai,
    ext_exploration,
    ext_heterogeneity,
    ext_load,
    ext_evolution,
    ext_damping,
    ext_prefix_scaling,
    ext_longmem,
):
    _register(_module, paper_artifact=False)


def experiment_ids(*, include_extensions: bool = True) -> List[str]:
    """All experiment ids, paper figures first."""
    return [
        spec.experiment_id
        for spec in _SPECS.values()
        if include_extensions or spec.paper_artifact
    ]


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment by id."""
    try:
        return _SPECS[experiment_id.lower()]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(_SPECS)}"
        ) from exc


def declared_sweeps(
    experiment_ids: Sequence[str], scale: Scale, *, seed: int
) -> List[SweepRequest]:
    """Every sweep the given experiments will read, in experiment order."""
    requests: List[SweepRequest] = []
    for experiment_id in experiment_ids:
        sweeps = get_experiment(experiment_id).sweeps
        if sweeps is not None:
            requests.extend(sweeps(scale, seed=seed))
    return requests


def run_experiment(
    experiment_id: str, scale: Optional[Scale] = None, *, seed: int = 0
) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id).run(scale, seed=seed)
