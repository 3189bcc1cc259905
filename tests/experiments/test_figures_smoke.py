"""Smoke tests: every figure experiment runs end-to-end at tiny scale.

These use a single shared tiny scale and a fast BGP config so the whole
module stays test-suite friendly; the *claims* are each experiment's
checks, which ``repro-bgp campaign`` runs at smoke scale and above (see
EXPERIMENTS.md).
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.experiments import cache
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.scale import Scale

TINY = Scale(name="tiny", sizes=(120, 240), origins=3, metric_sources=15)
FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


@pytest.fixture(scope="module", autouse=True)
def _clear_cache():
    cache.clear_cache()
    yield
    cache.clear_cache()


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_runs_and_reports(experiment_id):
    spec = get_experiment(experiment_id)
    if experiment_id in ("fig01", "table1", "fig03"):
        result = spec.run(TINY, seed=3)
    else:
        result = spec.run(TINY, seed=3, config=FAST)
    assert result.experiment_id == experiment_id
    assert result.x_values
    for name, values in result.series.items():
        assert len(values) == len(result.x_values), name
    assert result.checks  # every figure asserts at least one paper claim
    text = result.to_text()
    assert experiment_id in text
    markdown = result.to_markdown()
    assert markdown.startswith(f"### {experiment_id}")
