"""Tests for the multi-prefix churn driver."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.prefix_churn import (
    build_allocation,
    default_prefix_origins,
    run_prefix_churn,
)
from repro.errors import ExperimentError
from repro.prefix.workload import PrefixChurnSpec, allocate_prefixes
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params

FAST = dict(link_delay=0.001, processing_time_max=0.01)

SPEC = PrefixChurnSpec(
    duration=200.0,
    event_rate=0.05,
    mean_downtime=20.0,
    deaggregation_probability=0.2,
)


@pytest.fixture(scope="module")
def graph():
    return generate_topology(baseline_params(80), seed=17)


@pytest.fixture(scope="module")
def allocation(graph):
    return build_allocation(graph, 24, num_origins=6, seed=17)


def run(graph, allocation, *, spec=SPEC, seed=17):
    config = BGPConfig(mrai=2.0, **FAST)
    return run_prefix_churn(graph, allocation, spec, config, seed=seed)


class TestDigest:
    def test_digest_is_sensitive_to_routing_state(self, graph, allocation):
        a = run(graph, allocation)
        bigger = build_allocation(graph, 30, num_origins=6, seed=17)
        b = run(graph, bigger)
        assert a.loc_rib_digest != b.loc_rib_digest


class TestMeasurement:
    def test_incremental_decisions_dominate(self, graph, allocation):
        result = run(graph, allocation)
        assert result.events_executed > 0
        assert result.decisions_run > 0
        # Deciding per prefix is the point of the subsystem: one
        # flapping prefix must not re-decide the other 23.
        assert result.decisions_skipped > 10 * result.decisions_run

    def test_tables_track_the_allocation(self, graph, allocation):
        result = run(graph, allocation)
        # Deaggregations may leave a few tables one entry above P, but
        # every node must carry roughly the allocated table.
        assert result.num_prefixes == 24
        assert result.mean_table_size >= 0.9 * result.num_prefixes
        assert result.max_table_size >= result.num_prefixes

    def test_churn_rate_normalizes_by_measured_duration(self, graph, allocation):
        result = run(graph, allocation)
        assert result.measured_duration > 0
        assert result.churn_rate == pytest.approx(
            result.total_updates / result.measured_duration
        )

    def test_deterministic_per_seed(self, graph, allocation):
        a = run(graph, allocation)
        b = run(graph, allocation)
        assert a == b


class TestValidation:
    def test_unknown_origin_rejected(self, graph):
        allocation = allocate_prefixes([10**6], 4, seed=1)
        with pytest.raises(ExperimentError, match="not in topology"):
            run_prefix_churn(graph, allocation, SPEC, BGPConfig(**FAST))

    def test_default_origin_sample_is_deterministic(self, graph):
        assert default_prefix_origins(graph, 5, seed=3) == default_prefix_origins(
            graph, 5, seed=3
        )
        assert all(origin in graph for origin in default_prefix_origins(graph, 5))
