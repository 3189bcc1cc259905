"""Tests for processing-load analysis."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.load import load_report, run_load_probe
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.types import NodeType

P0 = host_prefix(0)

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.01)


class TestLoadReport:
    def test_counters_populated(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        network.originate(4, P0)
        network.run_to_convergence()
        report = load_report(network)
        assert report.n == 5
        assert report.simulated_seconds > 0
        t_load = report.per_type[NodeType.T]
        assert t_load.mean_processed > 0
        assert t_load.mean_busy_time > 0
        assert t_load.max_queue_length >= 1

    def test_busiest_node_consistent(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        network.originate(4, P0)
        network.run_to_convergence()
        report = load_report(network)
        for load in report.per_type.values():
            node = network.node(load.busiest_node)
            assert node.processed_count == load.busiest_processed
            assert node.node_type is load.node_type

    def test_utilization_bounded(self, small_baseline):
        report = run_load_probe(small_baseline, FAST, num_origins=3, seed=1)
        for node_type in report.per_type:
            assert 0.0 <= report.utilization(node_type) <= 1.0

    def test_core_processes_more_than_edge(self, small_baseline):
        """T nodes sit on many paths: their processing load must exceed
        C stubs' (the paper's core-router upgrade concern)."""
        report = run_load_probe(small_baseline, FAST, num_origins=4, seed=2)
        assert (
            report.per_type[NodeType.T].mean_processed
            > report.per_type[NodeType.C].mean_processed
        )

    def test_busy_time_tracks_processed_count(self, small_baseline):
        report = run_load_probe(small_baseline, FAST, num_origins=2, seed=3)
        for load in report.per_type.values():
            if load.mean_processed > 0:
                mean_service = load.mean_busy_time / load.mean_processed
                # uniform(0, max) services average max/2
                assert 0.0 < mean_service < FAST.processing_time_max
