"""Serial-vs-partitioned equivalence: the partition mode's acceptance bar.

The graph-partitioned kernel must reproduce the serial kernel's churn
statistics on a fixed-seed C-event scenario.  With continuously jittered
service times the two kernels order events identically (see the
``repro.sim.partition`` module docstring), so the comparison is **exact**
— no tolerance.
"""

import dataclasses

import pytest

from repro.bgp.config import BGPConfig
from repro.core.cevent import pick_origins, run_c_event_experiment
from repro.errors import SimulationError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.sim.partition import (
    BorderEvent,
    LockstepRunner,
    build_local_parts,
    run_partitioned_c_event_experiment,
)
from repro.topology.generator import generate_topology
from repro.topology.partition import GraphPartition, partition_graph
from repro.topology.scenarios import scenario_params
from repro.topology.types import NodeType


def _graph(n=60, scenario="BASELINE", seed=11):
    return generate_topology(scenario_params(scenario, n), seed=seed)


def assert_stats_equal(serial, partitioned):
    """Every reproducible CEventStats field must match exactly."""
    assert partitioned.origins == serial.origins
    assert partitioned.measured_messages == serial.measured_messages
    assert partitioned.mean_down_convergence == serial.mean_down_convergence
    assert partitioned.mean_up_convergence == serial.mean_up_convergence
    assert partitioned.down_updates_per_type == serial.down_updates_per_type
    assert partitioned.up_updates_per_type == serial.up_updates_per_type
    for node_type in NodeType:
        theirs = serial.per_type.get(node_type)
        ours = partitioned.per_type.get(node_type)
        if theirs is None:
            assert ours is None
            continue
        assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)


class TestEquivalence:
    @pytest.mark.parametrize("num_parts", [2, 3])
    def test_matches_serial_kernel(self, num_parts):
        graph = _graph()
        config = BGPConfig(mrai=30.0)
        origins = pick_origins(graph, 4, seed=5)
        serial = run_c_event_experiment(
            graph, config, origins=origins, seed=5
        )
        partitioned = run_partitioned_c_event_experiment(
            graph, config, num_parts=num_parts, origins=origins, seed=5
        )
        assert_stats_equal(serial, partitioned)

    def test_matches_serial_without_rate_limiting(self):
        graph = _graph(n=50, seed=3)
        config = BGPConfig(mrai=0.0)
        origins = pick_origins(graph, 3, seed=1)
        serial = run_c_event_experiment(graph, config, origins=origins, seed=1)
        partitioned = run_partitioned_c_event_experiment(
            graph, config, num_parts=2, origins=origins, seed=1
        )
        assert_stats_equal(serial, partitioned)

    def test_matches_serial_with_wrate(self):
        graph = _graph(n=40, seed=9)
        config = BGPConfig(mrai=30.0, wrate=True)
        origins = pick_origins(graph, 3, seed=2)
        serial = run_c_event_experiment(graph, config, origins=origins, seed=2)
        partitioned = run_partitioned_c_event_experiment(
            graph, config, num_parts=2, origins=origins, seed=2
        )
        assert_stats_equal(serial, partitioned)

    def test_single_partition_degenerates_to_serial(self):
        graph = _graph(n=40)
        origins = pick_origins(graph, 2, seed=0)
        serial = run_c_event_experiment(graph, origins=origins, seed=0)
        partitioned = run_partitioned_c_event_experiment(
            graph, num_parts=1, origins=origins, seed=0
        )
        assert_stats_equal(serial, partitioned)

    def test_partitioned_run_is_deterministic(self):
        graph = _graph(n=50)
        origins = pick_origins(graph, 2, seed=4)
        first = run_partitioned_c_event_experiment(
            graph, num_parts=3, origins=origins, seed=4
        )
        second = run_partitioned_c_event_experiment(
            graph, num_parts=3, origins=origins, seed=4
        )
        assert_stats_equal(first, second)


class TestLockstepRunner:
    def test_rejects_zero_link_delay(self):
        graph = _graph(n=30)
        partition = partition_graph(graph, 2)
        config = BGPConfig()
        parts = build_local_parts(graph, partition, config, seed=0)
        with pytest.raises(SimulationError):
            LockstepRunner(partition, parts, link_delay=0.0)

    def test_rejects_member_count_mismatch(self):
        graph = _graph(n=30)
        partition = partition_graph(graph, 2)
        parts = build_local_parts(graph, partition, BGPConfig(), seed=0)
        with pytest.raises(SimulationError):
            LockstepRunner(partition, parts[:1], link_delay=0.002)

    def test_counts_windows_and_border_events(self):
        graph = _graph(n=50)
        partition = partition_graph(graph, 2)
        config = BGPConfig()
        parts = build_local_parts(graph, partition, config, seed=0)
        runner = LockstepRunner(partition, parts, link_delay=config.link_delay)
        origin = pick_origins(graph, 1, seed=0)[0]
        runner.apply("originate", origin, host_prefix(0))
        runner.converge()
        assert runner.windows > 0
        assert runner.border_events > 0
        assert runner.now > 0.0


class TestBorderRouting:
    def test_partition_network_routes_non_members_to_outbox(self):
        graph = _graph(n=40)
        partition = partition_graph(graph, 2)
        config = BGPConfig()
        members = sorted(partition.members(0))
        network = SimNetwork(graph, config, seed=0, local_nodes=members)
        assert set(network.nodes) == set(members)
        origin = members[0]
        network.originate(origin, host_prefix(0))
        network.run_to_convergence()
        # A BASELINE graph cut always carries some border traffic.
        outbox = network.drain_border_outbox()
        assert outbox
        assert network.border_outbox == []
        for sent_at, message in outbox:
            assert message.receiver not in set(members)
            assert sent_at >= 0.0

    def test_inject_border_rejects_non_member(self):
        graph = _graph(n=30)
        partition = partition_graph(graph, 2)
        members = sorted(partition.members(0))
        outsider = sorted(partition.members(1))[0]
        network = SimNetwork(graph, BGPConfig(), seed=0, local_nodes=members)
        from repro.bgp.messages import UpdateMessage

        message = UpdateMessage(
            sender=members[0],
            receiver=outsider,
            prefix=host_prefix(1),
            path=(members[0],),
        )
        with pytest.raises(SimulationError):
            network.inject_border(message, deliver_at=1.0)


class TestBorderEventCodec:
    def test_sort_key_orders_canonically(self):
        early = BorderEvent(0.1, 0.102, 5, 6, host_prefix(1), (5,))
        late = BorderEvent(0.2, 0.202, 1, 2, host_prefix(1), (1,))
        assert early.sort_key() < late.sort_key()


class TestPartitionedExperimentValidation:
    def test_rejects_unknown_origin(self):
        graph = _graph(n=30)
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_partitioned_c_event_experiment(
                graph, num_parts=2, origins=[10**9], seed=0
            )

    def test_rejects_empty_origins(self):
        graph = _graph(n=30)
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_partitioned_c_event_experiment(
                graph, num_parts=2, origins=[], seed=0
            )

    def test_explicit_partition_is_honoured(self):
        graph = _graph(n=40)
        explicit = GraphPartition(
            num_parts=2,
            assignment={n: n % 2 for n in graph.node_ids},
        )
        origins = pick_origins(graph, 2, seed=6)
        serial = run_c_event_experiment(graph, origins=origins, seed=6)
        partitioned = run_partitioned_c_event_experiment(
            graph, partition=explicit, origins=origins, seed=6
        )
        assert_stats_equal(serial, partitioned)
