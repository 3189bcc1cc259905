"""Tests for the m/q/e factor accumulator (Eq. 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig
from repro.core.cevent import pick_origins, run_c_event_batch
from repro.core.factors import (
    FactorAccumulator,
    RawFactorSums,
    compute_all_type_factors,
    compute_type_factors,
    predicted_u,
)
from repro.errors import ExperimentError
from repro.sim.counters import UpdateCounter
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType, Relationship

CUST = Relationship.CUSTOMER
PEER = Relationship.PEER
PROV = Relationship.PROVIDER


def make_counter(records):
    """A counter of ``count`` updates per (receiver, sender); the class
    each record names is the link's, which the accumulator looks up."""
    counter = UpdateCounter()
    for receiver, sender, _rel, count in records:
        for _ in range(count):
            counter.record(receiver, sender, is_withdrawal=False)
    return counter


def type_factors(acc, node_type):
    return compute_type_factors(acc.summary, acc.raw_sums(), node_type)


class TestAccumulation:
    def test_no_events_raises(self, diamond):
        acc = FactorAccumulator(diamond)
        with pytest.raises(ExperimentError):
            type_factors(acc, NodeType.T)

    def test_single_event_factors(self, diamond):
        acc = FactorAccumulator(diamond)
        # T0 hears 2 updates from customer M2 and 2 from peer T1.
        acc.add_event(make_counter([(0, 2, CUST, 2), (0, 1, PEER, 2)]))
        factors = type_factors(acc, NodeType.T)
        assert factors.events == 1
        assert factors.node_count == 2
        # averaged over BOTH T nodes: T0 got 4, T1 got 0
        assert factors.u_total == pytest.approx(2.0)
        assert factors.u(CUST) == pytest.approx(1.0)
        assert factors.u(PEER) == pytest.approx(1.0)
        # m: T0 has 2 customers, T1 has 1 -> mean 1.5; peers 1 each
        assert factors.m(CUST) == pytest.approx(1.5)
        assert factors.m(PEER) == pytest.approx(1.0)
        # q: 1 active customer of 3 customer-links; 1 active peer of 2
        assert factors.q(CUST) == pytest.approx(1 / 3)
        assert factors.q(PEER) == pytest.approx(1 / 2)
        # e: 2 updates per active neighbour
        assert factors.e(CUST) == pytest.approx(2.0)
        assert factors.e(PEER) == pytest.approx(2.0)

    def test_identity_u_equals_mqe(self, diamond):
        """The aggregation must satisfy U_y = m_y q_y e_y exactly."""
        acc = FactorAccumulator(diamond)
        acc.add_event(make_counter([(0, 2, CUST, 3), (0, 3, CUST, 1), (2, 0, PROV, 2)]))
        acc.add_event(make_counter([(0, 1, PEER, 5), (3, 1, PROV, 1)]))
        for node_type in (NodeType.T, NodeType.M):
            factors = type_factors(acc, node_type)
            assert factors.u_total == pytest.approx(predicted_u(factors), abs=1e-12)
            for rel in (CUST, PEER, PROV):
                assert factors.u(rel) == pytest.approx(
                    predicted_u(factors, rel), abs=1e-12
                )

    def test_multiple_events_average(self, diamond):
        acc = FactorAccumulator(diamond)
        acc.add_event(make_counter([(0, 2, CUST, 4)]))
        acc.add_event(make_counter([(0, 2, CUST, 0)]))  # empty event
        factors = type_factors(acc, NodeType.T)
        # 4 updates over 2 events over 2 T nodes
        assert factors.u_total == pytest.approx(1.0)

    def test_per_node_updates_for_ci(self, diamond):
        acc = FactorAccumulator(diamond)
        acc.add_event(make_counter([(0, 2, CUST, 4), (1, 3, CUST, 2)]))
        factors = type_factors(acc, NodeType.T)
        assert sorted(factors.per_node_updates) == [2.0, 4.0]

    def test_node_updates(self, diamond):
        acc = FactorAccumulator(diamond)
        acc.add_event(make_counter([(2, 4, CUST, 6)]))
        raw = acc.raw_sums()
        position = raw.node_ids.index(2)
        assert raw.total_updates[position] == 6
        assert raw.updates[0][position] == 6  # customer column
        assert raw.active[0][position] == 1
        assert raw.total_updates[raw.node_ids.index(0)] == 0
        factors = acc.all_type_factors()[diamond.node(2).node_type]
        assert 6.0 in factors.per_node_updates

    def test_all_type_factors_skips_absent_types(self, diamond):
        acc = FactorAccumulator(diamond)
        acc.add_event(make_counter([(0, 2, CUST, 1)]))
        per_type = acc.all_type_factors()
        assert NodeType.CP not in per_type  # diamond has no CP nodes
        assert set(per_type) == {NodeType.T, NodeType.M, NodeType.C}


@st.composite
def measured_batches(draw):
    """A random Baseline topology, MRAI variant and origin set, and cut
    points that split its measured events into contiguous pieces."""
    n = draw(st.integers(min_value=40, max_value=90))
    graph = generate_topology(
        baseline_params(n), seed=draw(st.integers(min_value=0, max_value=10**6))
    )
    config = BGPConfig(
        mrai=1.0,
        link_delay=0.001,
        processing_time_max=0.01,
        wrate=draw(st.booleans()),
    )
    num_origins = draw(st.integers(min_value=1, max_value=4))
    origins = pick_origins(graph, num_origins, draw(st.integers(0, 10**6)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=len(origins)), max_size=3))
    return graph, config, origins, sorted(cuts | {len(origins)})


class TestColumnsProperty:
    @given(case=measured_batches(), seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_columns_recount_and_absorb_over_any_split(self, case, seed):
        graph, config, origins, cuts = case
        events = []

        def capture(cursor):
            events.append(dict(cursor.network.counter.received_by_pair))

        result = run_c_event_batch(
            graph, config, origins=origins, seed=seed, after_event=capture
        )
        raw = result.raw

        # The columns equal a recount of the pair counts by link class.
        rels = (CUST, PEER, PROV)
        position = {node_id: i for i, node_id in enumerate(raw.node_ids)}
        updates = [[0] * len(graph) for _ in rels]
        active = [[0] * len(graph) for _ in rels]
        for pairs in events:
            for (receiver, sender), count in pairs.items():
                k = rels.index(graph.relationship(receiver, sender))
                updates[k][position[receiver]] += count
                active[k][position[receiver]] += 1
        assert raw.events == len(origins)
        assert raw.updates == updates
        assert raw.active == active
        assert raw.total_updates == [sum(per_node) for per_node in zip(*updates)]

        # Absorbing contiguous pieces of the events equals the whole batch.
        merged = RawFactorSums.zeros(graph.node_ids)
        start = 0
        for end in cuts:
            piece = FactorAccumulator(graph)
            for pairs in events[start:end]:
                counter = UpdateCounter()
                counter.received_by_pair.update(pairs)
                piece.add_event(counter)
            merged.absorb(piece.raw_sums())
            start = end
        assert merged == raw
        assert compute_all_type_factors(result.summary, merged) == (
            compute_all_type_factors(result.summary, raw)
        )
