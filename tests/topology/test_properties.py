"""Property-based tests (hypothesis) for the topology substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.attachment import draw_link_count, preferential_choice
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.params import baseline_params
from repro.topology.scenarios import scenario_names, scenario_params
from repro.topology.types import NodeType, Relationship
from repro.topology.validation import find_violations

#: Each relationship as the other endpoint of the link sees it.
_FROM_THE_OTHER_END = {
    Relationship.CUSTOMER: Relationship.PROVIDER,
    Relationship.PROVIDER: Relationship.CUSTOMER,
    Relationship.PEER: Relationship.PEER,
}


@st.composite
def small_params(draw):
    """Random but valid generator parameters for small topologies."""
    n = draw(st.integers(min_value=40, max_value=160))
    base = baseline_params(n, n_t=draw(st.integers(min_value=2, max_value=6)))
    return base.replace(
        d_m=draw(st.floats(min_value=1.0, max_value=4.0)),
        d_cp=draw(st.floats(min_value=1.0, max_value=3.0)),
        d_c=draw(st.floats(min_value=1.0, max_value=2.0)),
        p_m=draw(st.floats(min_value=0.0, max_value=3.0)),
        p_cp_m=draw(st.floats(min_value=0.0, max_value=1.0)),
        p_cp_cp=draw(st.floats(min_value=0.0, max_value=0.5)),
        t_m=draw(st.floats(min_value=0.0, max_value=1.0)),
        t_cp=draw(st.floats(min_value=0.0, max_value=1.0)),
        t_c=draw(st.floats(min_value=0.0, max_value=1.0)),
        regions=draw(st.integers(min_value=1, max_value=4)),
    )


class TestGeneratorProperties:
    @given(params=small_params(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_generated_topologies_always_valid(self, params, seed):
        """Any parameter combination yields a structurally valid topology."""
        graph = generate_topology(params, seed=seed)
        assert len(graph) == params.n
        assert find_violations(graph) == []

    @given(params=small_params(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_relationships_are_mutually_consistent(self, params, seed):
        graph = generate_topology(params, seed=seed)
        for u in graph.node_ids:
            for v, rel in graph.neighbors(u).items():
                assert graph.relationship(v, u) is _FROM_THE_OTHER_END[rel]

    @given(
        scenario=st.sampled_from(sorted(scenario_names())),
        n=st.integers(min_value=60, max_value=150),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_scenario_generates_valid_graphs(self, scenario, n, seed):
        graph = generate_topology(scenario_params(scenario, n), seed=seed)
        assert find_violations(graph) == []

    @given(params=small_params(), seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_customer_tree_never_contains_ancestors(self, params, seed):
        graph = generate_topology(params, seed=seed)
        for node in graph.node_ids:
            tree = graph.customer_tree(node)
            assert node not in tree
            for provider in graph.providers_of(node):
                assert provider not in tree or graph.is_in_customer_tree(
                    ancestor=node, descendant=provider
                ) is False


class TestAttachmentProperties:
    @given(
        average=st.floats(min_value=0.0, max_value=10.0),
        minimum=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_draw_link_count_bounds(self, average, minimum, seed):
        rng = random.Random(seed)
        value = draw_link_count(average, rng, minimum=minimum)
        assert value >= (minimum if average > 0 or minimum > 0 else 0)
        # never more than twice the average (+1 for probabilistic rounding)
        assert value <= max(minimum, 2 * average) + 1

    @given(
        weights=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_preferential_choice_returns_candidate(self, weights, seed):
        candidates = list(range(len(weights)))
        rng = random.Random(seed)
        choice = preferential_choice(candidates, lambda c: weights[c], rng)
        assert choice in candidates


class TestGraphProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_edges_match_adjacency(self, seed):
        graph = generate_topology(baseline_params(100), seed=seed)
        edge_list = list(graph.edges())
        assert len(edge_list) == graph.edge_count()
        for u, v, rel in edge_list:
            assert graph.relationship(u, v) is rel
