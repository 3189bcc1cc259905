"""Tests for topology serialization (JSON and as-rel formats).

AS-relationship files are written by ``save_as_rel`` and read by the one
reader of such files, ``repro.measured.load_serial1``.
"""

import json
import tracemalloc

import pytest

from repro.errors import SerializationError
from repro.measured import load_serial1
from repro.topology import serialization
from repro.topology.evolve import evolve_topology
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.params import baseline_params
from repro.topology.scenarios import scenario_names, scenario_params
from repro.topology.serialization import (
    from_json_dict,
    load_json,
    save_as_rel,
    save_json,
    to_json_dict,
)
from repro.topology.types import NodeType, Relationship


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, diamond, tmp_path):
        path = tmp_path / "topo.json"
        save_json(diamond, path)
        loaded = load_json(path)
        assert loaded.scenario == diamond.scenario
        assert len(loaded) == len(diamond)
        assert list(loaded.edges()) == list(diamond.edges())
        for node_id in diamond.node_ids:
            assert loaded.node(node_id).node_type is diamond.node(node_id).node_type
            assert loaded.node(node_id).regions == diamond.node(node_id).regions

    def test_round_trip_generated(self, tmp_path):
        graph = generate_topology(baseline_params(200), seed=8)
        path = tmp_path / "gen.json"
        save_json(graph, path)
        loaded = load_json(path)
        assert list(loaded.edges()) == list(graph.edges())

    def test_dict_round_trip(self, diamond):
        rebuilt = from_json_dict(to_json_dict(diamond))
        assert list(rebuilt.edges()) == list(diamond.edges())

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_json(tmp_path / "nope.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_json(path)

    def test_wrong_version(self, diamond):
        data = to_json_dict(diamond)
        data["format_version"] = 999
        with pytest.raises(SerializationError, match="version"):
            from_json_dict(data)

    def test_unknown_link_kind(self, diamond):
        data = to_json_dict(diamond)
        data["links"][0]["kind"] = "sibling"
        with pytest.raises(SerializationError):
            from_json_dict(data)


def _reference_bytes(graph: ASGraph) -> str:
    """What ``json.dump(to_json_dict(graph), handle, indent=1)`` writes."""
    return json.dumps(to_json_dict(graph), indent=1)


def _saved(graph: ASGraph, tmp_path) -> str:
    path = tmp_path / "topology.json"
    save_json(graph, path)
    return path.read_text(encoding="utf-8")


def _chain_graph(nodes: int) -> ASGraph:
    """``nodes`` nodes in one peering chain: ``nodes`` node and adjacency
    records, ``nodes - 1`` link records."""
    graph = ASGraph(scenario="chain")
    for node_id in range(nodes):
        graph.add_node(node_id, NodeType.CP, [node_id % 3])
    for node_id in range(1, nodes):
        graph.add_peering_link(node_id - 1, node_id)
    return graph


class TestStreamedJsonWriter:
    """``save_json`` formats the document from the graph; its bytes are
    those of ``json.dump(to_json_dict(graph), indent=1)``."""

    @pytest.mark.parametrize("n", [10, 300, 1200])
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_bytes_equal_the_reference_for_every_scenario(self, scenario, n, tmp_path):
        for seed in (1, 2):
            graph = generate_topology(scenario_params(scenario, n), seed=seed)
            assert _saved(graph, tmp_path) == _reference_bytes(graph), (scenario, n, seed)

    def test_evolved_graph(self, tmp_path):
        graph = generate_topology(baseline_params(300), seed=7)
        evolve_topology(graph, baseline_params(500), seed=8)
        assert _saved(graph, tmp_path) == _reference_bytes(graph)

    def test_as_rel_loaded_graph(self, tmp_path):
        source = tmp_path / "source.as-rel"
        save_as_rel(generate_topology(baseline_params(400), seed=5), source)
        graph, _ = load_serial1(source)
        assert _saved(graph, tmp_path) == _reference_bytes(graph)

    def test_empty_graph(self, tmp_path):
        graph = ASGraph()
        text = _saved(graph, tmp_path)
        assert text == _reference_bytes(graph)
        assert '"nodes": [],' in text and '"adjacency": []\n}' in text

    def test_node_without_neighbours(self, diamond, tmp_path):
        diamond.add_node(9, NodeType.C, [0, 2])
        text = _saved(diamond, tmp_path)
        assert text == _reference_bytes(diamond)
        assert "   9,\n   []\n" in text
        assert list(load_json(tmp_path / "topology.json").neighbors(9)) == []

    def test_scenario_name_is_escaped(self, diamond, tmp_path):
        diamond.scenario = 'say "hi" \\ größe → 東京\n'
        assert _saved(diamond, tmp_path) == _reference_bytes(diamond)
        assert load_json(tmp_path / "topology.json").scenario == diamond.scenario

    @pytest.mark.parametrize(
        "offset", [-1, 0, 1, 2], ids=["chunk-1", "chunk", "chunk+1", "chunk+2"]
    )
    def test_record_counts_around_a_chunk_boundary(self, offset, tmp_path):
        for chunks in (1, 2):
            graph = _chain_graph(chunks * serialization._CHUNK + offset)
            assert _saved(graph, tmp_path) == _reference_bytes(graph)

    def test_document_is_never_held_whole(self, tmp_path):
        graph = generate_topology(baseline_params(5000), seed=3)
        path = tmp_path / "topology.json"
        tracemalloc.start()
        try:
            save_json(graph, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        # json.dump of the document dict peaked at ~3.5x the file's size.
        assert peak < size / 2, f"save_json peaked at {peak} B for a {size} B file"


class TestRoundTripProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=50, max_value=150),
    )
    @settings(max_examples=15, deadline=None)
    def test_json_round_trip_any_generated_graph(self, seed, n):
        graph = generate_topology(baseline_params(n), seed=seed)
        rebuilt = from_json_dict(to_json_dict(graph))
        assert list(rebuilt.edges()) == list(graph.edges())
        for node in graph.nodes():
            twin = rebuilt.node(node.node_id)
            assert twin.node_type is node.node_type
            assert twin.regions == node.regions

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_as_rel_round_trip_preserves_relationships(self, seed, tmp_path_factory):
        """A generated graph reads back with its ids and links, and every
        node gets the type its links show (no providers -> T, customers
        -> M, peering stub -> CP, otherwise C): an M node without
        customers or a CP node without peers cannot be told from the
        format, while every T and C node keeps its type."""
        graph = generate_topology(baseline_params(100), seed=seed)
        path = tmp_path_factory.mktemp("asrel") / "graph.as-rel"
        save_as_rel(graph, path)
        loaded, report = load_serial1(path)
        assert report.as_numbers == tuple(graph.node_ids)
        assert list(loaded.node_ids) == list(graph.node_ids)
        assert list(loaded.edges()) == list(graph.edges())
        for u, v, rel in graph.edges():
            assert loaded.relationship(u, v) is rel
        for node in graph.nodes():
            node_id = node.node_id
            if not graph.providers_of(node_id):
                shown = NodeType.T
            elif graph.customers_of(node_id):
                shown = NodeType.M
            elif graph.peers_of(node_id):
                shown = NodeType.CP
            else:
                shown = NodeType.C
            assert loaded.node(node_id).node_type is shown
            if node.node_type in (NodeType.T, NodeType.C):
                assert shown is node.node_type


class TestAsRel:
    def test_round_trip_structure(self, diamond, tmp_path):
        path = tmp_path / "topo.as-rel"
        save_as_rel(diamond, path)
        loaded, _ = load_serial1(path)
        assert len(loaded) == len(diamond)
        assert loaded.edge_count() == diamond.edge_count()
        # relationships survive even though node types are inferred
        assert loaded.relationship(4, 2) is Relationship.PROVIDER
        assert loaded.relationship(0, 1) is Relationship.PEER

    def test_type_inference(self, diamond, tmp_path):
        path = tmp_path / "topo.as-rel"
        save_as_rel(diamond, path)
        loaded, _ = load_serial1(path)
        assert loaded.node(0).node_type is NodeType.T
        assert loaded.node(2).node_type is NodeType.M
        assert loaded.node(4).node_type is NodeType.C

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "mini.as-rel"
        path.write_text("# header\n\n1|2|-1\n2|3|0\n", encoding="utf-8")
        loaded, report = load_serial1(path)
        assert len(loaded) == 3
        # ASes 1, 2, 3 are numbered densely: 0, 1, 2.
        assert report.as_numbers == (1, 2, 3)
        assert loaded.relationship(1, 0) is Relationship.PROVIDER
        assert loaded.relationship(1, 2) is Relationship.PEER

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("1|2\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="expected"):
            load_serial1(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("a|2|-1\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="non-integer"):
            load_serial1(path)

    def test_unknown_relationship_code(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("1|2|7\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="unknown relationship"):
            load_serial1(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_serial1(tmp_path / "nope.as-rel")
