"""Saving and loading topologies.

Two formats are supported:

* a JSON document (lossless: node types, regions, relationships, scenario
  name) — the library's native interchange format.  :func:`to_json_dict`
  defines it; :func:`save_json` writes the bytes the standard library's
  encoder gives that dict at ``indent=1``, but formats them straight
  from the graph, a few hundred records per write, so neither the
  document dict nor the whole string is ever built;
* a CAIDA-style ``as-rel`` text format (``<a>|<b>|<rel>`` with ``-1`` for
  provider→customer and ``0`` for peer) — convenient for feeding real
  inferred topologies into the simulator.  :func:`save_as_rel` writes
  it; every AS-relationship file, plain or gzip'd, is read by the one
  validating reader, :func:`repro.measured.serial1.load_serial1`, which
  infers node types structurally and numbers nodes densely.

:data:`SUFFIX_FORMATS` maps a file's suffix to its format, for writers
and readers alike.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Callable, Iterator, List, Union

from repro.errors import SerializationError, TopologyError
from repro.files import atomic_writer
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType, Relationship

_FORMAT_VERSION = 1

#: File suffix -> topology format, for writing and reading alike; any
#: other suffix is JSON.  Both formats here are AS-relationship text;
#: ``serial-1`` (CAIDA's, gzip'd) is read-only.
SUFFIX_FORMATS = {
    ".as-rel": "as-rel",
    ".asrel": "as-rel",
    ".txt": "as-rel",
    ".gz": "serial-1",
}


def to_json_dict(graph: ASGraph) -> dict:
    """Lossless dict representation of a topology."""
    return {
        "format_version": _FORMAT_VERSION,
        "scenario": graph.scenario,
        "nodes": [
            {
                "id": node.node_id,
                "type": node.node_type.value,
                "regions": sorted(node.regions),
            }
            for node in graph.nodes()
        ],
        "links": [
            {
                "a": u,
                "b": v,
                "kind": "peer" if rel is Relationship.PEER else "transit",
            }
            for u, v, rel in graph.edges()
        ],
        # Per-node neighbour iteration order.  ``links`` is canonical
        # (sorted) and loses the insertion order the simulator's export
        # loops — and therefore the event FIFO sequence — depend on;
        # recording it makes a loaded graph simulation-identical to the
        # saved one.
        "adjacency": [
            [node.node_id, graph.adjacency_order(node.node_id)]
            for node in graph.nodes()
        ],
    }


def from_json_dict(data: dict) -> ASGraph:
    """Rebuild a topology from :func:`to_json_dict` output."""
    try:
        version = data["format_version"]
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported format version {version}")
        graph = ASGraph(scenario=data.get("scenario", "UNNAMED"))
        for node in data["nodes"]:
            graph.add_node(node["id"], NodeType(node["type"]), node["regions"])
        for link in data["links"]:
            if link["kind"] == "peer":
                graph.add_peering_link(link["a"], link["b"])
            elif link["kind"] == "transit":
                # edges() yields transit links customer-first.
                graph.add_transit_link(link["a"], link["b"])
            else:
                raise SerializationError(f"unknown link kind {link['kind']!r}")
        # Documents written before the ``adjacency`` field keep the
        # canonical link order imposed above (structurally identical,
        # possibly different event sequencing than the original run).
        order = data.get("adjacency")
        if order is not None:
            graph.apply_adjacency_order(
                {
                    int(node_id): [int(neighbor) for neighbor in neighbors]
                    for node_id, neighbors in order
                }
            )
    except (KeyError, TypeError, ValueError, TopologyError) as exc:
        raise SerializationError(f"malformed topology document: {exc}") from exc
    return graph


#: Records formatted per ``write`` call by :func:`save_json`.
_CHUNK = 256

#: One item of each top-level list, laid out as at ``indent=1`` (items
#: sit at depth 2).  Node types and link kinds are plain identifiers, so
#: they go in unescaped.
_NODE = '  {\n   "id": %d,\n   "type": "%s",\n   "regions": %s\n  }'
_LINK = '  {\n   "a": %d,\n   "b": %d,\n   "kind": "%s"\n  }'
_ADJACENCY = "  [\n   %d,\n   %s\n  ]"


def _int_list(values: List[int], indent: str) -> str:
    """``values`` laid out as ``json`` does at ``indent=1`` for a list of
    ints whose opening bracket sits on a line indented by ``indent``."""
    if not values:
        return "[]"
    pad = "\n " + indent
    return "[" + pad + ("," + pad).join(map(str, values)) + "\n" + indent + "]"


def _write_list(write: Callable[[str], object], records: Iterator[str]) -> None:
    """Write a top-level list value whose items are formatted ``records``,
    ``_CHUNK`` of them per ``write``."""
    write("[")
    separator = "\n"
    while chunk := list(itertools.islice(records, _CHUNK)):
        write(separator + ",\n".join(chunk))
        separator = ",\n"
    write("]" if separator == "\n" else "\n ]")


def save_json(graph: ASGraph, path: Union[str, Path]) -> None:
    """Write the topology to ``path`` as JSON, replaced atomically.

    The bytes are those ``json`` writes for :func:`to_json_dict` at
    ``indent=1``: nodes in id order, links from :meth:`ASGraph.edges`,
    adjacency from :meth:`ASGraph.adjacency_order`.  Each record is
    formatted from the graph by a template and written in chunks of
    ``_CHUNK``, so the file is streamed and the document never held.
    """
    with atomic_writer(path) as handle:
        write = handle.write
        write(
            '{\n "format_version": %d,\n "scenario": %s,\n "nodes": '
            % (_FORMAT_VERSION, json.dumps(graph.scenario))
        )
        _write_list(
            write,
            (
                _NODE
                % (
                    node.node_id,
                    node.node_type.value,
                    _int_list(sorted(node.regions), "   "),
                )
                for node in graph.nodes()
            ),
        )
        write(',\n "links": ')
        _write_list(
            write,
            (
                _LINK % (u, v, "peer" if rel is Relationship.PEER else "transit")
                for u, v, rel in graph.edges()
            ),
        )
        write(',\n "adjacency": ')
        _write_list(
            write,
            (
                _ADJACENCY
                % (node_id, _int_list(graph.adjacency_order(node_id), "   "))
                for node_id in graph.node_ids
            ),
        )
        write("\n}")


def load_json(path: Union[str, Path]) -> ASGraph:
    """Load a topology previously written by :func:`save_json`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read topology from {path}: {exc}") from exc
    return from_json_dict(data)


def save_as_rel(graph: ASGraph, path: Union[str, Path]) -> None:
    """Write the topology in CAIDA as-rel format.

    Regions are lost; node types are inferred again when the file is read.
    """
    with atomic_writer(path) as handle:
        handle.write("# generated by repro; <provider>|<customer>|-1 or <peer>|<peer>|0\n")
        for u, v, rel in graph.edges():
            if rel is Relationship.PEER:
                handle.write(f"{u}|{v}|0\n")
            else:
                # edges() yields (customer, provider) for transit links.
                handle.write(f"{v}|{u}|-1\n")
