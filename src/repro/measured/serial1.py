"""CAIDA serial-1 AS-relationship importer.

This is the one reader of AS-relationship files: every ``<a>|<b>|<rel>``
file the package reads — a CAIDA snapshot, a
``topology generate -o t.txt`` dump, plain or gzip'd, through
``topology import``, ``simulate``, ``workload``, ``analyze`` or any other
verb — is parsed here, so one file always reads as one graph.

The serial-1 format is line-oriented text: ``#``-prefixed comment
headers, then one edge per line — ``<provider>|<customer>|-1`` for a
transit (provider-to-customer) link and ``<peer>|<peer>|0`` for
settlement-free peering.  Files are frequently distributed compressed;
gzip is detected by suffix or magic bytes and handled transparently
(CAIDA's own ``.bz2`` archives are one ``bunzip2`` away — see
``examples/fetch_caida_snapshot.py``).

Measured data is messier than generated data, so the importer validates
before it builds:

* malformed lines (wrong field count, non-integer ASNs, unknown
  relationship codes) always raise :class:`MeasuredImportError` with the
  offending line number;
* self-loops, duplicate edges and *conflicting* edges (the same AS pair
  claimed with two different relationships, or as a two-node provider
  cycle) raise in strict mode and are dropped-and-counted in lenient
  mode (``strict=False``);
* edges that would violate the :class:`~repro.topology.graph.ASGraph`
  invariants the whole simulator relies on — provider loops, peering
  into one's own customer tree — are likewise rejected or dropped;
* a file left with no link (empty, comments only, or every line dropped
  by a lenient read) raises :class:`MeasuredImportError`: it is no graph;
* disconnected components are always detected and reported (the
  simulator happily runs a disconnected graph; the report makes sure
  nobody does so unknowingly).

AS numbers are renumbered to the dense ``0..n-1`` ids the simulator
requires, deterministically: dense id order is ascending original ASN,
and the full mapping is kept in the report (``as_numbers[i]`` is the
original ASN of dense node ``i``).  A file that
:func:`repro.topology.serialization.save_as_rel` wrote from a generated
graph (ids ``0..n-1``) therefore reads back with the same ids.  The
file keeps no node types: they are inferred structurally from the
*kept* edge set (no providers → T, customers → M, peering stub → CP,
otherwise C), so a generated graph's types need not survive a round
trip through as-rel text (JSON keeps them), and the graph is
named after the file's :func:`snapshot_label`, which drops the
compression suffix.
"""

from __future__ import annotations

import dataclasses
import gzip
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.errors import MeasuredImportError, TopologyError
from repro.obs.telemetry import current_telemetry
from repro.topology.graph import ASGraph
from repro.topology.serialization import SUFFIX_FORMATS
from repro.topology.types import NodeType

#: relationship code -> kind, per the serial-1 specification
_TRANSIT_CODE = -1
_PEER_CODE = 0

_GZIP_MAGIC = b"\x1f\x8b"


@dataclasses.dataclass(frozen=True)
class ImportReport:
    """Everything one serial-1 import saw, counted deterministically."""

    #: where the snapshot came from (path or ``"<text>"``)
    source: str
    #: total lines in the file, including comments and blanks
    lines: int
    #: ``#``-prefixed header/comment lines
    comment_lines: int
    #: well-formed edge lines (before any validation dropping)
    edges_parsed: int
    #: transit edges kept in the final graph
    transit_edges: int
    #: peering edges kept in the final graph
    peer_edges: int
    #: exact repeats of an already-seen edge (lenient mode: dropped)
    duplicate_edges: int
    #: same AS pair with a different relationship (lenient mode: first wins)
    conflicting_edges: int
    #: ``a|a|rel`` lines (lenient mode: dropped)
    self_loops: int
    #: edges dropped because they would break a graph invariant
    #: (provider loop / peering into own customer tree), with reasons
    invariant_drops: Tuple[str, ...]
    #: connected-component sizes, largest first
    components: Tuple[int, ...]
    #: original ASN of each dense node id (``as_numbers[i]`` <-> node ``i``)
    as_numbers: Tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        """Nodes in the imported graph."""
        return len(self.as_numbers)

    @property
    def edges_kept(self) -> int:
        """Edges that made it into the graph."""
        return self.transit_edges + self.peer_edges

    @property
    def edges_dropped(self) -> int:
        """Parsed edges rejected by validation (lenient mode only)."""
        return self.edges_parsed - self.edges_kept

    @property
    def connected(self) -> bool:
        """Whether the imported graph is one connected component."""
        return len(self.components) <= 1

    def to_dict(self) -> dict:
        """JSON-ready summary (the CLI's ``--report-json`` payload)."""
        return {
            "source": self.source,
            "lines": self.lines,
            "comment_lines": self.comment_lines,
            "edges_parsed": self.edges_parsed,
            "transit_edges": self.transit_edges,
            "peer_edges": self.peer_edges,
            "duplicate_edges": self.duplicate_edges,
            "conflicting_edges": self.conflicting_edges,
            "self_loops": self.self_loops,
            "invariant_drops": list(self.invariant_drops),
            "components": list(self.components),
            "num_nodes": self.num_nodes,
        }


def snapshot_label(path: Path) -> str:
    """A snapshot file's name without its AS-relationship suffixes.

    ``20040101.as-rel.txt.gz`` -> ``20040101``: the plain and the gzip'd
    copy of one snapshot share a label (and so a graph name).
    """
    name = path.name
    while (suffix := Path(name).suffix) in SUFFIX_FORMATS:
        name = name[: -len(suffix)]
    return name


def load_serial1(
    path: Union[str, Path], *, strict: bool = True
) -> Tuple[ASGraph, ImportReport]:
    """Load a serial-1 snapshot (optionally gzip'd) from ``path``."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise MeasuredImportError(f"cannot read snapshot {path}: {exc}") from exc
    if path.suffix == ".gz" or raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise MeasuredImportError(
                f"{path}: gzip decompression failed: {exc}"
            ) from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MeasuredImportError(f"{path}: not valid UTF-8 text: {exc}") from exc
    return parse_serial1_text(text, source=str(path), strict=strict)


def parse_serial1_text(
    text: str, *, source: str = "<text>", strict: bool = True
) -> Tuple[ASGraph, ImportReport]:
    """Parse serial-1 text into an :class:`ASGraph` plus its report.

    ``strict=True`` (the default) raises :class:`MeasuredImportError` on
    the first self-loop, duplicate, conflict or invariant violation;
    ``strict=False`` drops such edges and counts them in the report.
    Malformed lines raise in either mode.  Deterministic: the same text
    always yields the same graph (same dense ids, same neighbour
    iteration order) and the same report.
    """
    telemetry = current_telemetry()
    with telemetry.phase("measured-import"):
        graph, report = _parse(text, source=source, strict=strict)
    telemetry.inc("measured.edges_parsed", report.edges_parsed)
    telemetry.inc("measured.edges_kept", report.edges_kept)
    telemetry.inc("measured.imports")
    return graph, report


def _fail(source: str, line_number: int, message: str) -> None:
    raise MeasuredImportError(f"{source}:{line_number}: {message}")


def _parse(
    text: str, *, source: str, strict: bool
) -> Tuple[ASGraph, ImportReport]:
    lines = text.splitlines()
    comment_lines = 0
    edges_parsed = 0
    duplicates = 0
    conflicts = 0
    self_loops = 0
    #: unordered pair -> (relationship kind, provider when transit)
    seen: Dict[Tuple[int, int], Tuple[int, int]] = {}
    #: kept edges in file order: (line_number, provider_or_a, customer_or_b, code)
    kept: List[Tuple[int, int, int, int]] = []

    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment_lines += 1
            continue
        parts = line.split("|")
        if len(parts) != 3:
            _fail(
                source,
                line_number,
                f"expected '<a>|<b>|<rel>', got {raw_line!r}",
            )
        try:
            a, b, code = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            _fail(source, line_number, f"non-integer field in {raw_line!r}")
        if code not in (_TRANSIT_CODE, _PEER_CODE):
            _fail(
                source,
                line_number,
                f"unknown relationship code {code} (want -1 or 0)",
            )
        edges_parsed += 1
        if a == b:
            if strict:
                _fail(source, line_number, f"self-loop at AS {a}")
            self_loops += 1
            continue
        pair = (min(a, b), max(a, b))
        provider = a if code == _TRANSIT_CODE else -1
        previous = seen.get(pair)
        if previous is not None:
            if previous == (code, provider):
                if strict:
                    _fail(
                        source,
                        line_number,
                        f"duplicate edge {a}|{b}|{code}",
                    )
                duplicates += 1
            else:
                if strict:
                    _fail(
                        source,
                        line_number,
                        f"conflicting relationship for AS pair {pair[0]}--"
                        f"{pair[1]}: {a}|{b}|{code} vs an earlier line",
                    )
                conflicts += 1  # lenient: the first claim wins
            continue
        seen[pair] = (code, provider)
        kept.append((line_number, a, b, code))

    # Deterministic dense renumbering: ascending original ASN.
    as_numbers = tuple(sorted({asn for _, a, b, _ in kept for asn in (a, b)}))
    dense = {asn: index for index, asn in enumerate(as_numbers)}

    # Each node is added once; the graph's own invariant checks (provider
    # loops, peering into one's own customer tree) then decide which
    # edges survive.  Links read no node type, so the types are inferred
    # afterwards from the surviving links of this same graph.
    graph = ASGraph(scenario=f"measured:{snapshot_label(Path(source))}")
    for node_id in range(len(as_numbers)):
        graph.add_node(node_id, NodeType.C, [0])
    transit_edges = 0
    peer_edges = 0
    invariant_drops: List[str] = []
    for line_number, a, b, code in kept:
        u, v = dense[a], dense[b]
        try:
            if code == _TRANSIT_CODE:
                graph.add_transit_link(customer=v, provider=u)
                transit_edges += 1
            else:
                graph.add_peering_link(u, v)
                peer_edges += 1
        except TopologyError as exc:
            reason = (
                f"{source}:{line_number}: edge {a}|{b}|{code} rejected: {exc}"
            )
            if strict:
                raise MeasuredImportError(reason) from exc
            invariant_drops.append(reason)
    if not transit_edges + peer_edges:
        raise MeasuredImportError(f"{source} holds no AS links")

    # Structural type inference over the kept edges: no providers -> T,
    # customers -> M, peering stub -> CP, otherwise C.
    for node_id in range(len(as_numbers)):
        if not graph.multihoming_degree(node_id):
            graph.set_node_type(node_id, NodeType.T)
        elif graph.customers_of(node_id):
            graph.set_node_type(node_id, NodeType.M)
        elif graph.peering_degree(node_id):
            graph.set_node_type(node_id, NodeType.CP)

    report = ImportReport(
        source=source,
        lines=len(lines),
        comment_lines=comment_lines,
        edges_parsed=edges_parsed,
        transit_edges=transit_edges,
        peer_edges=peer_edges,
        duplicate_edges=duplicates,
        conflicting_edges=conflicts,
        self_loops=self_loops,
        invariant_drops=tuple(invariant_drops),
        components=component_sizes(graph),
        as_numbers=as_numbers,
    )
    return graph, report


def component_sizes(graph: ASGraph) -> Tuple[int, ...]:
    """Connected-component sizes of ``graph``, largest first.

    Ties broken by smallest member id, so the result is deterministic.
    """
    unvisited = set(graph.node_ids)
    sizes: List[Tuple[int, int]] = []  # (size, smallest member)
    for start in graph.node_ids:
        if start not in unvisited:
            continue
        size = 0
        stack = [start]
        unvisited.discard(start)
        while stack:
            current = stack.pop()
            size += 1
            for neighbor in graph.adjacency_order(current):
                if neighbor in unvisited:
                    unvisited.discard(neighbor)
                    stack.append(neighbor)
        sizes.append((size, start))
    sizes.sort(key=lambda item: (-item[0], item[1]))
    return tuple(size for size, _ in sizes)
