"""The property graph: nodes and directed edges with key-value properties.

Nodes and edges carry arbitrary typed properties; upon loading, every node
and edge receives a unique 64-bit id (paper §3). Edge tuples keep direct
references to their endpoint property dicts — the in-memory analogue of the
paper's ``(sID, sPtr, dID, dPtr, key1, val1, ...)`` stream layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import SchemaError, UnknownPropertyError
from repro.graph.schema import Schema


@dataclass
class Node:
    """A vertex with a 64-bit id and a property dict."""

    id: int
    properties: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Edge:
    """A directed edge with its own id, endpoints, and properties."""

    id: int
    src: int
    dst: int
    properties: Dict[str, Any] = field(default_factory=dict)


class PropertyGraph:
    """A static directed property graph.

    Node ids are chosen by the caller (e.g. the CSV's id column); edge ids
    are assigned sequentially on insertion.
    """

    def __init__(self, name: str = "graph",
                 node_schema: Optional[Schema] = None,
                 edge_schema: Optional[Schema] = None):
        self.name = name
        self.node_schema = node_schema or Schema()
        self.edge_schema = edge_schema or Schema()
        self.nodes: Dict[int, Node] = {}
        self.edges: List[Edge] = []
        self._next_edge_id = 0

    # -- construction ---------------------------------------------------------

    def add_node(self, node_id: int, properties: Optional[Mapping[str, Any]] = None) -> Node:
        if node_id in self.nodes:
            raise SchemaError(f"duplicate node id {node_id}")
        props = dict(properties or {})
        if len(self.node_schema):
            props = self.node_schema.coerce_row(props)
        node = Node(node_id, props)
        self.nodes[node_id] = node
        return node

    def add_edge(self, src: int, dst: int,
                 properties: Optional[Mapping[str, Any]] = None) -> Edge:
        if src not in self.nodes:
            raise SchemaError(f"edge references unknown source node {src}")
        if dst not in self.nodes:
            raise SchemaError(f"edge references unknown destination node {dst}")
        props = dict(properties or {})
        if len(self.edge_schema):
            props = self.edge_schema.coerce_row(props)
        edge = Edge(self._next_edge_id, src, dst, props)
        self._next_edge_id += 1
        self.edges.append(edge)
        return edge

    def remove_edges(self, src: int, dst: int) -> int:
        """Retract every edge matching ``(src, dst)``; returns how many
        fell.

        Edge ids are never reused after a removal (``add_edge`` draws from
        a monotonic counter), so difference streams keyed by edge id stay
        unambiguous across mutations.
        """
        kept = [edge for edge in self.edges
                if edge.src != src or edge.dst != dst]
        removed = len(self.edges) - len(kept)
        self.edges = kept
        return removed

    def snapshot(self) -> Tuple[Dict[int, Node], List[Edge], int]:
        """What :meth:`restore` needs to undo later node/edge changes."""
        return dict(self.nodes), list(self.edges), self._next_edge_id

    def restore(self, snapshot: Tuple[Dict[int, Node], List[Edge], int]
                ) -> None:
        """Roll back to a :meth:`snapshot`, edge-id counter included."""
        nodes, edges, self._next_edge_id = snapshot
        self.nodes, self.edges = dict(nodes), list(edges)

    # -- inspection -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def node_property(self, node_id: int, name: str) -> Any:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownPropertyError(f"unknown node id {node_id}")
        if name not in node.properties:
            raise UnknownPropertyError(
                f"node {node_id} has no property {name!r}")
        return node.properties[name]

    # -- views ------------------------------------------------------------------

    def filter_edges(self, predicate: Callable[[Edge, Dict[str, Any], Dict[str, Any]], bool],
                     name: str = "view") -> "PropertyGraph":
        """Materialize a filtered view: keep edges passing the predicate.

        ``predicate(edge, src_props, dst_props)``. Nodes are kept as-is
        (filtered views in GVDL are edge-filtered; paper §3.1).
        """
        view = PropertyGraph(name, self.node_schema, self.edge_schema)
        for node in self.nodes.values():
            view.add_node(node.id, node.properties)
        for edge in self.edges:
            src_props = self.nodes[edge.src].properties
            dst_props = self.nodes[edge.dst].properties
            if predicate(edge, src_props, dst_props):
                view.add_edge(edge.src, edge.dst, edge.properties)
        return view

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PropertyGraph({self.name!r}, |V|={self.num_nodes}, "
                f"|E|={self.num_edges})")
