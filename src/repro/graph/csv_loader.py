"""CSV import for base graphs (paper §3).

Format:

* nodes file — header ``id,<prop>:<type>,...``; one row per node.
* edges file — header ``src,dst,<prop>:<type>,...``; one row per edge.

Types are ``str`` (default), ``int``, ``bool``. Example::

    id,city:str,profession:str
    1,LA,Engineer

    src,dst,duration:int,year:int
    1,3,7,2018
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from repro.errors import SchemaError
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import Schema

PathLike = Union[str, Path]


def load_nodes_csv(graph: PropertyGraph, path: PathLike) -> None:
    """Read a nodes CSV into an (empty-node) graph, setting its schema."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"empty nodes file {path}") from None
        if not header or header[0].split(":")[0].strip() != "id":
            raise SchemaError(
                f"nodes file {path} must start with an 'id' column")
        schema = Schema.from_header(header[1:])
        graph.node_schema = schema
        prop_names = list(schema.fields)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{line_no}: expected {len(header)} columns, "
                    f"got {len(row)}")
            node_id = int(row[0])
            props = dict(zip(prop_names, row[1:]))
            graph.add_node(node_id, props)


def load_edges_csv(graph: PropertyGraph, path: PathLike) -> None:
    """Read an edges CSV into a graph whose nodes are already loaded."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"empty edges file {path}") from None
        first_two = [c.split(":")[0].strip() for c in header[:2]]
        if first_two != ["src", "dst"]:
            raise SchemaError(
                f"edges file {path} must start with 'src,dst' columns")
        schema = Schema.from_header(header[2:])
        graph.edge_schema = schema
        prop_names = list(schema.fields)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{line_no}: expected {len(header)} columns, "
                    f"got {len(row)}")
            props = dict(zip(prop_names, row[2:]))
            graph.add_edge(int(row[0]), int(row[1]), props)


def load_graph_csv(name: str, nodes_path: PathLike,
                   edges_path: PathLike) -> PropertyGraph:
    """Load a complete property graph from a nodes file and an edges file."""
    graph = PropertyGraph(name)
    load_nodes_csv(graph, nodes_path)
    load_edges_csv(graph, edges_path)
    return graph
