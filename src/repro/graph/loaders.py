"""Loaders for common public graph-file formats.

The paper's datasets ship in SNAP formats; these loaders let users run
this system on the real files when they have them:

* :func:`load_snap_edge_list` — whitespace-separated ``src dst [extra...]``
  lines with ``#`` comments (e.g. ``com-lj.ungraph.txt``).
* :func:`load_snap_temporal` — ``src dst unix_ts`` lines (e.g.
  ``sx-stackoverflow.txt``); the timestamp lands in the edge property
  ``ts``.
* :func:`load_communities` — one community per line, members whitespace
  separated (the SNAP ``*.all.cmty.txt`` format); memberships become the
  boolean node properties ``c<i>`` used by the perturbation workloads.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.errors import SchemaError
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema

PathLike = Union[str, Path]


def _data_lines(path: PathLike):
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            yield line_no, line.split()


def load_snap_edge_list(path: PathLike) -> PropertyGraph:
    """Load a SNAP-style edge list (``src dst`` per line) as a directed
    graph named after the file's stem."""
    graph = PropertyGraph(Path(path).stem)
    known = set()
    for line_no, fields in _data_lines(path):
        if len(fields) < 2:
            raise SchemaError(f"{path}:{line_no}: expected 'src dst'")
        src, dst = int(fields[0]), int(fields[1])
        for node in (src, dst):
            if node not in known:
                known.add(node)
                graph.add_node(node)
        graph.add_edge(src, dst)
    return graph


def load_snap_temporal(path: PathLike) -> PropertyGraph:
    """Load a SNAP temporal edge list (``src dst unix_ts`` per line) as a
    graph named after the file's stem."""
    graph = PropertyGraph(Path(path).stem,
                          edge_schema=Schema({"ts": PropertyType.INT}))
    known = set()
    for line_no, fields in _data_lines(path):
        if len(fields) < 3:
            raise SchemaError(f"{path}:{line_no}: expected 'src dst ts'")
        src, dst, ts = int(fields[0]), int(fields[1]), int(fields[2])
        for node in (src, dst):
            if node not in known:
                known.add(node)
                graph.add_node(node)
        graph.add_edge(src, dst, {"ts": ts})
    return graph


def load_communities(graph: PropertyGraph, path: PathLike) -> int:
    """Attach SNAP ground-truth communities as boolean node properties.

    Returns the number of communities loaded. Nodes absent from the graph
    are ignored; all nodes get an explicit True/False for every loaded
    community, and the node schema is extended accordingly.
    """
    communities = [[int(field) for field in fields]
                   for _line_no, fields in _data_lines(path)]
    for index, members in enumerate(communities):
        prop = f"c{index}"
        graph.node_schema.fields[prop] = PropertyType.BOOL
        member_set = set(members)
        for node in graph.nodes.values():
            node.properties[prop] = node.id in member_set
    return len(communities)
