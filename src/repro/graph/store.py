"""Graph and view stores (the Storage Manager of Figure 4).

``GraphStore`` holds named base graphs; ``ViewStore`` holds materialized
filtered/aggregate views and view collections, all in memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.errors import StoreError, UnknownGraphError
from repro.graph.property_graph import PropertyGraph


class GraphStore:
    """Named base graphs."""

    def __init__(self) -> None:
        self._graphs: Dict[str, PropertyGraph] = {}

    def add(self, graph: PropertyGraph, name: Optional[str] = None) -> None:
        key = name or graph.name
        if key in self._graphs:
            raise StoreError(f"graph {key!r} already exists in the store")
        self._graphs[key] = graph

    def get(self, name: str) -> PropertyGraph:
        graph = self._graphs.get(name)
        if graph is None:
            raise UnknownGraphError(f"unknown graph {name!r}")
        return graph

    def __contains__(self, name: str) -> bool:
        return name in self._graphs

    def names(self) -> Iterator[str]:
        return iter(self._graphs)


class ViewStore:
    """Materialized views and view collections, addressable by name.

    Filtered and aggregate views are stored as :class:`PropertyGraph`
    objects (so views can be queried again — views over views); collections
    are stored by the core layer as
    :class:`repro.core.view_collection.MaterializedCollection`.
    """

    def __init__(self) -> None:
        self._views: Dict[str, PropertyGraph] = {}
        self._collections: Dict[str, object] = {}

    def add_view(self, name: str, view: PropertyGraph) -> None:
        if name in self._views or name in self._collections:
            raise StoreError(f"view {name!r} already exists")
        self._views[name] = view

    def add_collection(self, name: str, collection: object) -> None:
        if name in self._views or name in self._collections:
            raise StoreError(f"collection {name!r} already exists")
        self._collections[name] = collection

    def get_view(self, name: str) -> PropertyGraph:
        view = self._views.get(name)
        if view is None:
            raise UnknownGraphError(f"unknown view {name!r}")
        return view

    def get_collection(self, name: str):
        collection = self._collections.get(name)
        if collection is None:
            raise UnknownGraphError(f"unknown view collection {name!r}")
        return collection

    def has_view(self, name: str) -> bool:
        return name in self._views

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def view_names(self) -> Iterator[str]:
        return iter(self._views)

    def collection_names(self) -> Iterator[str]:
        return iter(self._collections)
