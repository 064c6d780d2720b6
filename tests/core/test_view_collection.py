"""ViewCollectionDefinition materialization and MaterializedCollection."""

import numpy as np
import pytest

from repro.core.ebm import EdgeBooleanMatrix, build_ebm
from repro.core.view_collection import (
    ViewCollectionDefinition,
    collection_from_diffs,
)
from repro.errors import ConfigError, GraphsurgeError
from repro.gvdl.parser import parse


def year_views(*bounds):
    views = []
    for bound in bounds:
        predicate = parse(
            f"create view v on g edges where year <= {bound}").predicate
        views.append((f"y{bound}", predicate))
    return tuple(views)


class TestMaterialization:
    def test_pipeline_identity_order(self, call_graph):
        definition = ViewCollectionDefinition(
            "hist", "Calls", year_views(2013, 2017, 2019))
        collection = definition.materialize(call_graph)
        assert collection.view_names == ["y2013", "y2017", "y2019"]
        assert collection.view_sizes[-1] == 15
        assert collection.diff_sizes[0] == collection.view_sizes[0]
        assert collection.creation_seconds >= 0
        assert collection.ordering is None

    def test_pipeline_with_ordering(self, call_graph):
        definition = ViewCollectionDefinition(
            "hist", "Calls", year_views(2019, 2013, 2017))
        collection = definition.materialize(call_graph,
                                            order_method="christofides")
        assert collection.ordering is not None
        # The optimizer recovers the inclusion chain (either direction).
        sizes = collection.view_sizes
        assert sizes == sorted(sizes) or sizes == sorted(sizes, reverse=True)
        assert collection.total_diffs <= 15 + 2  # near-minimal for a chain

    def test_weight_property_flows_to_edges(self, call_graph):
        definition = ViewCollectionDefinition(
            "hist", "Calls", year_views(2019))
        collection = definition.materialize(call_graph,
                                            weight_property="duration")
        weights = {w for (_e, _s, _d, w) in collection.diffs[0]}
        assert 34 in weights

    def test_input_diff_for_view(self, call_graph):
        definition = ViewCollectionDefinition(
            "hist", "Calls", year_views(2013, 2019))
        collection = definition.materialize(call_graph)
        diff = collection.input_diff_for_view(0)
        assert all(mult == 1 for mult in diff.values())
        undirected = collection.input_diff_for_view(0, directed=False)
        assert len(undirected) >= len(diff)


class TestDuplicateViewNames:
    def test_definition_rejects_repeated_name(self):
        views = year_views(2013, 2017) + year_views(2013)
        with pytest.raises(ConfigError,
                           match="collection 'hist' declares view 'y2013'"):
            ViewCollectionDefinition("hist", "Calls", views)

    def test_window_builder_rejects_repeated_bound(self):
        from repro.core.windows import cumulative_windows

        with pytest.raises(ConfigError, match="'lt-2015' more than once"):
            cumulative_windows("hist", "Calls", "year", [2013, 2015, 2015])

    def test_execute_rejects_before_creating_anything(self, call_graph):
        from repro import Graphsurge
        from repro.errors import GvdlSyntaxError

        gs = Graphsurge()
        gs.graphs.add(call_graph, "Calls")
        with pytest.raises(GvdlSyntaxError, match="view 'a' more than once"):
            gs.execute("create view early on Calls edges where year = 2019; "
                       "create view collection c on Calls "
                       "[a: duration <= 1], [a: duration <= 2]")
        assert not gs.views.has_view("early")


class TestZeroViews:
    """The parser and the window builders refuse a collection without
    views; the definition died in numpy (``index 0 is out of bounds for
    axis 1 with size 0``) at ``materialize``."""

    def test_definition_rejects_no_views(self):
        with pytest.raises(ConfigError,
                           match="collection 'hist' declares no views"):
            ViewCollectionDefinition("hist", "Calls", ())

    def test_diff_stream_of_a_zero_view_ebm_is_empty(self):
        from repro.core.diff_stream import compute_diff_stream
        from repro.timely.meter import WorkMeter

        ebm = EdgeBooleanMatrix([(0, 0, 1, 1), (1, 1, 2, 1)], [],
                                np.zeros((2, 0), dtype=bool))
        assert (len(ebm.edges), ebm.num_views) == (2, 0)
        meter = WorkMeter(2)
        assert compute_diff_stream(ebm, meter=meter) == []
        assert meter.snapshot() == WorkMeter(2).snapshot()


class TestCreationErrorsAreTyped:
    """The serve ladder maps ``GraphsurgeError`` to a payload with a
    ``code``; a bare ``ValueError`` from creation became a 500."""

    @pytest.mark.parametrize("site", [
        lambda graph: build_ebm(graph, ["a"], []),
        lambda graph: EdgeBooleanMatrix([(0, 0, 1, 1)], ["a", "b"],
                                        np.zeros((1, 1), dtype=bool)),
        lambda graph: EdgeBooleanMatrix(
            [(0, 0, 1, 1)], ["a", "b"],
            np.array([[True, False]])).reorder([0, 0]),
    ], ids=["build_ebm", "init", "reorder"])
    def test_creation_site_raises_config_error(self, call_graph, site):
        with pytest.raises(ValueError) as caught:
            site(call_graph)
        assert isinstance(caught.value, GraphsurgeError)
        assert caught.value.to_payload()["error"] == "invalid-config"


class TestCollectionFromDiffs:
    def test_basic(self):
        edge = (0, 1, 2, 1)
        collection = collection_from_diffs(
            "c", [{edge: 1}, {edge: -1}], view_names=["on", "off"])
        assert collection.view_sizes == [1, 0]
        assert collection.diff_sizes == [1, 1]
        assert collection.total_diffs == 2
        assert collection.full_view_edges(1) == {}

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="one name per"):
            collection_from_diffs("c", [{}], view_names=["a", "b"])

    def test_default_names(self):
        collection = collection_from_diffs("c", [{}, {}])
        assert collection.view_names == ["view-0", "view-1"]
