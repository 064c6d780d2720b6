"""The Graphsurge facade: GVDL execution end to end."""

import pytest

from repro import ExecutionMode, Graphsurge
from repro.algorithms import Wcc
from repro.core.resilience import RetryPolicy
from repro.errors import (
    ConfigError,
    StoreError,
    UnknownGraphError,
    UnknownPropertyError,
)


@pytest.fixture
def session(call_graph):
    gs = Graphsurge()
    gs.add_graph(call_graph)
    return gs


class TestGraphManagement:
    def test_load_graph_from_csv(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id,city:str\n1,LA\n2,NY\n")
        (tmp_path / "edges.csv").write_text("src,dst,d:int\n1,2,5\n")
        gs = Graphsurge()
        graph = gs.load_graph("g", tmp_path / "nodes.csv",
                              tmp_path / "edges.csv")
        assert graph.num_edges == 1
        assert gs.resolve("g") is graph

    def test_resolve_unknown(self, session):
        with pytest.raises(UnknownGraphError):
            session.resolve("nope")

    def test_duplicate_graph_rejected(self, session, call_graph):
        with pytest.raises(StoreError):
            session.add_graph(call_graph)


class TestGvdlExecution:
    def test_filtered_view_listing_1_style(self, session):
        created = session.execute(
            "create view LA-Long on Calls edges where "
            "src.city = 'LA' and dst.city = 'LA' and duration > 10")
        assert created == ["LA-Long"]
        view = session.views.get_view("LA-Long")
        assert view.num_edges == 3  # (2->1,19), (2->6,13), (6->3,12)

    def test_view_over_view(self, session):
        session.execute(
            "create view recent on Calls edges where year >= 2018")
        session.execute(
            "create view recent-long on recent edges where duration > 15")
        inner = session.views.get_view("recent-long")
        assert all(e.properties["duration"] > 15
                   and e.properties["year"] >= 2018 for e in inner.edges)

    def test_collection_materialization(self, session):
        session.execute(
            "create view collection hist on Calls "
            "[y2015: year <= 2015], [y2017: year <= 2017], "
            "[y2019: year <= 2019]")
        collection = session.views.get_collection("hist")
        assert collection.num_views == 3
        assert collection.view_sizes[-1] == 15
        # Inclusion chain: monotone sizes and addition-only diffs.
        assert collection.view_sizes == sorted(collection.view_sizes)
        for diff in collection.diffs:
            assert all(mult == 1 for mult in diff.values())

    def test_aggregate_view_via_gvdl(self, session):
        session.execute(
            "create view cities on Calls nodes group by city "
            "aggregate n: count(*)")
        view = session.views.get_view("cities")
        assert {n.properties["n"] for n in view.nodes.values()} == {5, 3}

    def test_multi_statement_program(self, session):
        created = session.execute(
            "create view a on Calls edges where year = 2019; "
            "create view b on a edges where duration > 10")
        assert created == ["a", "b"]

    def test_unknown_source_graph(self, session):
        with pytest.raises(UnknownGraphError):
            session.execute("create view v on Missing edges where x = 1")


class TestAnalytics:
    def test_run_on_base_graph(self, session):
        result = session.run_analytics(Wcc(), "Calls")
        components = result.vertex_map()
        assert len(components) == 8
        # The call graph is weakly connected through node 5->2 etc.
        assert len(set(components.values())) == 1

    def test_run_on_filtered_view(self, session):
        session.execute("create view y2019 on Calls edges where year = 2019")
        result = session.run_analytics(Wcc(), "y2019")
        assert set(result.vertex_map()) == {1, 2, 4, 5, 6, 7, 8}

    @pytest.mark.parametrize("target", ["Calls", "y2019"])
    @pytest.mark.parametrize("option", [
        "checkpoint_path", "resume_from", "retry_policy"])
    def test_collection_options_are_refused_on_a_graph_or_view(
            self, session, tmp_path, target, option):
        session.execute("create view y2019 on Calls edges where year = 2019")
        checkpoint = tmp_path / "ck.jsonl"
        value = RetryPolicy(max_retries=2) if option == "retry_policy" \
            else checkpoint
        with pytest.raises(ConfigError, match=f"{option}.*'{target}'"):
            session.run_analytics(Wcc(), target, **{option: value})
        assert not checkpoint.exists()

    @pytest.mark.parametrize("target", ["Calls", "y2019"])
    @pytest.mark.parametrize("option, value", [
        ("mode", ExecutionMode.SCRATCH), ("batch_size", 3),
        ("cost_metric", "work")])
    def test_run_options_are_refused_on_a_graph_or_view(
            self, session, target, option, value):
        session.execute("create view y2019 on Calls edges where year = 2019")
        with pytest.raises(ConfigError, match=f"{option}.*'{target}'"):
            session.run_analytics(Wcc(), target, **{option: value})

    @pytest.mark.parametrize("option, value", [
        ("mode", ExecutionMode.SCRATCH), ("batch_size", 3)])
    def test_profile_refuses_run_options_on_a_graph(self, session, option,
                                                    value):
        with pytest.raises(ConfigError, match=f"{option}.*'Calls'"):
            session.profile(Wcc(), "Calls", **{option: value})

    def test_run_options_default_to_the_collection_table(self, session):
        session.execute("create view collection hist on Calls "
                        "[a: year <= 2015], [b: year <= 2019]")
        result = session.run_analytics(Wcc(), "hist")
        assert result.mode is ExecutionMode.ADAPTIVE
        # A view result always carries its output.
        assert session.run_analytics(Wcc(), "Calls").output

    def test_unknown_weight_property_is_refused(self, call_graph):
        gs = Graphsurge(weight_property="nosuch")
        gs.add_graph(call_graph)
        gs.execute("create view y2019 on Calls edges where year = 2019")
        with pytest.raises(UnknownPropertyError, match="nosuch"):
            gs.run_analytics(Wcc(), "y2019")
        with pytest.raises(UnknownPropertyError, match="nosuch"):
            gs.execute("create view collection hist on Calls "
                       "[a: year <= 2015], [b: year <= 2019]")

    def test_run_on_collection_all_modes(self, session):
        session.execute(
            "create view collection hist on Calls "
            "[y2015: year <= 2015], [y2017: year <= 2017], "
            "[y2019: year <= 2019]")
        for mode in ExecutionMode:
            result = session.run_analytics(
                Wcc(), "hist", mode=mode, keep_outputs=True)
            assert len(result.views) == 3
            final = result.views[-1].vertex_map()
            assert len(final) == 8

    def test_collection_ordering_enabled_session(self, call_graph):
        gs = Graphsurge(order_collections="christofides")
        gs.add_graph(call_graph)
        gs.execute(
            "create view collection mixed on Calls "
            "[a: year <= 2015], [b: year <= 2019], [c: year <= 2013], "
            "[d: year <= 2017]")
        collection = gs.views.get_collection("mixed")
        assert collection.ordering is not None
        # Inclusion-chain views must come out chain-ordered.
        sizes = collection.view_sizes
        assert sizes == sorted(sizes) or sizes == sorted(sizes, reverse=True)
