"""Session persistence and experiment reporting."""

import pytest

from repro import ExecutionMode, Graphsurge
from repro.algorithms import Wcc
from repro.bench.harness import ExperimentResult
from repro.bench.reporting import save_report, to_markdown


@pytest.fixture
def populated_session(call_graph):
    gs = Graphsurge()
    gs.add_graph(call_graph)
    gs.execute("create view y2019 on Calls edges where year = 2019")
    gs.execute("create view collection hist on Calls "
               "[a: year <= 2015], [b: year <= 2019]")
    return gs


class TestSessionPersistence:
    def test_round_trip(self, populated_session, tmp_path):
        populated_session.save_session(tmp_path / "session")
        restored = Graphsurge.load_session(tmp_path / "session")
        assert restored.resolve("Calls").num_edges == 15
        assert restored.views.get_view("y2019").num_edges == 8
        collection = restored.views.get_collection("hist")
        assert collection.num_views == 2

    def test_analytics_after_restore(self, populated_session, tmp_path):
        populated_session.save_session(tmp_path / "session")
        restored = Graphsurge.load_session(tmp_path / "session")
        result = restored.run_analytics(Wcc(), "hist",
                                        mode=ExecutionMode.DIFF_ONLY,
                                        keep_outputs=True)
        original = populated_session.run_analytics(
            Wcc(), "hist", mode=ExecutionMode.DIFF_ONLY, keep_outputs=True)
        for left, right in zip(result.views, original.views):
            assert left.output == right.output

    def test_empty_session(self, tmp_path):
        gs = Graphsurge()
        gs.add_graph(__import__("repro.graph.property_graph",
                                fromlist=["PropertyGraph"]
                                ).PropertyGraph("empty"))
        gs.save_session(tmp_path / "s")
        restored = Graphsurge.load_session(tmp_path / "s")
        assert "empty" in restored.graphs


def sample_rows():
    return [
        ExperimentResult("exp", "ds", "WCC", "cfg", "diff-only", 5,
                         1.234, 1000, 900, 0),
        ExperimentResult("exp", "ds", "WCC", "cfg", "scratch", 5,
                         2.5, 3000, 2800, 4),
    ]


class TestReporting:
    def test_markdown_table(self):
        text = to_markdown(sample_rows(), title="Sample")
        assert "### Sample" in text
        assert "| diff-only |" in text.replace("|diff-only|", "| diff-only |") or \
            "diff-only" in text
        assert text.count("\n") >= 4

    def test_save_report(self, tmp_path):
        save_report(sample_rows(), tmp_path, "exp")
        assert (tmp_path / "exp.csv").exists()
        assert (tmp_path / "exp.md").exists()
        csv_lines = (tmp_path / "exp.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3
        assert csv_lines[0].startswith("experiment,")

    def test_cli_save_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["table4", "--quick", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "table4.csv").exists()
        assert (tmp_path / "table4.md").exists()
