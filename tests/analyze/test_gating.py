"""Strict-mode gating, CLI/corpus integration, and zero-overhead checks."""

import json

import pytest

from repro.algorithms import Bfs, Wcc
from repro.analyze import analyze, analyze_computation
from repro.analyze.corpus import default_computations, generated_computations
from repro.core.computation import GraphComputation
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.view_collection import collection_from_diffs
from repro.differential import Dataflow
from repro.errors import AnalysisError
from repro.graph.edge_stream import EdgeStream


class BadLoop(GraphComputation):
    """Planted defect: a negate feeds the loop variable unguarded."""

    name = "bad-loop"

    def build(self, dataflow, edges):
        return edges.map(lambda rec: (rec[0], 0)).iterate(
            lambda inner, scope: inner.concat(
                inner.map(lambda rec: rec, name="flip").negate()),
            name="bad.loop")


def chain_collection(num_views=4):
    diffs = [{(index, index, index + 1, 1): 1} for index in range(num_views)]
    return collection_from_diffs("chain", diffs)


@pytest.fixture
def analyzed(monkeypatch):
    """Every dataflow handed to ``repro.analyze.analyze``, in order."""
    import repro.analyze as analyze_module

    seen = []
    real_analyze = analyze_module.analyze

    def counting_analyze(dataflow, **kwargs):
        seen.append(dataflow)
        return real_analyze(dataflow, **kwargs)

    monkeypatch.setattr(analyze_module, "analyze", counting_analyze)
    return seen


class TestStrictMode:
    def test_strict_refuses_planted_negate(self):
        stream = EdgeStream([(0, 0, 1, 1)])
        with pytest.raises(AnalysisError) as excinfo:
            AnalyticsExecutor(strict=True).run_on_view(BadLoop(), stream)
        message = str(excinfo.value)
        assert "GS-P102" in message
        assert "--strict" in message
        assert excinfo.value.report.errors()

    def test_strict_passes_clean_computation(self):
        stream = EdgeStream([(0, 0, 1, 1), (1, 1, 2, 1)])
        result = AnalyticsExecutor(strict=True).run_on_view(Bfs(), stream)
        assert result.vertex_map()

    def test_strict_collection_run_checks_once_and_runs(self):
        collection = chain_collection()
        result = AnalyticsExecutor(strict=True).run_on_collection(
            Wcc(), collection, mode=ExecutionMode.ADAPTIVE)
        assert len(result.views) == collection.num_views

    def test_reused_strict_executor_analyzes_every_computation(
            self, analyzed):
        """The verdict lives on the run's resident, not in an id() set.

        A strict executor used to remember "already analyzed" by
        ``id(computation)`` without keeping the object alive, so a later
        computation inheriting a freed id skipped the gate.
        """
        executor = AnalyticsExecutor(strict=True)
        stream = EdgeStream([(0, 0, 1, 1)])
        clean = Bfs()
        freed_id = id(clean)
        executor.run_on_view(clean, stream)
        del clean
        # CPython hands a freed address to the next same-sized object;
        # hold the misses so the allocator keeps walking its free list.
        misses = []
        for _ in range(256):
            bad = BadLoop()
            if id(bad) == freed_id:
                break
            misses.append(bad)
        with pytest.raises(AnalysisError):
            executor.run_on_view(bad, stream)
        assert len(analyzed) == 2

    def test_strict_analyzes_once_per_run_across_rebuilds(self, analyzed):
        collection = chain_collection()
        result = AnalyticsExecutor(strict=True).run_on_collection(
            Wcc(), collection, mode=ExecutionMode.SCRATCH)
        assert result.split_points == [1, 2, 3]  # four separate builds
        assert len(analyzed) == 1

    def test_non_strict_runs_planted_defect(self):
        # Without --strict the defect is the user's problem, as before.
        stream = EdgeStream([(0, 0, 1, 1)])
        result = AnalyticsExecutor().run_on_view(BadLoop(), stream)
        assert result is not None


class TestZeroOverhead:
    def test_analysis_leaves_costs_byte_identical(self):
        collection = chain_collection(6)
        baseline = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work")
        computation = Wcc()
        analyze_computation(computation)  # analyze, then run the same plan
        analyzed = AnalyticsExecutor().run_on_collection(
            computation, collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work")
        assert analyzed.total_work == baseline.total_work
        assert analyzed.total_parallel_time == baseline.total_parallel_time

    def test_analyze_twice_is_deterministic(self):
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(edges.iterate(
            lambda inner, scope: inner.concat(
                scope.enter(edges)).min_by_key()), "out")
        first = analyze(df)
        second = analyze(df)
        assert first.to_dict() == second.to_dict()


class TestCorpus:
    def test_all_builtin_algorithms_are_clean(self):
        from repro.verify.oracles import ALGORITHMS

        plans = default_computations(seed=0)
        assert len(plans) == len(ALGORITHMS)
        for label, computation in plans:
            report = analyze_computation(computation)
            assert not report.findings, \
                f"{label}:\n{report.render()}"

    def test_pack_plans_are_clean_under_every_pass(self):
        # The community & scoring pack (labelprop/ppr/ktruss/score) must
        # stay finding-free even with the opt-in shard-safety and
        # stream-maintainability passes enabled: these plans are run on
        # the process backend and registered as continuous queries.
        import random

        from repro.verify.oracles import ALGORITHMS

        for name in ("labelprop", "ppr", "ktruss", "score"):
            spec = ALGORITHMS[name]
            params = spec.sample_params(random.Random(7), list(range(8)))
            computation = spec.computation(params)
            report = analyze_computation(computation, workers=3,
                                         concurrency=True, stream=True)
            assert not report.findings, f"{name}:\n{report.render()}"

    def test_corpus_includes_generated_plans(self):
        plans = list(generated_computations(seed=3, count=3))
        assert [label[:4] for label, _ in plans] == ["gen-"] * 3
        for label, computation in plans:
            assert analyze_computation(computation).ok, label


class TestFacade:
    def test_graphsurge_analyze_and_explain(self, call_graph):
        from repro import Graphsurge

        gs = Graphsurge()
        gs.add_graph(call_graph)
        gs.execute("create view collection hist on Calls "
                   "[y2015: year <= 2015], [y2019: year <= 2019]")
        report = gs.analyze(Wcc())
        assert report.ok
        text = gs.explain("hist", analysis=report)
        assert "static analysis: clean" in text

    def test_explain_renders_findings(self, call_graph):
        from repro import Graphsurge

        gs = Graphsurge()
        gs.add_graph(call_graph)
        gs.execute("create view collection hist on Calls "
                   "[y2015: year <= 2015], [y2019: year <= 2019]")
        report = gs.analyze(BadLoop())
        text = gs.explain("hist", analysis=report)
        assert "static analysis: 1 error(s)" in text
        assert "GS-P102" in text


class TestCli:
    def test_analyze_subcommand_clean(self, capsys):
        from repro.cli import main

        assert main(["analyze", "wcc", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "wcc: clean" in out
        assert "analyzed 2 plan(s): 0 error(s)" in out

    def test_analyze_unknown_name(self, capsys):
        from repro.cli import main

        assert main(["analyze", "quantum"]) == 1
        assert "unknown computation" in capsys.readouterr().err

    def test_analyze_writes_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "analysis.json"
        assert main(["analyze", "--generated", "2",
                     "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert all(entry["ok"] for entry in payload.values())
        assert any(label.startswith("gen-") for label in payload)
