"""Fault-tolerant execution: checkpoints, resume, budgets, fault injection.

The acceptance-critical scenarios live here:

* a 20-view collection run killed mid-flight at a seeded view resumes from
  its checkpoint and produces per-view outputs identical to an
  uninterrupted run;
* a view that keeps failing differentially is retried, degrades to a
  from-scratch run, and the collection run completes with the failure
  recorded.
"""

import json

import pytest

from repro.algorithms import Bfs, Wcc
from repro.algorithms.reference import reference_wcc
from repro.core.diagnostics import checkpoint_status, summarize_collection
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.resilience import (
    CheckpointWriter,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunBudget,
    decode_diff,
    decode_value,
    encode_diff,
    encode_value,
    load_checkpoint,
)
from repro.core.splitting.optimizer import SplitDecision
from repro.core.view_collection import collection_from_diffs
from repro.differential.dataflow import Dataflow
from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    InjectedFault,
)


def chain_collection(num_views=20, name="chain"):
    """Views growing a chain 0->1->...->k one edge per view."""
    return collection_from_diffs(
        name, [{(i, i, i + 1, 1): 1} for i in range(num_views)])


def churn_collection(num_views=14):
    """A collection with periodic full rewrites (induces real splits)."""
    diffs = []
    accumulated = {}
    for index in range(num_views):
        if index and index % 4 == 0:
            # Rewrite: retract the whole view, install a small fresh chain.
            diff = {edge: -mult for edge, mult in accumulated.items()}
            for j in range(2):
                edge = (1000 * index + j, j, j + 1, 1)
                diff[edge] = diff.get(edge, 0) + 1
        else:
            diff = {(index, index, index + 1, 1): 1}
        for edge, mult in diff.items():
            accumulated[edge] = accumulated.get(edge, 0) + mult
        accumulated = {e: m for e, m in accumulated.items() if m}
        diffs.append({e: m for e, m in diff.items() if m})
    return collection_from_diffs("churny", diffs)


def reference_maps(collection):
    out = []
    for index in range(collection.num_views):
        triples = [(s, d, w) for (_e, s, d, w)
                   in collection.full_view_edges(index)]
        out.append(reference_wcc(triples))
    return out


class TestFaultPlan:
    def test_fires_at_exact_invocations(self):
        plan = FaultPlan([FaultSpec("epoch", (1, 3))])
        plan.fire("epoch")
        with pytest.raises(InjectedFault, match="invocation 1"):
            plan.fire("epoch")
        plan.fire("epoch")
        with pytest.raises(InjectedFault, match="invocation 3"):
            plan.fire("epoch")
        assert plan._counters["epoch"] == 4
        assert [f[:2] for f in plan.fired] == [("epoch", 1), ("epoch", 3)]

    def test_sites_count_independently(self):
        plan = FaultPlan([FaultSpec("operator", (0,))])
        plan.fire("epoch")  # does not consume the operator fault
        with pytest.raises(InjectedFault):
            plan.fire("operator")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("warp-core", (0,))
        plan = FaultPlan()
        with pytest.raises(KeyError):
            plan.fire("warp-core")

    def test_corrupt_kind_inflates_meter(self):
        from repro.timely.meter import WorkMeter

        plan = FaultPlan([FaultSpec("operator", (1,), kind="corrupt")])
        meter = WorkMeter(1, fault_plan=plan)
        meter.record("a", 1)
        meter.record("b", 1)  # corrupted: recorded as 1000
        assert meter.total_work == 1001


class TestRecordEncoding:
    @pytest.mark.parametrize("value", [
        1, -3, 2.5, "x", None, True,
        (1, 2), (1, (2, 3)), ("v", (1.5, ("deep", 0))), [1, (2, 3)],
    ])
    def test_value_round_trip(self, value):
        assert decode_value(encode_value(value)) == value
        # Tuples must come back as tuples, not lists.
        assert type(decode_value(encode_value(value))) is type(value)

    def test_diff_round_trip(self):
        diff = {(1, (2, 3)): 2, ("v", 0): -1}
        assert decode_diff(encode_diff(diff)) == diff
        assert encode_diff(None) is None
        assert decode_diff(None) is None

    def test_encoding_is_json_safe(self):
        diff = {(1, (2, 3)): 2}
        assert json.loads(json.dumps(encode_diff(diff))) == encode_diff(diff)


class TestRunBudget:
    def test_non_converging_iterate_raises_structured_error(self):
        budget = RunBudget(max_iterations=25)
        dataflow = Dataflow()
        dataflow.set_budget(budget)
        nums = dataflow.new_input("nums")

        def diverge(inner, scope):
            # (k, v) -> (k, v + 1): the value changes every iteration, so
            # the loop never produces an empty difference.
            return inner.map(lambda rec: (rec[0], rec[1] + 1))

        dataflow.capture(nums.iterate(diverge), "out")
        with pytest.raises(BudgetExceededError) as info:
            dataflow.step({"nums": {(1, 0): 1}})
        assert info.value.limit == "iterations"
        assert info.value.allowed == 25
        assert info.value.spent > 25
        assert "iterate" in info.value.site

    def test_work_budget_carries_partial_progress(self):
        collection = chain_collection(10)
        full = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work")
        budget = RunBudget(max_work=full.total_work // 2)
        with pytest.raises(BudgetExceededError) as info:
            AnalyticsExecutor().run_on_collection(
                Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
                cost_metric="work", budget=budget)
        error = info.value
        assert error.limit == "work"
        assert error.partial is not None
        assert 0 < len(error.partial.views) < 10
        # The partial views are real, completed results.
        assert all(v.work > 0 for v in error.partial.views)

    def test_wall_budget_with_injected_clock(self):
        ticks = iter(range(1000))
        budget = RunBudget(max_wall_seconds=3, clock=lambda: next(ticks))
        budget.start()
        with pytest.raises(BudgetExceededError) as info:
            for _ in range(10):
                budget.charge(1, site="test")
        assert info.value.limit == "wall_seconds"

    def test_budget_spans_dataflow_restarts(self):
        collection = chain_collection(8)
        budget = RunBudget(max_work=10)
        with pytest.raises(BudgetExceededError):
            # SCRATCH mode uses a fresh dataflow (and meter) per view; the
            # budget must still accumulate across them.
            AnalyticsExecutor().run_on_collection(
                Wcc(), collection, mode=ExecutionMode.SCRATCH,
                cost_metric="work", budget=budget)
        assert budget.work_spent > 10

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError, match="max_work"):
            RunBudget(max_work=0)


class TestCheckpointJournal:
    def test_full_run_journals_every_view(self, tmp_path):
        path = tmp_path / "run.ckpt"
        collection = chain_collection(6)
        AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", keep_outputs=True, checkpoint_path=path)
        state = load_checkpoint(path)
        assert state is not None
        assert state.completed_views == 6
        assert not state.truncated
        assert state.header["computation"] == Wcc().name
        assert state.header["num_views"] == 6
        assert [r["view_name"] for r in state.views] == \
            collection.view_names
        # Outputs survive the journal round trip.
        assert decode_diff(state.views[-1]["output"]) is not None

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.ckpt") is None

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "run.ckpt"
        AnalyticsExecutor().run_on_collection(
            Wcc(), chain_collection(5), mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", checkpoint_path=path)
        with path.open("a") as handle:
            handle.write('{"sha256": "feed", "record": {"type": "vi')
        state = load_checkpoint(path)
        assert state.truncated
        assert state.completed_views == 5

    def test_corrupt_middle_line_drops_suffix(self, tmp_path):
        path = tmp_path / "run.ckpt"
        AnalyticsExecutor().run_on_collection(
            Wcc(), chain_collection(5), mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", checkpoint_path=path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"sha256": "', '"sha256": "00', 1)
        path.write_text("".join(lines))
        state = load_checkpoint(path)
        assert state.truncated
        assert state.completed_views == 2  # header + 2 intact views

    def test_resume_rewrites_torn_tail(self, tmp_path):
        path = tmp_path / "run.ckpt"
        AnalyticsExecutor().run_on_collection(
            Wcc(), chain_collection(5), mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", checkpoint_path=path)
        with path.open("a") as handle:
            handle.write("garbage that is not json\n")
        state = load_checkpoint(path)
        writer = CheckpointWriter.resume(path, state)
        writer.close()
        assert "garbage" not in path.read_text()
        assert not load_checkpoint(path).truncated

    def test_fresh_and_resume_leave_no_temp_file_behind(self, tmp_path):
        path = tmp_path / "nested" / "run.ckpt"
        writer = CheckpointWriter.fresh(path, {"kind": "run"})
        writer.append_view({"index": 0, "view_name": "v0"})
        writer.close()
        assert [p.name for p in path.parent.iterdir()] == ["run.ckpt"]
        writer = CheckpointWriter.resume(path, load_checkpoint(path))
        writer.append_view({"index": 1, "view_name": "v1"})
        writer.close()
        assert [p.name for p in path.parent.iterdir()] == ["run.ckpt"]
        state = load_checkpoint(path)
        assert [r["view_name"] for r in state.views] == ["v0", "v1"]
        assert not state.truncated

    def test_non_contiguous_prefix_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        AnalyticsExecutor().run_on_collection(
            Wcc(), chain_collection(5), mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", checkpoint_path=path)
        lines = path.read_text().splitlines(keepends=True)
        del lines[2]  # drop view 1 but keep later (intact) records
        path.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="contiguous"):
            load_checkpoint(path)


class TestResume:
    def run(self, collection, mode=ExecutionMode.DIFF_ONLY, **kwargs):
        return AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=mode, cost_metric="work",
            keep_outputs=True, **kwargs)

    def test_kill_midflight_then_resume_matches_uninterrupted(self, tmp_path):
        """A 20-view run dies mid-flight; resume completes it and the
        final result is indistinguishable from an uninterrupted run."""
        baseline = self.run(chain_collection(20))
        path = tmp_path / "run.ckpt"
        plan = FaultPlan.single("epoch", at=9)
        with pytest.raises(InjectedFault):
            self.run(chain_collection(20), checkpoint_path=path,
                     fault_plan=plan)
        state = load_checkpoint(path)
        assert 0 < state.completed_views < 20
        resumed = self.run(chain_collection(20), resume_from=path)
        assert resumed.resumed_views == state.completed_views
        assert len(resumed.views) == 20
        for index in range(20):
            assert resumed.views[index].vertex_map() == \
                baseline.views[index].vertex_map(), f"view {index}"
        assert resumed.split_points == baseline.split_points
        assert [v.view_name for v in resumed.views] == \
            [v.view_name for v in baseline.views]
        # The journal now covers the whole run.
        assert load_checkpoint(path).completed_views == 20

    def test_resume_adaptive_with_real_splits(self, tmp_path):
        collection = churn_collection(14)
        baseline = self.run(collection, mode=ExecutionMode.ADAPTIVE,
                            batch_size=1)
        assert baseline.split_points  # the scenario must actually split
        path = tmp_path / "run.ckpt"
        plan = FaultPlan.single("epoch", at=7)
        with pytest.raises(InjectedFault):
            self.run(churn_collection(14), mode=ExecutionMode.ADAPTIVE,
                     batch_size=1, checkpoint_path=path, fault_plan=plan)
        resumed = self.run(churn_collection(14),
                           mode=ExecutionMode.ADAPTIVE, batch_size=1,
                           resume_from=path)
        for index in range(14):
            assert resumed.views[index].vertex_map() == \
                baseline.views[index].vertex_map(), f"view {index}"
        assert resumed.split_points == baseline.split_points

    def test_crash_during_checkpoint_write_resumes_cleanly(self, tmp_path):
        """The 'checkpoint' fault site tears the journal line mid-append;
        resume drops the torn line, recomputes that view, and finishes."""
        baseline = self.run(chain_collection(10))
        path = tmp_path / "run.ckpt"
        plan = FaultPlan.single("checkpoint", at=6)
        with pytest.raises(InjectedFault):
            self.run(chain_collection(10), checkpoint_path=path,
                     fault_plan=plan)
        state = load_checkpoint(path)
        assert state.truncated
        assert state.completed_views == 6  # view 6's line was torn
        resumed = self.run(chain_collection(10), resume_from=path)
        assert resumed.resumed_views == 6
        for index in range(10):
            assert resumed.views[index].vertex_map() == \
                baseline.views[index].vertex_map()

    def test_resume_of_complete_run_reexecutes_nothing(self, tmp_path):
        path = tmp_path / "run.ckpt"
        baseline = self.run(chain_collection(6), checkpoint_path=path)
        resumed = self.run(chain_collection(6), resume_from=path)
        assert resumed.resumed_views == 6
        # Nothing re-ran: every record (costs included) is restored verbatim.
        assert [v.work for v in resumed.views] == \
            [v.work for v in baseline.views]
        assert resumed.total_work == baseline.total_work
        for index in range(6):
            assert resumed.views[index].vertex_map() == \
                baseline.views[index].vertex_map()

    def test_resume_missing_file_runs_fresh(self, tmp_path):
        path = tmp_path / "never-written.ckpt"
        result = self.run(chain_collection(4), resume_from=path)
        assert result.resumed_views == 0
        assert len(result.views) == 4
        # The fresh run journals to the resume path for next time.
        assert load_checkpoint(path).completed_views == 4

    def test_resume_rejects_mismatched_collection(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self.run(chain_collection(6), checkpoint_path=path)
        with pytest.raises(CheckpointError, match="fingerprint"):
            self.run(chain_collection(7), resume_from=path)

    def test_resume_rejects_mismatched_computation(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self.run(chain_collection(6), checkpoint_path=path)
        with pytest.raises(CheckpointError, match="computation"):
            AnalyticsExecutor().run_on_collection(
                Bfs(source=0), chain_collection(6),
                mode=ExecutionMode.DIFF_ONLY, cost_metric="work",
                resume_from=path)

    def test_resume_rejects_missing_outputs(self, tmp_path):
        path = tmp_path / "run.ckpt"
        AnalyticsExecutor().run_on_collection(
            Wcc(), chain_collection(6), mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", checkpoint_path=path)  # no keep_outputs
        with pytest.raises(CheckpointError, match="keep_outputs"):
            self.run(chain_collection(6), resume_from=path)


class TestRetryAndDegrade:
    def test_differential_failure_degrades_to_scratch(self):
        """Acceptance: a view that fails differentially is retried,
        degrades to SCRATCH, and the run completes with the failure
        recorded."""
        collection = chain_collection(6)
        # Epoch invocations: views 0,1 -> 0,1; view 2's first attempt is
        # invocation 2 and its rebuilt differential retry replays at
        # invocation 3 — both fail, forcing the scratch fallback.
        plan = FaultPlan([FaultSpec("epoch", (2, 3))])
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.0)
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", keep_outputs=True, fault_plan=plan,
            retry_policy=policy)
        view = result.views[2]
        assert view.degraded
        assert view.strategy is SplitDecision.SCRATCH
        assert view.attempts == 3
        assert len(view.failures) == 2
        assert all("InjectedFault" in f for f in view.failures)
        assert 2 in result.split_points
        assert [v for v in result.views if v.failures] == [view]
        # Correctness is untouched: every view matches the reference.
        for index, expected in enumerate(reference_maps(collection)):
            assert result.views[index].vertex_map() == expected
        # Later views keep running differentially off the fallback state.
        assert result.views[3].strategy is SplitDecision.DIFFERENTIAL

    def test_transient_failure_retries_without_degrading(self):
        collection = chain_collection(6)
        plan = FaultPlan([FaultSpec("epoch", (2,))])
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.0)
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", keep_outputs=True, fault_plan=plan,
            retry_policy=policy)
        view = result.views[2]
        assert not view.degraded
        assert view.strategy is SplitDecision.DIFFERENTIAL
        assert view.attempts == 2
        assert len(view.failures) == 1
        assert result.split_points == []
        for index, expected in enumerate(reference_maps(collection)):
            assert result.views[index].vertex_map() == expected

    def test_midoperator_fault_recovers(self):
        """The 'operator' site poisons a dataflow mid-apply; the rebuilt
        retry still converges to the right answer."""
        collection = chain_collection(8)
        clean = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work")
        # Fire somewhere strictly inside the run's metered work.
        plan = FaultPlan.single("operator", at=clean.total_work // 2)
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.0)
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), chain_collection(8), mode=ExecutionMode.DIFF_ONLY,
            cost_metric="work", keep_outputs=True, fault_plan=plan,
            retry_policy=policy)
        assert any(view.failures for view in result.views)
        for index, expected in enumerate(reference_maps(collection)):
            assert result.views[index].vertex_map() == expected

    def test_without_policy_the_fault_propagates(self):
        plan = FaultPlan([FaultSpec("epoch", (2,))])
        with pytest.raises(InjectedFault):
            AnalyticsExecutor().run_on_collection(
                Wcc(), chain_collection(6), mode=ExecutionMode.DIFF_ONLY,
                cost_metric="work", fault_plan=plan)

    def test_persistent_failure_exhausts_and_raises(self):
        plan = FaultPlan([FaultSpec("epoch", tuple(range(2, 40)))])
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.0)
        with pytest.raises(InjectedFault):
            AnalyticsExecutor().run_on_collection(
                Wcc(), chain_collection(6), mode=ExecutionMode.DIFF_ONLY,
                cost_metric="work", fault_plan=plan, retry_policy=policy)

    def test_budget_errors_are_never_retried(self):
        policy = RetryPolicy(max_retries=5, backoff_seconds=0.0)
        budget = RunBudget(max_work=5)
        with pytest.raises(BudgetExceededError):
            AnalyticsExecutor().run_on_collection(
                Wcc(), chain_collection(6), mode=ExecutionMode.DIFF_ONLY,
                cost_metric="work", budget=budget, retry_policy=policy)
        assert budget.work_spent <= 5 + 50  # one view's worth, not 6 tries

    def test_backoff_schedule(self):
        slept = []
        policy = RetryPolicy(max_retries=3, backoff_seconds=1.0,
                             backoff_factor=2.0, sleep=slept.append)
        policy.pause(1)
        policy.pause(2)
        policy.pause(3)
        assert slept == [1.0, 2.0, 4.0]


class TestCheckpointDiagnostics:
    def test_summary_reports_resumability(self, tmp_path):
        collection = chain_collection(10)
        path = tmp_path / "run.ckpt"
        plan = FaultPlan.single("epoch", at=4)
        with pytest.raises(InjectedFault):
            AnalyticsExecutor().run_on_collection(
                Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
                cost_metric="work", checkpoint_path=path, fault_plan=plan)
        status = checkpoint_status(path)
        assert status.completed_views == 4
        assert status.last_view_name == "view-3"
        summary = summarize_collection(collection, checkpoint_path=path)
        text = summary.render()
        assert "resumable at view 4/10" in text
        assert "view-3" in text

    def test_summary_without_checkpoint_is_unchanged(self):
        collection = chain_collection(4)
        text = summarize_collection(collection).render()
        assert "checkpoint" not in text

    def test_absent_journal_is_none(self, tmp_path):
        assert checkpoint_status(tmp_path / "never-written.ckpt") is None

    def test_corrupt_journal_is_reported_not_hidden(self, tmp_path):
        """Regression: ``checkpoint_status`` used to swallow
        ``CheckpointError`` and return ``None``, making a damaged journal
        indistinguishable from a clean slate. It must surface as a
        corrupt (non-resumable) status with a warning render."""
        path = tmp_path / "run.ckpt"
        path.write_text("this is not a checkpoint journal\n{torn json")
        status = checkpoint_status(path)
        assert status is not None
        assert status.corrupt
        assert status.error
        text = status.render()
        assert "WARNING" in text
        assert "corrupt" in text
        assert str(path) in text

    def test_corrupt_journal_warning_in_summary(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text('{"record": {"type": "header"}, "sha256": "bad"}\n')
        collection = chain_collection(4)
        text = summarize_collection(collection, checkpoint_path=path).render()
        assert "WARNING" in text and "corrupt" in text

    def test_explain_via_facade(self, tmp_path, call_graph):
        from repro.core.system import Graphsurge

        session = Graphsurge()
        session.add_graph(call_graph, "Calls")
        session.execute("""create view collection hist on Calls
            [y2015: year <= 2015], [y2017: year <= 2017],
            [y2019: year <= 2019]""")
        path = tmp_path / "hist.ckpt"
        session.run_analytics(Wcc(), "hist", mode=ExecutionMode.DIFF_ONLY,
                              checkpoint_path=path)
        text = session.explain("hist", checkpoint_path=path)
        assert "checkpoint: complete (3/3 views)" in text


class TestRunOnViewName:
    def test_view_name_threads_through(self):
        from repro.graph.edge_stream import EdgeStream

        stream = EdgeStream([(0, 0, 1, 1)])
        result = AnalyticsExecutor().run_on_view(
            Wcc(), stream, view_name="my-view")
        assert result.view_name == "my-view"

    def test_default_stays_view(self):
        from repro.graph.edge_stream import EdgeStream

        stream = EdgeStream([(0, 0, 1, 1)])
        assert AnalyticsExecutor().run_on_view(Wcc(), stream).view_name \
            == "view"


class TestCli:
    def run_cli(self, tmp_path, capsys, extra):
        from repro.cli import main

        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("id\n0\n1\n2\n3\n")
        edges.write_text("src,dst,year:int\n0,1,2015\n1,2,2017\n2,3,2019\n")
        argv = [
            "--load", f"G={nodes},{edges}",
            "--execute", ("create view collection hist on G "
                          "[a: year <= 2015], [b: year <= 2017], "
                          "[c: year <= 2019]"),
            "run", "wcc", "hist", "--mode", "diff-only",
        ] + extra
        code = main(argv)
        return code, capsys.readouterr()

    def test_checkpoint_flag_writes_journal(self, tmp_path, capsys):
        path = tmp_path / "run.ckpt"
        code, captured = self.run_cli(tmp_path, capsys,
                                      ["--checkpoint", str(path)])
        assert code == 0
        assert load_checkpoint(path).completed_views == 3
        assert "3 views" in captured.out

    def test_resume_flag(self, tmp_path, capsys):
        path = tmp_path / "run.ckpt"
        code, _ = self.run_cli(tmp_path, capsys, ["--checkpoint", str(path)])
        assert code == 0
        code, captured = self.run_cli(
            tmp_path, capsys, ["--checkpoint", str(path), "--resume"])
        assert code == 0
        assert "resumed at view 3" in captured.out

    def test_resume_requires_checkpoint(self, tmp_path, capsys):
        code, captured = self.run_cli(tmp_path, capsys, ["--resume"])
        assert code == 1
        assert "--resume requires --checkpoint" in captured.err

    def test_budget_flag_reports_partial_progress(self, tmp_path, capsys):
        code, captured = self.run_cli(tmp_path, capsys, ["--max-work", "1"])
        assert code == 1
        assert "budget exceeded" in captured.err
        assert "partial progress" in captured.err
