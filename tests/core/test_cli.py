"""The command-line interface."""

import pytest

from repro.cli import build_computation, main


@pytest.fixture
def graph_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("id,city:str\n" + "\n".join(
        f"{i},{'LA' if i % 2 else 'NY'}" for i in range(8)) + "\n")
    edges.write_text("src,dst,year:int\n" + "\n".join(
        f"{i},{(i + 1) % 8},{2015 + i % 5}" for i in range(8)) + "\n")
    return nodes, edges


def load_args(graph_files):
    nodes, edges = graph_files
    return ["--load", f"g={nodes},{edges}"]


class TestSessionSetup:
    def test_load_and_info(self, graph_files, capsys):
        assert main(load_args(graph_files) + ["info"]) == 0
        out = capsys.readouterr().out
        assert "loaded graph g" in out
        assert "|V|=8" in out

    def test_bad_load_spec(self, capsys):
        assert main(["--load", "nonsense", "info"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_execute_inline(self, graph_files, capsys):
        argv = load_args(graph_files) + [
            "--execute", "create view recent on g edges where year >= 2018",
            "info"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "created recent" in out
        assert "recent:" in out

    def test_gvdl_file(self, graph_files, tmp_path, capsys):
        script = tmp_path / "views.gvdl"
        script.write_text(
            "create view collection hist on g "
            "[a: year <= 2016], [b: year <= 2019];")
        argv = load_args(graph_files) + ["--gvdl", str(script), "gvdl"]
        assert main(argv) == 0
        assert "created hist" in capsys.readouterr().out


class TestRun:
    def test_run_on_graph(self, graph_files, capsys):
        argv = load_args(graph_files) + ["run", "wcc", "g"]
        assert main(argv) == 0
        assert "WCC on g" in capsys.readouterr().out

    def test_run_on_collection_with_csv(self, graph_files, tmp_path,
                                        capsys):
        out_file = tmp_path / "results.csv"
        argv = load_args(graph_files) + [
            "--execute", "create view collection hist on g "
                         "[a: year <= 2016], [b: year <= 2019]",
            "run", "wcc", "hist", "--mode", "diff-only",
            "--out", str(out_file)]
        assert main(argv) == 0
        assert "2 views" in capsys.readouterr().out
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "view,vertex,value"
        assert len(lines) > 2

    def test_run_unknown_computation(self, graph_files, capsys):
        argv = load_args(graph_files) + ["run", "quantum", "g"]
        assert main(argv) == 1
        assert "unknown computation" in capsys.readouterr().err

    def test_checkpoint_on_a_graph_target_is_refused(self, graph_files,
                                                     tmp_path, capsys):
        checkpoint = tmp_path / "ck.jsonl"
        argv = load_args(graph_files) + [
            "run", "wcc", "g", "--checkpoint", str(checkpoint),
            "--retries", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "checkpoint_path, retry_policy" in err and "'g'" in err
        assert not checkpoint.exists()

    def test_run_options_on_a_graph_target_are_refused(self, graph_files,
                                                       capsys):
        argv = load_args(graph_files) + [
            "run", "wcc", "g", "--mode", "scratch", "--batch-size", "3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "mode, batch_size" in err and "'g'" in err
        argv = load_args(graph_files) + [
            "profile", "wcc", "g", "--mode", "scratch"]
        assert main(argv) == 1
        assert "mode" in capsys.readouterr().err

    def test_out_on_a_graph_target_still_writes(self, graph_files, tmp_path,
                                                capsys):
        out = tmp_path / "res.csv"
        argv = load_args(graph_files) + ["run", "wcc", "g", "--out",
                                         str(out)]
        assert main(argv) == 0
        assert out.read_text().startswith("vertex,value")

    def test_misspelled_weight_property_is_refused(self, graph_files,
                                                   capsys):
        argv = load_args(graph_files) + [
            "--weight-property", "nosuch", "run", "sssp", "g"]
        assert main(argv) == 1
        assert "nosuch" in capsys.readouterr().err

    def test_replay_stream_with_a_misspelled_weight_is_refused(
            self, graph_files, capsys):
        argv = load_args(graph_files) + [
            "--weight-property", "nosuch", "stream", "wcc", "--target", "g",
            "--stream-source", "replay", "--ts-property", "year",
            "--epochs", "2"]
        assert main(argv) == 1
        assert "nosuch" in capsys.readouterr().err

    def test_run_unknown_target(self, graph_files, capsys):
        argv = load_args(graph_files) + ["run", "wcc", "missing"]
        assert main(argv) == 1

    def test_mpsp_requires_pairs(self, graph_files, capsys):
        argv = load_args(graph_files) + ["run", "mpsp", "g"]
        assert main(argv) == 1
        assert "--pairs" in capsys.readouterr().err

    def test_run_trace_out_writes_valid_chrome_trace(self, graph_files,
                                                     tmp_path, capsys):
        import json

        from repro.observe import validate_chrome_trace

        trace = tmp_path / "trace.json"
        argv = load_args(graph_files) + [
            "--execute", "create view collection hist on g "
                         "[a: year <= 2016], [b: year <= 2019]",
            "run", "wcc", "hist", "--trace-out", str(trace)]
        assert main(argv) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0

    def test_run_without_trace_out_writes_nothing(self, graph_files,
                                                  tmp_path, capsys):
        argv = load_args(graph_files) + ["run", "wcc", "g"]
        assert main(argv) == 0
        assert "Chrome trace" not in capsys.readouterr().out


class TestBackendFlag:
    def test_run_on_process_backend(self, graph_files, capsys):
        argv = load_args(graph_files) + [
            "--workers", "2", "--backend", "process", "run", "wcc", "g"]
        assert main(argv) == 0
        assert "WCC on g" in capsys.readouterr().out

    def test_process_backend_matches_inline(self, graph_files, capsys):
        def run(extra):
            argv = load_args(graph_files) + extra + [
                "--execute", "create view collection hist on g "
                             "[a: year <= 2016], [b: year <= 2019]",
                "run", "wcc", "hist", "--mode", "diff-only"]
            assert main(argv) == 0
            # Keep the deterministic columns (view, strategy, work);
            # wall seconds legitimately differ between backends.
            return [(line.split()[0], line.split()[1], line.split()[-2])
                    for line in capsys.readouterr().out.splitlines()
                    if line.strip().endswith("work")]

        process = run(["--workers", "2", "--backend", "process"])
        inline = run(["--workers", "2"])
        assert process and process == inline

    def test_process_backend_needs_two_workers(self, graph_files, capsys):
        argv = load_args(graph_files) + ["--backend", "process",
                                         "run", "wcc", "g"]
        assert main(argv) == 1
        assert "workers >= 2" in capsys.readouterr().err

    def test_serve_flags_override_globals(self, graph_files, capsys):
        # serve --backend process with the global default of one worker
        # is invalid and must be refused at boot with a ConfigError —
        # before any socket is bound.
        argv = load_args(graph_files) + [
            "serve", "--backend", "process"]
        assert main(argv) == 1
        assert "workers >= 2" in capsys.readouterr().err


class TestProfile:
    def collection_args(self, graph_files):
        return load_args(graph_files) + [
            "--execute", "create view collection hist on g "
                         "[a: year <= 2016], [b: year <= 2019]"]

    def test_profile_collection(self, graph_files, capsys):
        argv = self.collection_args(graph_files) + ["profile", "wcc", "hist"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "profile of hist: 2 view(s)" in out
        assert "critical path for 'a'" in out
        assert "critical path for 'b'" in out
        assert "work rollup" in out

    def test_profile_trace_out(self, graph_files, tmp_path, capsys):
        import json

        from repro.observe import validate_chrome_trace

        trace = tmp_path / "trace.json"
        argv = self.collection_args(graph_files) + [
            "--workers", "2",
            "profile", "wcc", "hist", "--trace-out", str(trace)]
        assert main(argv) == 0
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) > 0
        assert payload["otherData"]["parallel_time_units"] > 0

    def test_profile_single_graph(self, graph_files, capsys):
        argv = load_args(graph_files) + ["profile", "bfs", "g"]
        assert main(argv) == 0
        assert "critical path for 'g'" in capsys.readouterr().out

    def test_profile_unknown_target(self, graph_files, capsys):
        argv = load_args(graph_files) + ["profile", "wcc", "missing"]
        assert main(argv) == 1


class TestComputationFactory:
    def test_all_names_resolve(self):
        import argparse

        args = argparse.Namespace(source=None, iterations=5, k=3,
                                  pairs="0:1,0:2")
        for name in ("wcc", "scc", "bfs", "bf", "pagerank", "mpsp",
                     "kcore", "triangles", "degrees", "maxdegree"):
            computation = build_computation(name, args)
            assert computation.name

    def test_parameters_flow(self):
        import argparse

        args = argparse.Namespace(source=7, iterations=3, k=4,
                                  pairs="1:2")
        assert build_computation("bfs", args).source == 7
        assert build_computation("pagerank", args).iterations == 3
        assert build_computation("kcore", args).k == 4
        assert build_computation("mpsp", args).pairs == [(1, 2)]
