"""One name table: a computation that is oracle-backed runs on every
surface — ``repro.cli run``, the daemon's ``/run``, and
``StreamEngine.register`` — with each surface's own error type."""

import asyncio
import random

import pytest

from repro.algorithms import registry
from repro.cli import main
from repro.errors import GraphsurgeError, RequestError, ServeError
from repro.stream import StreamEngine
from repro.verify import ALGORITHMS
from tests.serve.conftest import call

VERTICES = list(range(1, 9))


def sampled_params(name):
    params = ALGORITHMS[name].sample_params(random.Random(3), VERTICES)
    return {key: value for key, value in params.items()
            if value is not None}


def cli_flags(params):
    flags = []
    for key, value in params.items():
        if key == "pairs":
            value = ",".join(f"{src}:{dst}" for src, dst in value)
        elif key == "seeds":
            value = ",".join(str(seed) for seed in value)
        flags += [f"--{key.replace('_', '-')}", str(value)]
    return flags


def test_oracle_names_are_table_rows():
    assert set(ALGORITHMS) <= set(registry.ALGORITHMS)
    for name, spec in ALGORITHMS.items():
        assert spec.factory is registry.ALGORITHMS[name].factory


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestEveryOracleNameRuns:
    def test_on_the_cli(self, name, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("id\n" + "\n".join(map(str, VERTICES)) + "\n")
        edges.write_text("src,dst\n" + "\n".join(
            f"{v},{v % 8 + 1}\n{v},{(v + 2) % 8 + 1}" for v in VERTICES)
            + "\n")
        argv = ["--load", f"g={nodes},{edges}", "run", name, "g"]
        assert main(argv + cli_flags(sampled_params(name))) == 0, \
            capsys.readouterr().err

    def test_on_serve_run(self, name, app):
        response = asyncio.run(call(app, "POST", "/run", {
            "computation": name, "target": "Calls",
            "params": sampled_params(name)}))
        assert response.status == 200, response.payload
        assert response.payload["views"][0]["output_size"] > 0

    def test_on_stream_register(self, name, call_graph):
        engine = StreamEngine(call_graph)
        try:
            signature = engine.register(name, sampled_params(name))
            assert engine.snapshot(signature)
        finally:
            engine.close()


#: The parameters a name cannot run without: CLI flags and table params.
REQUIRED = {"mpsp": (["--pairs", "1:5"], {"pairs": [(1, 5)]}),
            "ppr": (["--seeds", "1"], {"seeds": [1]})}


@pytest.mark.parametrize("name", sorted(registry.NAMES))
def test_cli_without_flags_builds_the_tables_defaults(name):
    """``repro run NAME g`` with no parameter flags builds what ``/run``
    builds from ``{}``: the flags carry no defaults of their own."""
    from repro.cli import build_computation, build_parser

    flags, params = REQUIRED.get(registry.NAMES[name].name, ([], {}))
    args = build_parser().parse_args(["run", name, "g"] + flags)
    from_cli = build_computation(name, args)
    from_table = registry.build_computation(name, params)
    assert type(from_cli) is type(from_table)
    assert vars(from_cli) == vars(from_table)


class TestEachSurfaceKeepsItsErrorType:
    def test_table_raises_graphsurge_error_by_default(self):
        with pytest.raises(GraphsurgeError, match="unknown computation"):
            registry.build_computation("frobnicate")
        with pytest.raises(GraphsurgeError, match="unknown computation "
                                                  "param"):
            registry.build_computation("wcc", {"sauce": 1})

    def test_request_surfaces_raise_request_error(self, call_graph):
        with pytest.raises(RequestError, match="unknown computation"):
            registry.build_request_computation("frobnicate", {})
        engine = StreamEngine(call_graph)
        with pytest.raises(RequestError, match="unknown computation"):
            engine.register("frobnicate")
        assert not engine.queries

    def test_cli_error_is_not_a_serve_error(self, tmp_path):
        import argparse

        from repro.cli import build_computation

        with pytest.raises(GraphsurgeError) as excinfo:
            build_computation("frobnicate", argparse.Namespace())
        assert not isinstance(excinfo.value, ServeError)

    def test_aliases_resolve_to_one_row(self):
        assert registry.NAMES["bf"] is registry.NAMES["sssp"]
        assert registry.NAMES["pr"] is registry.ALGORITHMS["pagerank"]
        assert registry.NAMES["lpa"] is registry.ALGORITHMS["labelprop"]
