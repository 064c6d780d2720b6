"""One name table: a computation that is oracle-backed runs on every
surface — ``repro.cli run``, the daemon's ``/run``, and
``StreamEngine.register`` — with each surface's own error type, and every
surface builds and signs one request alike however it is spelled."""

import asyncio
import random

import pytest

from repro.algorithms import registry
from repro.cli import (
    _parse_stream_queries,
    build_computation,
    build_parser,
    main,
)
from repro.core.system import Graphsurge
from repro.errors import GraphsurgeError, RequestError, ServeError
from repro.stream import StreamEngine
from repro.verify import ALGORITHMS, resolve_algorithms
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
    flags, params = REQUIRED.get(registry.NAMES[name].name, ([], {}))
    args = build_parser().parse_args(["run", name, "g"] + flags)
    from_cli = build_computation(name, args)
    from_table = registry.build_computation(name, params)
    assert type(from_cli) is type(from_table)
    assert vars(from_cli) == vars(from_table)


#: One non-default value for every table parameter.
CHANGED = {"source": 3, "iterations": 7, "k": 4, "rounds": 5,
           "pairs": [(1, 5), (1, 9)], "seeds": [1, 5],
           "degree_weight": 2, "triangle_weight": 2, "rank_weight": 2}
#: The two list spellings: separator inside a pair, separator between items.
SPELLINGS = {"colon-comma": (":", ","), "dash-semicolon": ("-", ";")}


def as_text(value, spelling):
    inside, between = SPELLINGS[spelling]
    if not isinstance(value, list):
        return str(value)
    return between.join(inside.join(map(str, item))
                        if isinstance(item, tuple) else str(item)
                        for item in value)


def via_cli_flags(name, params, spelling, app):
    flags = []
    for key, value in params.items():
        flags += [f"--{key.replace('_', '-')}", as_text(value, spelling)]
    args = build_parser().parse_args(["run", name, "g"] + flags)
    given = registry.flag_params(vars(args))
    return (build_computation(name, args),
            registry.resolve(name, given).signature)


def via_stream_text(name, params, spelling, app):
    text = name + (":" if params else "") + ",".join(
        f"{key}={as_text(value, spelling)}" for key, value in params.items())
    [(query, given)] = _parse_stream_queries([text])
    engine = StreamEngine()
    try:
        signature = engine.register(query, given)
        return engine.queries[signature].computation, signature
    finally:
        engine.close()


def via_run_json(name, params, spelling, app):
    seen = []
    real_run = app.session.run

    def recording_run(signature, computation, *args, **kwargs):
        seen.append((computation, signature))
        return real_run(signature, computation, *args, **kwargs)

    app.session.run = recording_run
    response = asyncio.run(call(app, "POST", "/run", {
        "computation": name, "target": "Calls", "params": params}))
    assert response.status == 200, response.payload
    [built] = seen
    return built


def via_graphsurge_stream(name, params, spelling, app):
    engine = Graphsurge().stream(None, [[name, params]] if params
                                 else [name])
    try:
        [(signature, query)] = engine.queries.items()
        return query.computation, signature
    finally:
        engine.close()


def via_table(name, params, spelling, app):
    return (registry.build_computation(name, params),
            registry.computation_signature(name, params))


SURFACES = (via_cli_flags, via_stream_text, via_run_json,
            via_graphsurge_stream, via_table)


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("changed", [False, True],
                         ids=["defaults", "changed"])
@pytest.mark.parametrize("name", sorted(registry.NAMES))
def test_every_surface_builds_and_signs_one_request_alike(
        name, changed, spelling, app):
    """CLI flags, the CLI stream text, ``/run`` JSON, a
    ``Graphsurge.stream`` entry and the table build the same computation
    with the same signature, for every row and alias, with the table's
    defaults and with one changed value per parameter."""
    row = registry.ALGORITHMS[registry.canonical_name(name)]
    if changed:
        params = {key: CHANGED[key] for key in row.params}
    else:
        _flags, params = REQUIRED.get(row.name, ([], {}))
    built = [surface(name, params, spelling, app) for surface in SURFACES]
    first, _signature = built[0]
    assert {type(computation) for computation, _ in built} == {type(first)}
    assert all(vars(computation) == vars(first)
               for computation, _ in built)
    assert len({signature for _, signature in built}) == 1


PAGERANK = '{"computation":"pagerank","params":{}}'


class TestOneComputationOneSignature:
    """Aliases, letter case, explicit defaults and parameters the row
    ignores name one computation: one cache entry, one resident, one
    breaker, one stream query."""

    def test_four_pagerank_spellings_share_the_serve_cache(self, app):
        bodies = [{"computation": "pagerank"}, {"computation": "pr"},
                  {"computation": "PageRank", "params": {"iterations": 10}},
                  {"computation": "pagerank", "params": {"k": 4}}]
        for body in bodies:
            response = asyncio.run(call(app, "POST", "/run",
                                        dict(body, target="Calls")))
            assert response.status == 200, response.payload
        stats = app.cache.stats
        assert (stats.misses, stats.hits) == (1, 3)
        assert {key[0] for key in app.session._residents} == {PAGERANK}
        assert list(app.breakers.to_payload()) == ["pagerank"]

    @pytest.mark.parametrize("spelling", [
        ("pr", None), ("PAGERANK", None), ("pagerank", {"iterations": 10}),
        ("pagerank", {"iterations": "10", "rounds": 3})])
    def test_a_second_spelling_is_a_duplicate_stream_query(self, spelling):
        engine = StreamEngine()
        try:
            assert engine.register("pagerank") == PAGERANK
            with pytest.raises(RequestError, match="already registered"):
                engine.register(*spelling)
            assert list(engine.queries) == [PAGERANK]
        finally:
            engine.close()

    def test_canonical_signatures_are_unchanged(self):
        assert registry.computation_signature("wcc") == \
            '{"computation":"wcc","params":{}}'
        assert registry.computation_signature("bfs", {"source": 0}) == \
            '{"computation":"bfs","params":{"source":0}}'
        assert registry.computation_signature(
            "mpsp", {"pairs": [(1, 5)]}) == \
            '{"computation":"mpsp","params":{"pairs":[[1,5]]}}'

    def test_table_defaults_are_written_typed(self):
        """An explicit default is dropped from the signature by comparing
        its typed value with the row's default as written."""
        for row in registry.ALGORITHMS.values():
            for key, default in row.params.items():
                assert registry.resolve(row.name, {key: default}).params \
                    == {}, (row.name, key)

    def test_source_text_and_int_sign_alike(self):
        assert registry.computation_signature("bfs", {"source": "3"}) == \
            registry.computation_signature("BFS", {"source": 3})

    def test_bad_parameter_text_raises_the_callers_error(self):
        with pytest.raises(RequestError, match="'pairs'"):
            registry.build_request_computation("mpsp", {"pairs": "1:2:3"})
        with pytest.raises(RequestError, match="'iterations'"):
            registry.build_request_computation("pr", {"iterations": "x"})

    def test_stream_snapshot_finds_a_query_by_any_name(self, serve_session):
        serve_session.stream_open("Calls", [("pagerank", {})])
        try:
            snapshot = serve_session.stream_snapshot("pr")
            assert snapshot["query"] == PAGERANK
            assert snapshot["output"]
        finally:
            serve_session.stream_close()


ALIASES = sorted(spelling for spelling, row in registry.NAMES.items()
                 if spelling != row.name)


@pytest.mark.parametrize("alias", ALIASES)
class TestAliasesOnAnalyzeAndFuzz:
    def test_analyze_accepts_an_alias(self, alias, capsys):
        assert main(["analyze", alias, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{registry.canonical_name(alias)}: clean")

    def test_fuzz_accepts_an_alias(self, alias):
        [spec] = resolve_algorithms([alias.upper()])
        assert spec.name == registry.canonical_name(alias)
        assert main(["fuzz", "--algorithms", alias, "--iterations", "1",
                     "--quiet"]) == 0


def test_unknown_names_keep_their_messages(capsys):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown fuzz algorithm"):
        resolve_algorithms(["frobnicate"])
    assert main(["analyze", "frobnicate"]) == 1
    assert "unknown computation(s): frobnicate" in capsys.readouterr().err


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

        with pytest.raises(GraphsurgeError) as excinfo:
            build_computation("frobnicate", argparse.Namespace())
        assert not isinstance(excinfo.value, ServeError)

    def test_aliases_resolve_to_one_row(self):
        assert registry.NAMES["bf"] is registry.NAMES["sssp"]
        assert registry.NAMES["pr"] is registry.ALGORITHMS["pagerank"]
        assert registry.NAMES["lpa"] is registry.ALGORITHMS["labelprop"]
