"""Generators, oracles, percentile and span helpers (no program run)."""

import random

import pytest

import gen
import oracle
import spans


def test_generators_are_functions_of_the_seed():
    def everything(seed):
        nodes, edges, _rows = gen.temporal_graph(seed, 3, 10, 25, 100)
        cn, ce, _pairs, _member = gen.community_graph(seed, 60, 200, 5)
        views = gen.perturb_views(seed, 5, 2)
        batches = gen.dumps(gen.churn_batches(seed, 3, 10, 20, 5, 3))
        script = gen.dumps(gen.request_script(
            seed, 3, 10, 26, 13, 2, taken=[(0, 1)], span=10, origin=2010))
        return gen.digest(nodes, edges, cn, ce,
                          gen.perturb_gvdl("c", "g", views), batches, script)

    assert everything(11) == everything(11)
    assert everything(11) != everything(12)
    assert gen.subseed(11, 0) != gen.subseed(11, 1)


def test_generated_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        _n, _e, rows = gen.temporal_graph(seed, 4, 10, 30, 1000)
        assert len(rows) == len({(u, v) for u, v, _ts in rows}) == 120
        # evenly spread stamps: every tenth of the span holds a tenth
        assert sum(ts < 100 for _u, _v, ts in rows) == 12
        assert all(u // 10 == v // 10 for u, v, _ts in rows)
        batches = gen.churn_batches(seed, 3, 10, 20, 6, 4)
        live = set()
        for batch in batches:
            retracts = {tuple(e) for e in batch["retracts"]}
            assert retracts <= live  # never refused
            live = (live - retracts) | {tuple(e) for e in batch["appends"]}
        assert len(live) == 3 + 60
        script = gen.request_script(seed, 3, 10, 26, 13, 2, taken=[],
                                    span=10, origin=2010)
        assert [e["path"] for e in script].count("/mutate") == 2
        for block in (script[:12], script[13:25]):
            shapes = [gen.dumps(e["body"]) for e in block]
            assert len(set(shapes[:4])) == 4  # one miss per shape...
            assert shapes[4:] == shapes[:4] * 2  # ...then only hits
        for entry in (script[12], script[25]):
            assert all(u // 10 == v // 10
                       for u, v, _props in entry["body"]["add_edges"])


def test_oracles_on_a_hand_checked_graph():
    edges = [(1, 2, 4), (2, 3, 1), (1, 3, 9), (5, 6, 1)]
    assert oracle.wcc(edges) == {1: 1, 2: 1, 3: 1, 5: 5, 6: 5}
    assert oracle.bfs(edges, 1) == {1: 0, 2: 1, 3: 1}
    assert oracle.bfs(edges, 3) == {}
    assert oracle.sssp(edges, 1) == {1: 0, 2: 4, 3: 5}
    assert oracle.out_degrees(edges) == {1: 2, 2: 1, 5: 1}
    # one round by hand: 1 sends 85*(1e6//2)//100 to 2 and 3, 2 sends
    # 850000 to 3, 5 sends 850000 to 6; BASE 150000; quantum 1000.
    assert oracle.pagerank(edges, rounds=1) == {
        1: 150000, 2: 575000, 3: 1425000, 5: 150000, 6: 1000000}


def test_oracles_agree_with_brute_force_on_random_graphs():
    rng = random.Random(5)
    for _ in range(20):
        edges = [(rng.randrange(12), rng.randrange(12), rng.randint(1, 5))
                 for _ in range(20)]
        labels = oracle.wcc(edges)
        for u, v, _w in edges:
            assert labels[u] == labels[v] <= min(u, v)
        dist = oracle.sssp(edges, edges[0][0])
        for u, v, w in edges:  # no edge can still be relaxed
            if u in dist:
                assert dist[v] <= dist[u] + w


def test_percentile_refuses_what_the_sample_cannot_support():
    samples = list(range(1, 201))
    assert spans.percentile(samples, 95) == 190
    assert spans.percentile(samples, 50) == 100
    with pytest.raises(ValueError, match="at least 10"):
        spans.percentile(samples[:199], 95)
    with pytest.raises(ValueError, match="at least 10"):
        spans.percentile(samples[:19], 50)
    with pytest.raises(ValueError):
        spans.percentile(samples, 100)


def test_span_tree_self_time_and_problems():
    tr = spans.Tracer()
    with tr.run("rep"):
        with tr.span("a", "x"):
            with tr.span("b", "y"):
                pass
        with tr.span("c", "x"):
            pass
    assert spans.check_tree(tr.spans) == []
    own = spans.self_times(tr.spans)
    assert all(value >= 0 for value in own.values())
    root = tr.spans[0]
    assert abs(sum(own.values()) - spans.duration(root)) < 1e-9
    assert set(spans.layer_self_times(tr.spans)) == {"perf", "x", "y"}

    escaped = [dict(s) for s in tr.spans]
    escaped[2]["end"] = escaped[1]["end"] + 1.0
    assert any("leaves its parent" in p for p in spans.check_tree(escaped))
    two_roots = [dict(s) for s in tr.spans]
    two_roots[3]["parent"] = None
    assert any("2 root spans" in p for p in spans.check_tree(two_roots))

    off = spans.Tracer(enabled=False)
    with off.run("rep"), off.span("a", "x"):
        pass
    assert off.spans == []


def _result(run_s, failed=0):
    metric = {"value": run_s, "unit": "s"}
    return {"seconds": 16, "overrides": {"reps": 0, "smoke": False,
                                         "only": ""},
            "workloads": {"w": {"end_to_end": {
                "attempted": 10, "failed": failed,
                "metrics": {"run_s": metric}}}}}


def test_compare_verdicts(capsys):
    import compare

    bounds = {"run_s": {"bound": 0.25, "better": "lower"}}
    steady = [_result(1.0 + i / 100) for i in range(10)]
    slower = [_result(1.4 + i / 100) for i in range(10)]
    faster = [_result(0.8 + i / 100) for i in range(10)]
    noisy = [_result(1.0 + i / 5) for i in range(10)]

    def verdict(base, new, pairs=False):
        code = compare.compare(base, new, bounds, pairs)
        return code, capsys.readouterr().out.splitlines()[1].split()[-1]

    assert verdict(steady, slower) == (1, "regressed")
    assert verdict(steady, faster) == (0, "unchanged")  # unproven
    assert verdict(steady, faster, pairs=True) == (0, "improved")
    assert verdict(steady, steady, pairs=True) == (0, "unchanged")
    assert verdict(steady, noisy) == (0, "unresolved")
    assert compare.compare(steady, [_result(1.0, failed=1)], bounds,
                           False) == 1
    with pytest.raises(SystemExit, match="settings differ"):
        compare.compare(steady, [dict(_result(1.0), seconds=4)], bounds,
                        False)
    with pytest.raises(SystemExit, match="at least 10"):
        compare.compare(steady[:3], faster[:3], bounds, True)
