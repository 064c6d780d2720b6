"""Debug tooling: the ``Out(t) = Op(In(t))`` consistency check."""

from repro.differential import Dataflow
from repro.differential.debug import check_consistency


def bfs_dataflow():
    df = Dataflow()
    edges = df.new_input("edges")
    roots = df.new_input("roots")

    def body(inner, scope):
        e = scope.enter(edges)
        r = scope.enter(roots)
        return inner.join(
            e, lambda u, d, v: (v, d + 1), name="step").concat(r).min_by_key(
            name="unionmin")

    out = df.capture(roots.iterate(body, name="bfsloop"), "dists")
    return df, out


class TestConsistency:
    def test_clean_run_is_consistent(self):
        df, _out = bfs_dataflow()
        df.step({"edges": {(0, 1): 1, (1, 2): 1}, "roots": {(0, 0): 1}})
        df.step({"edges": {(1, 2): -1}})
        assert check_consistency(df) == []

    def test_detects_corrupted_trace(self):
        df, _out = bfs_dataflow()
        df.step({"edges": {(0, 1): 1}, "roots": {(0, 0): 1}})
        # Corrupt a reduce's output trace directly.
        from repro.differential.operators.reduce import ReduceOp

        for ops in df._ops_by_scope.values():
            for op in ops:
                if isinstance(op, ReduceOp) and op.name == "unionmin":
                    op.out_trace.update(1, (0, 0), {999: 1})
        problems = check_consistency(df)
        assert problems
        assert "unionmin" in problems[0]
