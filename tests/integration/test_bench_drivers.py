"""The paper's shapes, checked at ``quick`` scale for every experiment, and
the planted defects that prove the checks can fail.

Each experiment module owns its shape predicates (``check(rows)``); this
file runs them as ``python -m repro.bench all --quick`` does.
"""

import random

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.ordering import optimizer
from repro.core.splitting.optimizer import AdaptiveSplitter, SplitDecision


def broken_shapes(name):
    module = EXPERIMENTS[name]
    rows = module.run(quick=True)
    assert rows and all(row.experiment == name for row in rows)
    return module.check(rows)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_shapes_hold_at_quick_scale(name):
    assert broken_shapes(name) == []


@pytest.mark.parametrize("tour", [
    lambda n: list(range(n)),
    lambda n: random.Random(5).sample(range(n), n),
], ids=["identity", "random"])
def test_an_ordering_that_is_not_christofides_breaks_table4(monkeypatch,
                                                            tour):
    monkeypatch.setattr(optimizer, "christofides_tour",
                        lambda weights: tour(len(weights)))
    assert broken_shapes("table4")


@pytest.mark.parametrize("name", ["table3", "fig8", "fig9"])
def test_a_splitter_that_never_splits_breaks_the_adaptive_shapes(
        monkeypatch, name):
    def always_differential(self, view_index, view_size, diff_size):
        return (SplitDecision.SCRATCH if view_index == 0
                else SplitDecision.DIFFERENTIAL)

    monkeypatch.setattr(AdaptiveSplitter, "decide", always_differential)
    assert any("adaptive" in problem for problem in broken_shapes(name))


def test_diff_only_without_sharing_breaks_table2(monkeypatch):
    choose = AnalyticsExecutor._choose

    def reset_every_view(self, mode, *args):
        if mode is ExecutionMode.DIFF_ONLY:
            return SplitDecision.SCRATCH
        return choose(self, mode, *args)

    monkeypatch.setattr(AnalyticsExecutor, "_choose", reset_every_view)
    assert any("BF" in problem for problem in broken_shapes("table2"))


def test_cli_exits_1_and_lists_broken_shapes(monkeypatch, capsys):
    assert main(["table4", "--quick"]) == 0
    assert "Table 4" in capsys.readouterr().out
    monkeypatch.setattr(EXPERIMENTS["table4"], "check",
                        lambda rows: ["planted problem"])
    assert main(["table4", "--quick"]) == 1
    assert "table4: planted problem" in capsys.readouterr().err
