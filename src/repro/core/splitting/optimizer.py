"""The adaptive splitting optimizer (paper §5).

Protocol, following the paper:

1. Run ``GV_1`` from scratch and ``GV_2`` differentially, recording
   ``(|GV_1|, st_1)`` and ``(|δC_2|, dt_2)``.
2. For every later view, estimate both options with the linear cost models
   and pick the cheaper. Decisions are made for a *batch* of ``ℓ`` views at
   a time (default 10) because feeding a run of consecutive differential
   views lets DD's indexing amortize.

Running "from scratch" still executes the computation differentially across
its own iterations — it merely abandons the state shared with the previous
views (see §5), i.e. it *splits* the collection at that view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.core.splitting.model import LinearCostModel

DEFAULT_BATCH = 10


class SplitDecision(enum.Enum):
    DIFFERENTIAL = "differential"
    SCRATCH = "scratch"


@dataclass
class DecisionRecord:
    """Audit record of one per-view decision (for tests and reporting)."""

    view_index: int
    decision: SplitDecision
    est_scratch: float
    est_diff: float


class AdaptiveSplitter:
    """Stateful per-collection splitting policy."""

    def __init__(self, batch_size: int = DEFAULT_BATCH):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.scratch_model = LinearCostModel("scratch")
        self.diff_model = LinearCostModel("differential")
        self.history: List[DecisionRecord] = []
        self._batch_decision: SplitDecision | None = None
        self._batch_remaining = 0

    # -- observations ----------------------------------------------------------

    def observe_scratch(self, view_size: int, cost: float) -> None:
        self.scratch_model.observe(view_size, cost)

    def observe_differential(self, diff_size: int, cost: float) -> None:
        self.diff_model.observe(diff_size, cost)

    # -- decisions ----------------------------------------------------------------

    def decide(self, view_index: int, view_size: int,
               diff_size: int) -> SplitDecision:
        """Choose how to execute view ``view_index``.

        The first view always runs from scratch (there is nothing to share);
        the second always runs differentially — these two prime the models,
        exactly as the paper's steps 1-2 prescribe.
        """
        if view_index == 0:
            decision = SplitDecision.SCRATCH
            self._record(view_index, decision, float("nan"), float("nan"))
            return decision
        if view_index == 1:
            decision = SplitDecision.DIFFERENTIAL
            self._record(view_index, decision, float("nan"), float("nan"))
            return decision
        if self._batch_remaining > 0 and self._batch_decision is not None:
            self._batch_remaining -= 1
            est_s = self.scratch_model.predict(view_size) or 0.0
            est_d = self.diff_model.predict(diff_size) or 0.0
            self._record(view_index, self._batch_decision, est_s, est_d)
            return self._batch_decision
        est_scratch = self.scratch_model.predict(view_size)
        est_diff = self.diff_model.predict(diff_size)
        if est_scratch is None and est_diff is None:
            decision = SplitDecision.DIFFERENTIAL
        elif est_scratch is None:
            decision = SplitDecision.DIFFERENTIAL
        elif est_diff is None:
            decision = SplitDecision.SCRATCH
        else:
            decision = (SplitDecision.SCRATCH
                        if est_scratch < est_diff
                        else SplitDecision.DIFFERENTIAL)
        self._batch_decision = decision
        self._batch_remaining = self.batch_size - 1
        self._record(view_index, decision,
                     est_scratch if est_scratch is not None else float("nan"),
                     est_diff if est_diff is not None else float("nan"))
        return decision

    def _record(self, view_index: int, decision: SplitDecision,
                est_scratch: float, est_diff: float) -> None:
        self.history.append(
            DecisionRecord(view_index, decision, est_scratch, est_diff))
