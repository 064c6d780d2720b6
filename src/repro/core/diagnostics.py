"""Diagnostics for materialized view collections.

Helps users understand a collection before running analytics on it: how
similar consecutive views are, whether ordering would help, and where the
natural split points sit. ``Graphsurge.explain(name)`` prints the summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.view_collection import MaterializedCollection


@dataclass
class CheckpointStatus:
    """Resumability of a collection, read from a run checkpoint journal."""

    path: str
    completed_views: int
    total_views: int
    last_view_name: Optional[str]
    truncated: bool
    #: The journal exists but could not be read (bad header, checksum
    #: mismatch beyond a torn tail, wrong format). A corrupt journal is
    #: not resumable, but — unlike an absent one — the user should know
    #: it is there and broken rather than silently see "no checkpoint".
    corrupt: bool = False
    error: Optional[str] = None

    def render(self) -> str:
        if self.corrupt:
            detail = f": {self.error}" if self.error else ""
            return (f"checkpoint: WARNING - journal at {self.path} is "
                    f"corrupt and cannot be resumed{detail}; delete it "
                    f"(or pass a fresh path) to start over")
        if self.completed_views >= self.total_views:
            return (f"checkpoint: complete ({self.completed_views}/"
                    f"{self.total_views} views) at {self.path}")
        tail = " [torn tail dropped]" if self.truncated else ""
        last = (f", last completed {self.last_view_name!r}"
                if self.last_view_name else "")
        return (f"checkpoint: resumable at view {self.completed_views}/"
                f"{self.total_views}{last} ({self.path}){tail}")


def checkpoint_status(checkpoint_path) -> Optional[CheckpointStatus]:
    """Inspect a run checkpoint journal.

    Returns ``None`` only when no journal exists at the path. A journal
    that exists but cannot be read (corrupt header, checksum failure)
    yields a status with ``corrupt=True`` carrying the error message —
    conflating the two previously made a damaged checkpoint look like a
    clean slate, so ``explain()`` would happily suggest starting over
    without warning that prior progress was lost to corruption.
    """
    from pathlib import Path

    from repro.core.resilience import load_checkpoint
    from repro.errors import CheckpointError

    def corrupt(message: str) -> CheckpointStatus:
        return CheckpointStatus(
            path=str(checkpoint_path),
            completed_views=0,
            total_views=0,
            last_view_name=None,
            truncated=False,
            corrupt=True,
            error=message,
        )

    exists = Path(checkpoint_path).exists()
    try:
        state = load_checkpoint(checkpoint_path)
    except CheckpointError as error:
        return corrupt(str(error))
    if state is None:
        if exists:
            # load_checkpoint treats a journal with no trustworthy record
            # at all as "no checkpoint"; for diagnostics the distinction
            # matters — the file is there, so something wrote (and lost)
            # a run's progress.
            return corrupt("no trustworthy record survives in the journal")
        return None
    return CheckpointStatus(
        path=state.path,
        completed_views=state.completed_views,
        total_views=int(state.header.get("num_views", 0)),
        last_view_name=state.last_view_name,
        truncated=state.truncated,
    )


@dataclass
class CollectionSummary:
    """Aggregate similarity statistics of a materialized collection."""

    name: str
    num_views: int
    total_diffs: int
    view_sizes: List[int]
    diff_sizes: List[int]
    #: |δC_i| / |GV_i| per view (0 for empty views); view 0 excluded —
    #: its difference set is the whole first view by construction.
    churn_ratios: List[float]
    #: Jaccard similarity |GV_{i-1} ∩ GV_i| / |GV_{i-1} ∪ GV_i|.
    jaccard: List[float]
    #: Resumability info when a run checkpoint was inspected (see
    #: :func:`checkpoint_status`); ``None`` when no journal was consulted.
    checkpoint: Optional[CheckpointStatus] = None
    #: Stored trace entries per operator from a finished analytics run
    #: (``CollectionRunResult.trace_memory``); ``None`` when no run was
    #: supplied. Makes trace-memory growth — and the saving from shared
    #: arrangements — visible from the CLI.
    trace_memory: Optional[Dict[str, int]] = None
    #: Per-view critical-path profiles (``CollectionRunResult.profile``)
    #: when the supplied run was traced; lets ``explain()`` answer "why is
    #: view k slow" directly.
    profile: Optional[object] = None
    #: Static-analysis verdict for the plan the collection would be run
    #: with (a :class:`repro.analyze.AnalysisReport`, see
    #: ``Graphsurge.analyze``); ``None`` when no analysis was supplied.
    analysis: Optional[object] = None

    @property
    def mean_churn(self) -> float:
        if not self.churn_ratios:
            return 0.0
        return sum(self.churn_ratios) / len(self.churn_ratios)

    @property
    def min_jaccard(self) -> float:
        return min(self.jaccard) if self.jaccard else 1.0

    def likely_split_points(self) -> List[int]:
        """Views whose churn ratio is at least 1 (the difference set is as
        large as the view) — candidates for running from scratch (the
        adaptive optimizer confirms at run time)."""
        return [index + 1
                for index, ratio in enumerate(self.churn_ratios)
                if ratio >= 1.0]

    def render(self) -> str:
        lines = [
            f"collection {self.name}: {self.num_views} views, "
            f"{self.total_diffs} total edge differences",
            f"view sizes: min {min(self.view_sizes)}, "
            f"max {max(self.view_sizes)}",
            f"mean churn |δC|/|GV|: {self.mean_churn:.2f}; "
            f"min consecutive Jaccard: {self.min_jaccard:.2f}",
        ]
        splits = self.likely_split_points()
        if splits:
            lines.append(f"high-churn views (likely split points): {splits}")
        else:
            lines.append("no high-churn views: diff-only execution should "
                         "dominate")
        if self.checkpoint is not None:
            lines.append(self.checkpoint.render())
        if self.trace_memory is not None:
            total = sum(self.trace_memory.values())
            lines.append(f"trace memory: {total} stored difference entries "
                         f"across {len(self.trace_memory)} operators")
            top = sorted(self.trace_memory.items(),
                         key=lambda item: -item[1])[:5]
            for name, entries in top:
                if entries:
                    lines.append(f"  {name}: {entries}")
        if self.profile is not None:
            slowest = self.profile.slowest()
            if slowest is not None:
                lines.append(
                    f"slowest view: {slowest.view_name!r} "
                    f"(critical path {slowest.critical_path.length} units "
                    f"over {slowest.critical_path.supersteps} supersteps)")
                for contributor in slowest.critical_path.top(3):
                    lines.append(
                        f"  {contributor.operator} @ epoch "
                        f"{contributor.epoch}: {contributor.units} units")
        if self.analysis is not None:
            errors = self.analysis.errors()
            warnings = self.analysis.warnings()
            if not self.analysis.findings:
                lines.append(
                    f"static analysis: clean "
                    f"({self.analysis.operators_scanned} operators, "
                    f"{self.analysis.udfs_scanned} UDFs)")
            else:
                lines.append(
                    f"static analysis: {len(errors)} error(s), "
                    f"{len(warnings)} warning(s)")
                for finding in self.analysis.sorted_findings()[:5]:
                    lines.append("  " + finding.render().splitlines()[0])
                remaining = len(self.analysis.findings) - 5
                if remaining > 0:
                    lines.append(f"  ... and {remaining} more (run the "
                                 f"`analyze` subcommand for all)")
        return "\n".join(lines)


def summarize_collection(collection: MaterializedCollection,
                         checkpoint_path=None,
                         run_result=None,
                         analysis=None) -> CollectionSummary:
    """Compute similarity statistics for a collection.

    With ``checkpoint_path``, the summary also reports whether a run
    checkpoint exists for the collection and how far it got. With
    ``run_result`` (a ``CollectionRunResult``), it reports the run's final
    per-operator trace memory. With ``analysis`` (an
    ``AnalysisReport``), it appends the static-analysis verdict.
    """
    churn: List[float] = []
    jaccard: List[float] = []
    previous = set()
    for index in range(collection.num_views):
        current = set(collection.full_view_edges(index))
        if index > 0:
            size = max(1, len(current))
            churn.append(collection.diff_sizes[index] / size)
            union = len(previous | current)
            inter = len(previous & current)
            jaccard.append(inter / union if union else 1.0)
        previous = current
    return CollectionSummary(
        name=collection.name,
        num_views=collection.num_views,
        total_diffs=collection.total_diffs,
        view_sizes=list(collection.view_sizes),
        diff_sizes=list(collection.diff_sizes),
        churn_ratios=churn,
        jaccard=jaccard,
        checkpoint=(checkpoint_status(checkpoint_path)
                    if checkpoint_path is not None else None),
        trace_memory=(run_result.trace_memory
                      if run_result is not None else None),
        profile=(getattr(run_result, "profile", None)
                 if run_result is not None else None),
        analysis=analysis,
    )
