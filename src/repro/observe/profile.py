"""Per-view and per-collection profile summaries.

The executor brackets every view's ``Dataflow.step`` with sink marks and
attaches a :class:`ViewProfile` to the ``ViewRunResult`` (and a
:class:`CollectionProfile` to the ``CollectionRunResult``); the
:class:`ProfileReport` wraps a whole profiled run for rendering and
export — it is what ``Graphsurge.profile`` and the ``profile`` CLI
subcommand return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.observe.critical_path import CriticalPathReport, critical_path
from repro.observe.export import flame_rollup, write_chrome_trace
from repro.observe.tracer import TraceSink


@dataclass
class ViewProfile:
    """Where one view's simulated time went."""

    view_name: str
    #: The window ``[start, end)`` of sink step records for this view's
    #: final (successful) execution attempt.
    start: int
    end: int
    #: Critical path over that window; ``critical_path.length`` equals the
    #: view's metered ``parallel_time`` exactly.
    critical_path: CriticalPathReport
    #: Total units observed in the window (== the view's metered ``work``).
    work: int

    def render(self, top: int = 5) -> str:
        return self.critical_path.render(top=top)


@dataclass
class CollectionProfile:
    """Per-view profiles of a traced collection run."""

    views: List[ViewProfile] = field(default_factory=list)

    def slowest(self) -> Optional[ViewProfile]:
        """The view with the longest critical path, the first of a tie
        (None if empty)."""
        return max(self.views, key=lambda v: v.critical_path.length,
                   default=None)


def profile_view(sink: TraceSink, view_name: str, start: int,
                 end: int) -> ViewProfile:
    """Summarize the sink window a view's execution produced."""
    window = sink.window(start, end)
    return ViewProfile(
        view_name=view_name,
        start=start,
        end=end,
        critical_path=critical_path(window, view_name=view_name),
        work=sum(step.units for step in window),
    )


@dataclass
class ProfileReport:
    """A profiled analytics run: the result plus its activity stream.

    ``result`` is the ``ViewRunResult`` / ``CollectionRunResult`` the
    executor returned (with ``profile`` summaries attached); ``sink``
    holds the full span stream for export.
    """

    result: Any
    sink: TraceSink
    target: str = ""

    def view_profiles(self) -> List[ViewProfile]:
        profile = getattr(self.result, "profile", None)
        if isinstance(profile, CollectionProfile):
            return profile.views
        if isinstance(profile, ViewProfile):
            return [profile]
        return []

    def write_chrome_trace(self, path) -> None:
        write_chrome_trace(self.sink.steps, path,
                           workers=self.sink.workers,
                           label=self.target or "graphsurge")

    def flame(self, top: Optional[int] = 20) -> str:
        return flame_rollup(self.sink.steps, top=top)

    def render(self, top: int = 3, flame_top: Optional[int] = 10) -> str:
        views = self.view_profiles()
        total = sum(v.critical_path.length for v in views)
        lines = [f"profile of {self.target or 'run'}: {len(views)} view(s), "
                 f"critical path {total} units"]
        for view in views:
            lines.append(view.render(top=top))
        lines.append(self.flame(top=flame_top))
        return "\n".join(lines)
