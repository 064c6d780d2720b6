"""Measurement helpers owned by the benchmark: spans, percentiles, RSS.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions; nothing inside ``repro`` is instrumented. A
span is ``{id, name, layer, start, end, parent, run_id}``; a layer's self
time is its spans' durations minus the part their child spans cover.
Spans are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


class Tracer:
    """In-memory span recorder. ``Tracer(enabled=False)`` records nothing,
    so the untraced run pays one attribute test per would-be span."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.run_id = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def run(self, name: str) -> Iterator[None]:
        """One root span; every span opened inside shares its run id."""
        self.run_id += 1
        with self.span(name, "perf"):
            yield


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans: Iterable[dict], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(duration(s) for s in spans if s["name"] == name)


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for s in spans:
        layers[s["layer"]] = layers.get(s["layer"], 0.0) + own[s["id"]]
    return layers


def check_tree(spans: Sequence[dict], slack: float = 1e-6) -> List[str]:
    """Well-formedness problems: one root per run, every child inside its
    parent and sharing its run id, no negative self time."""
    problems: List[str] = []
    by_id = {s["id"]: s for s in spans}
    roots: Dict[int, int] = {}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) never closed")
            continue
        if s["parent"] is None:
            roots[s["run_id"]] = roots.get(s["run_id"], 0) + 1
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} has unknown parent")
        elif (s["start"] < parent["start"] - slack
              or s["end"] > parent["end"] + slack):
            problems.append(f"span {s['id']} ({s['name']}) leaves its "
                            f"parent {parent['name']}")
        elif s["run_id"] != parent["run_id"]:
            problems.append(f"span {s['id']} changes run id")
    for run_id, count in roots.items():
        if count != 1:
            problems.append(f"run {run_id} has {count} root spans")
    for span_id, own in self_times(spans).items():
        if own < -slack:
            problems.append(f"span {span_id} has negative self time {own}")
    return problems


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support.

    A percentile is reported only with at least ten samples beyond it
    (p95 needs 200 samples): fewer, and the value is one outlier's.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    beyond = len(samples) * (100 - p) / 100
    if beyond < 10:
        raise ValueError(
            f"p{p:g} of {len(samples)} samples has only {beyond:.1f} "
            f"samples beyond it; at least 10 are required")
    ordered = sorted(samples)
    rank = -(-len(ordered) * p // 100)  # ceil
    return ordered[int(rank) - 1]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (default: this one) in MiB."""
    path = f"/proc/{pid}/status" if pid is not None else "/proc/self/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")
