"""Trace exporters: Chrome trace-event JSON and a text flamegraph rollup.

The Chrome export lays the simulated worker timeline out as one thread
per worker (plus a ``serial`` lane for out-of-superstep work) with one
complete (``"ph": "X"``) event per span, using **1 work unit = 1 µs** of
trace time. Within a superstep every worker's spans start at the step's
barrier; the next step starts after the slowest worker — so the visual
end of the timeline is exactly the simulated ``parallel_time``. Load the
file at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.observe.tracer import StepRecord

#: pid used for all emitted events (the run is one simulated process).
_PID = 1


def chrome_trace(steps: Sequence[StepRecord], workers: int = 1,
                 label: str = "graphsurge") -> Dict[str, object]:
    """Render step records as a Chrome trace-event JSON document."""
    events: List[Dict[str, object]] = [
        {"ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
         "args": {"name": f"{label} (simulated, 1 unit = 1us)"}},
    ]
    serial_tid = workers
    for worker in range(workers):
        events.append({"ph": "M", "pid": _PID, "tid": worker,
                       "name": "thread_name",
                       "args": {"name": f"worker {worker}"}})
    events.append({"ph": "M", "pid": _PID, "tid": serial_tid,
                   "name": "thread_name", "args": {"name": "serial"}})

    clock = 0
    for step in steps:
        offsets: Dict[int, int] = {}
        for span in step.spans():
            tid = serial_tid if step.kind == "serial" else span.worker
            start = clock + offsets.get(tid, 0)
            offsets[tid] = offsets.get(tid, 0) + span.units
            events.append({
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "name": span.operator,
                "cat": step.kind,
                "ts": start,
                "dur": span.units,
                "args": {
                    "time": list(span.time) if span.time else None,
                    "epoch": span.epoch,
                    "worker": span.worker,
                    "units": span.units,
                    "scope_depth": span.scope_depth,
                    "step": step.index,
                },
            })
        clock += step.critical_units
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.observe",
            "workers": workers,
            "parallel_time_units": clock,
        },
    }


def write_chrome_trace(steps: Sequence[StepRecord], path, workers: int = 1,
                       label: str = "graphsurge") -> None:
    """Write the Chrome trace atomically (torn traces load as garbage)."""
    from repro.core.persistence import atomic_write_bytes

    payload = chrome_trace(steps, workers=workers, label=label)
    atomic_write_bytes(path, (json.dumps(payload) + "\n").encode("utf-8"))


def validate_chrome_trace(payload: object) -> int:
    """Check a document against the trace-event schema we emit.

    Verifies the JSON-object envelope, the per-event required fields
    (``ph``; ``name``/``ts``/``dur``/``pid``/``tid`` for complete events),
    and non-negative integer timestamps. Returns the number of complete
    (``"X"``) events; raises ``ValueError`` on any violation. Used by the
    tests, including the ``profile --trace-out`` CLI test.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace document must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document lacks a traceEvents array")
    complete = 0
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {position} is not an object")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            raise ValueError(f"event {position} has unsupported ph "
                             f"{phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"event {position} lacks a name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"event {position} lacks integer {key}")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, int) or value < 0:
                    raise ValueError(
                        f"event {position} has invalid {key}: {value!r}")
            complete += 1
    return complete


#: Characters of the longest bar in :func:`flame_rollup`.
FLAME_WIDTH = 32


def flame_rollup(steps: Sequence[StepRecord],
                 top: Optional[int] = 20) -> str:
    """Flamegraph-style text rollup: units by operator, largest first.

    Operators are indented by scope depth (one ``· `` per iterate-nesting
    level), so loop bodies read as children of their surrounding scope.
    """
    units_by: Dict[str, int] = {}
    depths: Dict[str, int] = {}
    for step in steps:
        for span in step.spans():
            units_by[span.operator] = \
                units_by.get(span.operator, 0) + span.units
            depths.setdefault(span.operator, span.scope_depth)
    total = sum(units_by.values())
    lines = [f"work rollup: {total} units across {len(units_by)} operators"]
    if not total:
        return lines[0]
    ranked = sorted(units_by.items(), key=lambda item: (-item[1], item[0]))
    if top is not None:
        dropped = len(ranked) - top
        ranked = ranked[:top]
    else:
        dropped = 0
    name_width = max(len("· " * (depths[name] - 1) + name)
                     for name, _units in ranked)
    for name, units in ranked:
        share = units / total
        bar = "#" * max(1, int(FLAME_WIDTH * share))
        label = "· " * (depths[name] - 1) + name
        lines.append(f"  {label.ljust(name_width)}  {units:>10}  "
                     f"{share:>6.1%}  {bar}")
    if dropped > 0:
        rest = total - sum(units for _name, units in ranked)
        lines.append(f"  ... {dropped} more operators ({rest} units)")
    return "\n".join(lines)
