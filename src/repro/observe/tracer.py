"""The trace sink: a structured activity stream for the cost model.

A :class:`TraceSink` mirrors the :class:`repro.timely.meter.WorkMeter`'s
superstep frames and adds the two dimensions the meter throws away:
*which operator* did the work and *at which timestamp*. Every
``meter.record(key, units)`` call lands in the current superstep frame as
a span keyed by ``(operator name, timestamp, worker shard)``; frames are
opened and closed by the same ``begin_step``/``end_step`` calls that
drive the meter, so the sink's per-frame worker totals are — by
construction — the very dicts whose maxima the meter sums into
``parallel_time``.

The sink is attached to a live dataflow around its epochs with
:func:`attached`; when it is ``None`` (the default) every hook is a
single ``is None`` test, and the metered counters are byte-identical
with tracing on or off: the sink only observes, it never feeds back into
the meter.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: A timestamp as used by the engine: ``(epoch,)`` at the root, one extra
#: coordinate per iterate-scope nesting level.
Time = Tuple[int, ...]

#: Span key: (operator name, timestamp, worker shard).
SpanKey = Tuple[str, Time, int]

#: Operator label used when work is metered outside any operator context
#: (should not happen with the standard hooks; kept as a safety net so a
#: missing hook shows up in reports instead of crashing them).
UNTRACKED = "(untracked)"


@dataclass(frozen=True)
class SpanEvent:
    """One aggregated span: ``units`` of work by ``operator`` at ``time``
    on worker ``worker``, inside superstep ``step_index``."""

    step_index: int
    kind: str  # "step" (parallel superstep) or "serial"
    operator: str
    scope_depth: int
    time: Optional[Time]
    worker: int
    units: int

    @property
    def epoch(self) -> Optional[int]:
        return self.time[0] if self.time else None


@dataclass
class StepRecord:
    """One completed superstep frame (or one serial stretch between
    frames).

    ``worker_units`` are the per-worker totals — for a ``"step"`` record
    exactly the frame dict whose ``max`` the meter added to
    ``parallel_time``. ``op_units`` refines it by (operator, timestamp,
    worker); summing ``op_units`` over operators and times reproduces
    ``worker_units``.
    """

    index: int
    kind: str  # "step" | "serial"
    depth: int
    worker_units: Dict[int, int] = field(default_factory=dict)
    op_units: Dict[SpanKey, int] = field(default_factory=dict)
    scope_depths: Dict[str, int] = field(default_factory=dict)

    @property
    def units(self) -> int:
        return sum(self.worker_units.values())

    @property
    def critical_units(self) -> int:
        """This record's contribution to simulated ``parallel_time``.

        A parallel superstep costs the *maximum* per-worker work (the
        workers synchronize at its end); serial work — metered outside any
        frame — costs its full sum, exactly as the meter charges it.
        """
        if not self.worker_units:
            return 0
        if self.kind == "serial":
            return self.units
        return max(self.worker_units.values())

    @property
    def critical_worker(self) -> Optional[int]:
        """The worker whose work determines this superstep's duration
        (lowest id on ties; ``None`` for serial records — every worker
        waits on serial work)."""
        if self.kind == "serial" or not self.worker_units:
            return None
        peak = max(self.worker_units.values())
        return min(w for w, u in self.worker_units.items() if u == peak)

    def spans(self) -> Iterator[SpanEvent]:
        for (operator, time, worker), units in self.op_units.items():
            yield SpanEvent(
                step_index=self.index,
                kind=self.kind,
                operator=operator,
                scope_depth=self.scope_depths.get(operator, 1),
                time=time,
                worker=worker,
                units=units,
            )


class TraceSink:
    """Records the engine's activity stream during a traced run.

    Driven by three hook families:

    * ``enter_operator``/``exit_operator`` — around every operator apply
      (``flush`` from a scope driver, ``on_delta`` from an upstream
      ``send``); maintains the attribution context.
    * ``begin_step``/``end_step`` — called by the meter's superstep
      methods; mirrors the frame stack.
    * ``record`` — called by ``WorkMeter.record`` with the already-sharded
      worker and the final unit count (after any fault-plan inflation), so
      sink totals agree with meter totals to the unit.

    ``mark()`` returns a position usable to analyze a half-open window of
    the stream (the executor brackets each view's ``step`` with marks).
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.steps: List[StepRecord] = []
        #: Total units observed (agrees with the meter's ``total_work``
        #: delta over the traced interval).
        self.total_units = 0
        # Operator-context stack: (name, scope_depth, time).
        self._ops: List[Tuple[str, int, Optional[Time]]] = []
        # Mirror of the meter's superstep frame stack.
        self._frames: List[StepRecord] = []
        # Open serial stretch (work metered outside any frame).
        self._serial: Optional[StepRecord] = None

    # -- operator context -----------------------------------------------------

    def enter_operator(self, name: str, scope_depth: int,
                       time: Optional[Time]) -> None:
        self._ops.append((name, scope_depth, time))

    def exit_operator(self) -> None:
        self._ops.pop()

    # -- superstep frames (driven by the meter) -------------------------------

    def begin_step(self) -> None:
        self._flush_serial()
        self._frames.append(StepRecord(index=-1, kind="step",
                                       depth=len(self._frames) + 1))

    def end_step(self) -> None:
        if not self._frames:
            return
        frame = self._frames.pop()
        if frame.worker_units:
            frame.index = len(self.steps)
            self.steps.append(frame)

    # -- spans ------------------------------------------------------------------

    def record(self, worker: int, units: int, key: Any = None) -> None:
        """Attribute ``units`` on ``worker`` to the current operator."""
        if self._ops:
            name, depth, time = self._ops[-1]
        else:
            name, depth, time = UNTRACKED, 1, None
        if self._frames:
            target = self._frames[-1]
        else:
            if self._serial is None:
                self._serial = StepRecord(index=-1, kind="serial", depth=0)
            target = self._serial
        target.worker_units[worker] = \
            target.worker_units.get(worker, 0) + units
        span = (name, time, worker)
        target.op_units[span] = target.op_units.get(span, 0) + units
        target.scope_depths.setdefault(name, depth)
        self.total_units += units

    # -- windows -----------------------------------------------------------------

    def mark(self) -> int:
        """Close any open serial stretch; return the stream position."""
        self._flush_serial()
        return len(self.steps)

    def window(self, start: int, end: Optional[int] = None
               ) -> List[StepRecord]:
        """The completed records in ``[start, end)`` (marks from
        :meth:`mark`)."""
        return self.steps[start:end if end is not None else len(self.steps)]

    # -- internals ----------------------------------------------------------------

    def _flush_serial(self) -> None:
        serial = self._serial
        if serial is not None and serial.worker_units:
            serial.index = len(self.steps)
            self.steps.append(serial)
        self._serial = None


class _Tee:
    """Forward every tracer hook to two sinks."""

    def __init__(self, first, second):
        self._sinks = (first, second)

    def enter_operator(self, name, scope_depth, time) -> None:
        for sink in self._sinks:
            sink.enter_operator(name, scope_depth, time)

    def exit_operator(self) -> None:
        for sink in self._sinks:
            sink.exit_operator()

    def begin_step(self) -> None:
        for sink in self._sinks:
            sink.begin_step()

    def end_step(self) -> None:
        for sink in self._sinks:
            sink.end_step()

    def record(self, worker, units, key=None) -> None:
        for sink in self._sinks:
            sink.record(worker, units, key)


@contextmanager
def attached(dataflow, sink: Optional[TraceSink]):
    """Temporarily attach ``sink`` to a live dataflow (per-epoch tracing).

    Resident dataflows outlive any one run or request; whoever wants an
    epoch traced attaches a sink around its ``step`` and detaches it
    afterwards, so every other epoch pays the zero-overhead ``is None``
    path. A sink the dataflow already carries (the shadow sanitizer's)
    keeps observing alongside. With ``sink=None`` this is a no-op.
    """
    if sink is None:
        yield
        return
    previous = dataflow.tracer
    both = sink if previous is None else _Tee(previous, sink)
    dataflow.tracer = dataflow.meter.tracer = both
    try:
        yield
    finally:
        dataflow.tracer = dataflow.meter.tracer = previous
