"""Work metering: deterministic cost accounting for the engine.

Every operator reports the records it touches, attributed to the worker that
would process them under hash partitioning. The meter aggregates two
quantities:

* ``total_work`` — total records touched (a machine-independent cost).
* ``parallel_time`` — Σ over supersteps of the *maximum* per-worker work in
  that superstep. A superstep is one operator pass at one timestamp, which is
  the unit between which timely workers synchronize. This simulates the
  elapsed time of a W-worker cluster and is what the Figure 10 scalability
  benchmark reports.

The meter is owned by a :class:`repro.differential.dataflow.Dataflow`; it can
be checkpointed cheaply (``snapshot``) so the executor can attribute cost to
individual views of a collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.timely.worker import shard_for


@dataclass(frozen=True)
class WorkSnapshot:
    """Immutable point-in-time reading of a :class:`WorkMeter`."""

    total_work: int
    parallel_time: int
    supersteps: int

    def delta(self, later: "WorkSnapshot") -> "WorkSnapshot":
        """Return the work performed between ``self`` and ``later``."""
        return WorkSnapshot(
            total_work=later.total_work - self.total_work,
            parallel_time=later.parallel_time - self.parallel_time,
            supersteps=later.supersteps - self.supersteps,
        )


class WorkMeter:
    """Accumulates per-worker work within supersteps.

    Usage from operators::

        meter.record(key, units)      # inside a superstep
        meter.record(w, units, worker=w)   # pre-sharded loop: shard w's work

    Usage from the driver::

        meter.begin_step()
        ... run one operator pass at one timestamp ...
        meter.end_step()

    A pre-sharded loop that tallied its per-shard units charges them as
    one superstep with ``meter.charge_step(units)``.
    """

    def __init__(self, workers: int = 1, fault_plan=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: Optional :class:`repro.core.resilience.FaultPlan`; the
        #: ``operator`` site fires once per :meth:`record` call, i.e. in
        #: the middle of an operator's apply — the nastiest crash point,
        #: since it leaves the dataflow's traces half-updated.
        self.fault_plan = fault_plan
        #: Optional :class:`repro.observe.tracer.TraceSink`, attached by
        #: :func:`repro.observe.tracer.attached`. The sink only
        #: observes — worker sharding, unit counts, and superstep frames
        #: are computed identically with or without it, so ``total_work``
        #: and ``parallel_time`` are byte-identical either way.
        self.tracer = None
        self.total_work = 0
        self.parallel_time = 0
        self.supersteps = 0
        # Stack of per-worker tallies: one frame per open superstep. A
        # nested frame (an inner loop's pass inside an outer pass) counts
        # its own synchronization; its work does not re-count in the outer
        # frame.
        self._frames: list = []

    def record(self, key: Any, units: int = 1,
               worker: Optional[int] = None) -> None:
        """Attribute ``units`` of work to ``key``'s worker.

        The worker is ``shard_for(key, workers)`` unless the caller has
        already sharded its data and names the ``worker`` (shard index)
        that did the work — the collection-creation loops, where ``key``
        is then only a label for fault contexts and trace spans.
        """
        if units <= 0:
            return
        if self.fault_plan is not None:
            # Fire once per unit, not per call: operators batch their
            # metering (one call for n records), and fault offsets are
            # specified against the unit counter (``at=total_work // 2``
            # style), which must not depend on batch sizes.
            extra = 0
            for _unit in range(units):
                spec = self.fault_plan.fire("operator", context=repr(key))
                if spec is not None and spec.kind == "corrupt":
                    # Cost-model corruption: wildly over-reported work.
                    extra += 999
            units += extra
        self.total_work += units
        if worker is None:
            worker = shard_for(key, self.workers)
        else:
            worker %= self.workers
        if self._frames:
            frame = self._frames[-1]
            frame[worker] = frame.get(worker, 0) + units
        else:
            # Work outside any superstep counts as fully serial.
            self.parallel_time += units
        if self.tracer is not None:
            self.tracer.record(worker, units, key)

    def begin_step(self) -> None:
        """Open a superstep: one data-parallel pass of the dataflow at one
        timestamp (workers synchronize at its end, as in timely)."""
        self._frames.append({})
        if self.tracer is not None:
            self.tracer.begin_step()

    def end_step(self) -> None:
        if not self._frames:
            return
        frame = self._frames.pop()
        if frame:
            self.parallel_time += max(frame.values())
            self.supersteps += 1
        if self.tracer is not None:
            self.tracer.end_step()

    def charge_step(self, units: Sequence[int]) -> None:
        """One superstep of a pre-sharded loop: shard ``w`` did
        ``units[w]`` (and is its own label)."""
        self.begin_step()
        for worker, count in enumerate(units):
            self.record(worker, count, worker=worker)
        self.end_step()

    def snapshot(self) -> WorkSnapshot:
        """Capture current counters (usable for per-view deltas)."""
        return WorkSnapshot(self.total_work, self.parallel_time, self.supersteps)
