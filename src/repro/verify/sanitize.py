"""The cross-backend shadow sanitizer (``sanitize=True`` runs).

The process backend's contract (``docs/parallel.md``) is observational
equivalence: counters, tracer streams, and outputs byte-identical to the
inline backend. The static shard-safety pass (:mod:`repro.analyze.shard`)
predicts violations; this module *detects* them dynamically. A sanitized
run shadow-executes every epoch on an inline twin of the same computation
and diffs the two activity streams superstep by superstep, failing with a
:class:`~repro.errors.SanitizerError` at the **first** divergent
``(operator, timestamp, shard)`` address — the exact kernel whose forked
state went wrong — instead of surfacing as a wrong final answer many
epochs later.

Mechanics: :func:`attach_shadow` hangs a :class:`ShadowSanitizer` off the
primary (process-backend) dataflow. ``Dataflow.step`` invokes
``after_step`` once the epoch quiesces; the sanitizer feeds the same input
differences to the shadow, then compares

* the per-superstep :class:`~repro.observe.tracer.StepRecord` frames —
  the ``op_units`` dicts keyed by ``(operator, timestamp, shard)`` whose
  maxima the meter sums into ``parallel_time`` — and
* the per-epoch diffs of every capture sink (value divergence with equal
  unit counts is invisible to frames; the captures catch it).

Both comparisons read trace sinks, which never feed back into the meter,
so a *clean* sanitized run leaves the primary's ``total_work`` and
``parallel_time`` byte-identical to an unsanitized run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.analyze.plan import PlanWalk
from repro.differential.operators.io import CaptureOp
from repro.errors import SanitizerError
from repro.observe.tracer import StepRecord, TraceSink
from repro.timely.worker import canonical_order_key, shard_for


class ShadowSanitizer:
    """Inline shadow execution + first-divergence frame diffing."""

    def __init__(self, shadow, primary_sink: TraceSink,
                 shadow_sink: TraceSink, paths: Dict[str, List[str]],
                 captures: List[Tuple[CaptureOp, CaptureOp]], workers: int):
        self.shadow = shadow
        self.primary_sink = primary_sink
        self.shadow_sink = shadow_sink
        self._paths = paths
        self._captures = captures
        self._workers = workers
        self._primary_mark = primary_sink.mark()

    # -- address helpers ------------------------------------------------------

    def _address(self, operator_name: str) -> str:
        candidates = self._paths.get(operator_name, ())
        return candidates[0] if len(candidates) == 1 else operator_name

    # -- the per-epoch hook (called by Dataflow.step) -------------------------

    def after_step(self, primary, input_diffs) -> None:
        shadow_start = self.shadow_sink.mark()
        self.shadow.step(input_diffs)
        primary_frames = self.primary_sink.window(self._primary_mark,
                                                 self.primary_sink.mark())
        shadow_frames = self.shadow_sink.window(shadow_start,
                                               self.shadow_sink.mark())
        self._primary_mark += len(primary_frames)
        self._compare_frames(primary_frames, shadow_frames, primary.epoch)
        self._compare_captures(primary.epoch)

    def _compare_frames(self, primary_frames: List[StepRecord],
                        shadow_frames: List[StepRecord],
                        epoch: int) -> None:
        count = max(len(primary_frames), len(shadow_frames))
        empty = StepRecord(index=-1, kind="step", depth=0)
        for index in range(count):
            p = primary_frames[index] if index < len(primary_frames) else \
                empty
            s = shadow_frames[index] if index < len(shadow_frames) else empty
            if p.op_units == s.op_units:
                continue
            span = self._first_divergent_span(p.op_units, s.op_units)
            operator, time, shard = span
            raise SanitizerError(
                self._address(operator), time, shard,
                f"superstep frame {index} of epoch {epoch}: process "
                f"backend metered {p.op_units.get(span, 0)} unit(s), "
                f"inline shadow metered {s.op_units.get(span, 0)}")

    @staticmethod
    def _first_divergent_span(primary: Dict, shadow: Dict
                              ) -> Tuple[str, Any, int]:
        spans = sorted(set(primary) | set(shadow),
                       key=lambda span: (span[1] or (), span[0], span[2]))
        for span in spans:
            if primary.get(span) != shadow.get(span):
                return span
        raise AssertionError("frames differ but no span does")

    def _compare_captures(self, epoch: int) -> None:
        time = (epoch,)
        for primary_cap, shadow_cap in self._captures:
            p_diff = primary_cap.diff_at(time)
            s_diff = shadow_cap.diff_at(time)
            if p_diff == s_diff:
                continue
            records = sorted(set(p_diff) | set(s_diff),
                             key=canonical_order_key)
            rec = next(r for r in records
                       if p_diff.get(r) != s_diff.get(r))
            key = rec[0] if isinstance(rec, tuple) and len(rec) == 2 else rec
            raise SanitizerError(
                self._address(primary_cap.name), time,
                shard_for(key, self._workers),
                f"captured diff for record {rec!r} is "
                f"{p_diff.get(rec, 0)} on the process backend but "
                f"{s_diff.get(rec, 0)} on the inline shadow")

    # -- lifecycle mirrors ----------------------------------------------------

    def compact(self, before_epoch: int) -> None:
        self.shadow.compact(before_epoch)

    def close(self) -> None:
        self.shadow.close()


def attach_shadow(primary, computation) -> ShadowSanitizer:
    """Build an inline shadow of ``computation`` and wire it to ``primary``.

    ``primary`` must be a freshly built (never stepped) dataflow that
    :func:`repro.core.resident.build_plan` made from the same
    ``computation``. The shadow gets its own
    :class:`~repro.timely.meter.WorkMeter` at the same worker count, so
    nothing it does can perturb the primary's counters.
    """
    from repro.core.resident import build_plan

    if primary.epoch != -1:
        raise SanitizerError(
            "(attach)", (), -1,
            "the shadow must attach before the first step so both "
            "backends replay identical histories")
    workers = primary.meter.workers
    shadow, _capture = build_plan(computation, workers=workers)
    shadow_sink = TraceSink(workers)
    shadow.tracer = shadow.meter.tracer = shadow_sink
    # Per-epoch user sinks tee in beside this one (observe.tracer.attached).
    primary_sink = TraceSink(workers)
    primary.tracer = primary.meter.tracer = primary_sink

    walk = PlanWalk(primary)
    paths: Dict[str, List[str]] = {}
    for op in walk.ops:
        paths.setdefault(op.name, []).append(walk.path(op))
    primary_captures = [op for op in walk.ops if isinstance(op, CaptureOp)]
    shadow_captures = sorted(
        (op for ops in shadow._ops_by_scope.values() for op in ops
         if isinstance(op, CaptureOp)), key=lambda op: op.index)
    if len(primary_captures) != len(shadow_captures):
        raise SanitizerError(
            "(attach)", (), -1,
            f"shadow build produced {len(shadow_captures)} capture(s) "
            f"but the primary has {len(primary_captures)}; the "
            f"computation's build is not deterministic")
    sanitizer = ShadowSanitizer(
        shadow, primary_sink, shadow_sink, paths,
        list(zip(primary_captures, shadow_captures)), workers)
    primary.sanitizer = sanitizer
    return sanitizer
