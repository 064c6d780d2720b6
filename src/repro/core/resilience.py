"""Fault-tolerant execution: budgets, fault injection, and run checkpoints.

Graphsurge's analytics executor processes *hundreds* of views in one long
dataflow run (paper §3.2.2, §5); without recoverable state a crash at view
180/200 throws everything away. This module provides the three building
blocks the executor and the dataflow driver use to avoid that:

* :class:`RunBudget` — hard limits on wall time, work units, and fixed-point
  iterations, enforced inside :meth:`Dataflow.step` and the ``iterate``
  operator. A crossed limit raises a structured
  :class:`~repro.errors.BudgetExceededError` instead of hanging.
* :class:`FaultPlan` — deterministic, seedable fault injection at named
  sites (``operator``, ``epoch``, ``checkpoint``) so tests can prove the
  recovery paths actually fire.
* The **run checkpoint journal** — an append-only, per-line checksummed
  JSONL file recording each completed view (result, splitter observation,
  split membership). :func:`load_checkpoint` tolerates a torn final line
  (the crash case) and :class:`CheckpointWriter` rewrites the journal to its
  validated prefix before resuming appends.

See ``docs/resilience.md`` for the file format and the resume algorithm.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.persistence import atomic_write_text
from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    ConfigError,
    InjectedFault,
)
from repro.timely.worker import canonical_order_key

PathLike = Union[str, Path]

CHECKPOINT_VERSION = 1

#: Fault-injection site names understood by the engine.
FAULT_SITES = ("operator", "epoch", "checkpoint")


# -- run budgets -------------------------------------------------------------


class RunBudget:
    """Hard resource limits for one analytics run.

    The budget is *cumulative across dataflows*: a collection run that
    splits (fresh dataflow per scratch view) keeps charging the same
    budget. ``clock`` is injectable so wall-time enforcement is testable
    without sleeping.
    """

    def __init__(self, max_wall_seconds: Optional[float] = None,
                 max_work: Optional[int] = None,
                 max_iterations: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        for name, value in (("max_wall_seconds", max_wall_seconds),
                            ("max_work", max_work),
                            ("max_iterations", max_iterations)):
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        self.max_wall_seconds = max_wall_seconds
        self.max_work = max_work
        self.max_iterations = max_iterations
        self._clock = clock
        self._started: Optional[float] = None
        self.work_spent = 0

    def start(self) -> None:
        """Begin the wall-time window (idempotent)."""
        if self._started is None:
            self._started = self._clock()

    @property
    def wall_spent(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def charge(self, work_units: int, site: str = "") -> None:
        """Account ``work_units`` and enforce the work and wall limits."""
        self.work_spent += work_units
        if self.max_work is not None and self.work_spent > self.max_work:
            raise BudgetExceededError(
                "work", self.work_spent, self.max_work, site)
        self.check_wall(site)

    def check_wall(self, site: str = "") -> None:
        if self.max_wall_seconds is None:
            return
        spent = self.wall_spent
        if spent > self.max_wall_seconds:
            raise BudgetExceededError(
                "wall_seconds", round(spent, 3), self.max_wall_seconds, site)

    def check_iterations(self, iteration: int, site: str = "") -> None:
        """Enforce the fixed-point iteration cap (used by ``iterate``)."""
        if self.max_iterations is not None and iteration > self.max_iterations:
            raise BudgetExceededError(
                "iterations", iteration, self.max_iterations, site)


# -- fault injection ---------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire at specific invocations of a named site.

    ``fires`` lists 0-based invocation indices of ``site`` (counted over
    the plan's lifetime, across dataflow restarts) at which the fault
    triggers. ``kind`` is ``"raise"`` (raise :class:`InjectedFault`) or
    ``"corrupt"`` (the site applies a site-specific corruption: the work
    meter inflates the recorded units, the checkpoint writer mangles the
    line's checksum, other sites ignore it).
    """

    site: str
    fires: Tuple[int, ...]
    kind: str = "raise"

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}")
        if self.kind not in ("raise", "corrupt"):
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        object.__setattr__(self, "fires", tuple(sorted(set(self.fires))))


class FaultPlan:
    """A deterministic schedule of injected faults.

    Threaded through the work meter, the dataflow driver, and the
    checkpoint writer. Each call to :meth:`fire` increments the site's
    invocation counter; when the counter matches a planned index the fault
    triggers. Plans are reusable only once — counters are not reset.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: List[FaultSpec] = list(specs)
        self._counters: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self.fired: List[Tuple[str, int, str]] = []

    @classmethod
    def single(cls, site: str, at: int, kind: str = "raise") -> "FaultPlan":
        """Plan one fault at invocation ``at`` of ``site``."""
        return cls([FaultSpec(site, (at,), kind)])

    def fire(self, site: str, context: str = "") -> Optional[FaultSpec]:
        """Advance ``site``'s counter; trigger a planned fault if due.

        Raise-kind faults raise :class:`InjectedFault`; corrupt-kind faults
        are returned to the caller, which applies the site-specific
        corruption. Returns ``None`` when nothing fires.
        """
        invocation = self._counters[site]
        self._counters[site] = invocation + 1
        for spec in self.specs:
            if spec.site == site and invocation in spec.fires:
                self.fired.append((site, invocation, spec.kind))
                if spec.kind == "raise":
                    raise InjectedFault(site, invocation, context)
                return spec
        return None


# -- retry policy ------------------------------------------------------------


@dataclass
class RetryPolicy:
    """Bounded per-view retries with exponential backoff and jitter.

    The executor gives the view's planned strategy ``max_retries`` retries
    (each on a freshly rebuilt dataflow); if a differential view keeps
    failing it *degrades* to a from-scratch run of just that view, which
    again gets ``max_retries`` retries. The serving layer reuses the same
    policy for per-request recompute retries.

    The base delay grows exponentially (``backoff_seconds`` scaled by
    ``backoff_factor`` per further retry, capped by ``max_delay_seconds``);
    ``jitter_seconds`` adds a uniformly drawn extra delay from a private
    RNG seeded with ``jitter_seed`` — two policies constructed with the
    same seed produce the *same* delay sequence, so backoff behaviour is
    exactly reproducible in tests. ``sleep`` and the RNG are injectable so
    tests never sleep real wall-clock.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    jitter_seconds: float = 0.0
    jitter_seed: int = 0
    max_delay_seconds: Optional[float] = None
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.jitter_seconds < 0:
            raise ConfigError(
                f"jitter_seconds must be >= 0, got {self.jitter_seconds}")
        if self.max_delay_seconds is not None and self.max_delay_seconds <= 0:
            raise ConfigError(
                f"max_delay_seconds must be positive, got "
                f"{self.max_delay_seconds}")
        self._rng = random.Random(self.jitter_seed)

    def base_delay(self, retry_number: int) -> float:
        """Deterministic exponential component before jitter (1-based)."""
        if retry_number <= 1 or self.backoff_factor <= 0:
            return self.backoff_seconds
        return self.backoff_seconds * self.backoff_factor ** (retry_number - 1)

    def delay_before(self, retry_number: int) -> float:
        """Full delay before the ``retry_number``-th retry (1-based).

        Draws from the policy's private seeded RNG when jitter is
        configured, so consecutive calls advance the jitter sequence
        deterministically.
        """
        delay = self.base_delay(retry_number)
        if self.jitter_seconds > 0:
            delay += self._rng.uniform(0.0, self.jitter_seconds)
        if self.max_delay_seconds is not None:
            delay = min(delay, self.max_delay_seconds)
        return delay

    def pause(self, retry_number: int) -> None:
        delay = self.delay_before(retry_number)
        if delay > 0:
            self.sleep(delay)


# -- record / diff encoding --------------------------------------------------
#
# Dataflow records are nested tuples of JSON scalars ((vertex, value),
# (src, (dst, w)), ...). JSON has no tuple, so tuples are boxed as
# {"t": [...]} — unambiguous because plain dicts never appear in records.


def encode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"t": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"l": [encode_value(item) for item in value]}
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "t" in value:
            return tuple(decode_value(item) for item in value["t"])
        if "l" in value:
            return [decode_value(item) for item in value["l"]]
        raise ValueError(f"unknown encoded value {value!r}")
    return value


def encode_diff(diff: Optional[Dict[Any, int]]) -> Optional[list]:
    if diff is None:
        return None
    return [[encode_value(rec), mult] for rec, mult in diff.items()]


def decode_diff(encoded: Optional[list]) -> Optional[Dict[Any, int]]:
    if encoded is None:
        return None
    return {decode_value(rec): int(mult) for rec, mult in encoded}


def render_output(output: Dict[Any, int]) -> List[List[Any]]:
    """JSON-safe, deterministically ordered ``[record, multiplicity]``.

    Ordered by the canonical record order, not ``repr``: records that
    compare equal across numeric spellings (``3`` vs ``3.0``, which
    ``stable_hash`` canonicalizes) must render in the same position no
    matter which spelling a run's dict representative holds.
    """
    return [[encode_value(record), mult]
            for record, mult in sorted(
                output.items(),
                key=lambda item: canonical_order_key(item[0]))]


# -- the checkpoint journal --------------------------------------------------


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def collection_fingerprint(collection) -> str:
    """A cheap identity for a materialized collection.

    Covers the name, view names, and per-view sizes — enough to reject
    resuming a checkpoint against a different (or re-ordered) collection
    without hashing every edge.
    """
    basis = _canonical({
        "name": collection.name,
        "view_names": list(collection.view_names),
        "view_sizes": list(collection.view_sizes),
        "diff_sizes": list(collection.diff_sizes),
    })
    return _digest(basis)


@dataclass
class CheckpointState:
    """Validated contents of a run checkpoint journal."""

    path: str
    header: dict
    views: List[dict]
    #: True when trailing lines failed to parse or checksum (torn write);
    #: the valid prefix is still usable and resume rewrites the file to it.
    truncated: bool = False

    @property
    def completed_views(self) -> int:
        return len(self.views)

    @property
    def last_view_name(self) -> Optional[str]:
        return self.views[-1]["view_name"] if self.views else None


def load_checkpoint(path: PathLike) -> Optional[CheckpointState]:
    """Read and verify a checkpoint journal.

    Returns ``None`` when the file does not exist (a run that died before
    its first write). Stops at the first corrupt or torn line and marks the
    state ``truncated`` — everything before it is checksummed and safe.
    Raises :class:`CheckpointError` when even the header is unusable or the
    surviving records are not a contiguous prefix of views.
    """
    path = Path(path)
    if not path.exists():
        return None
    header: Optional[dict] = None
    views: List[dict] = []
    truncated = False
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                envelope = json.loads(line)
                record = envelope["record"]
                if envelope["sha256"] != _digest(_canonical(record)):
                    raise ValueError("checksum mismatch")
            except (ValueError, KeyError, TypeError):
                truncated = True
                break
            if record.get("type") == "header":
                if header is not None:
                    raise CheckpointError(
                        f"duplicate checkpoint header in {path}")
                header = record
            elif record.get("type") == "view":
                views.append(record)
            else:
                raise CheckpointError(
                    f"unknown checkpoint record type "
                    f"{record.get('type')!r} in {path}")
    if header is None:
        if truncated or not views:
            # Nothing trustworthy at all: treat as no checkpoint.
            return None
        raise CheckpointError(f"checkpoint {path} has no header")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r} "
            f"in {path}")
    for expected, record in enumerate(views):
        if record.get("index") != expected:
            raise CheckpointError(
                f"checkpoint {path} is not a contiguous prefix: expected "
                f"view {expected}, found {record.get('index')!r}")
    return CheckpointState(str(path), header, views, truncated)


class CheckpointWriter:
    """Appends checksummed records to a run checkpoint journal.

    Every record is one line ``{"sha256": ..., "record": ...}``; the hash
    covers the canonical JSON of the record so torn or bit-flipped lines
    are detected on load. Lines are flushed eagerly — a killed process
    loses at most the line being written.
    """

    def __init__(self, path: PathLike, fault_plan: Optional[FaultPlan] = None):
        self.path = Path(path)
        self.fault_plan = fault_plan
        self._handle = None

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def fresh(cls, path: PathLike, header: dict,
              fault_plan: Optional[FaultPlan] = None) -> "CheckpointWriter":
        """Start a new journal, replacing any previous file atomically."""
        writer = cls(path, fault_plan)
        header = dict(header, type="header", version=CHECKPOINT_VERSION)
        writer.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(writer.path, writer._line_for(header))
        writer._handle = writer.path.open("a", encoding="utf-8")
        return writer

    @classmethod
    def resume(cls, path: PathLike, state: CheckpointState,
               fault_plan: Optional[FaultPlan] = None) -> "CheckpointWriter":
        """Continue an existing journal.

        Rewrites the file to its validated prefix first (dropping a torn
        tail), so appended records always follow intact lines.
        """
        writer = cls(path, fault_plan)
        atomic_write_text(writer.path, "".join(
            writer._line_for(record)
            for record in [state.header, *state.views]))
        writer._handle = writer.path.open("a", encoding="utf-8")
        return writer

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- writing -------------------------------------------------------------

    def _line_for(self, record: dict) -> str:
        return json.dumps(
            {"sha256": _digest(_canonical(record)), "record": record}) + "\n"

    def append_view(self, record: dict) -> None:
        """Append one completed-view record (the crash-durable unit)."""
        if self._handle is None:
            raise CheckpointError(f"checkpoint writer for {self.path} is "
                                  f"closed")
        record = dict(record, type="view")
        line = self._line_for(record)
        if self.fault_plan is not None:
            try:
                spec = self.fault_plan.fire(
                    "checkpoint", context=str(self.path))
            except InjectedFault:
                # Simulate a torn write: half the line lands on disk and
                # the process dies mid-append.
                cut = max(1, len(line) // 2)
                self._handle.write(line[:cut])
                self._handle.flush()
                raise
            if spec is not None and spec.kind == "corrupt":
                # Mangle the checksum: the line lands on disk but fails
                # verification, exactly like a bit flip.
                line = line.replace('"sha256": "', '"sha256": "00', 1)
        self._handle.write(line)
        self._handle.flush()


__all__ = [
    "CHECKPOINT_VERSION",
    "FAULT_SITES",
    "CheckpointState",
    "CheckpointWriter",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "RunBudget",
    "collection_fingerprint",
    "decode_diff",
    "decode_value",
    "encode_diff",
    "encode_value",
    "load_checkpoint",
]
