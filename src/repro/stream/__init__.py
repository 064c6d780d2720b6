"""Streaming edge ingestion with continuously maintained queries.

The streaming counterpart of the batch executor: an edge-stream source
produces :class:`StreamBatch` append/retract steps against a live
property graph, and a :class:`StreamEngine` keeps one resident
differential dataflow per registered algorithm, absorbing each batch as
one epoch and emitting per-epoch result deltas. See
``docs/streaming.md`` for semantics and guarantees.
"""

from repro.stream.engine import (
    ContinuousQuery,
    EpochResult,
    StreamEngine,
)
from repro.stream.source import (
    StreamBatch,
    batches_from_collection,
    churn_batches,
    replay_batches,
    sliding_batches,
)

__all__ = [
    "ContinuousQuery",
    "EpochResult",
    "StreamBatch",
    "StreamEngine",
    "batches_from_collection",
    "churn_batches",
    "replay_batches",
    "sliding_batches",
]
