"""Timely-dataflow substrate: worker sharding and work metering.

The original Graphsurge runs on Timely Dataflow, which scales operators
across workers by partitioning records on a key. This package provides the
equivalent execution-model pieces for the Python engine:

* :func:`repro.timely.worker.shard_for` — deterministic record→worker
  assignment (hash partitioning, as TD's ``exchange`` does).
* :class:`repro.timely.meter.WorkMeter` — per-worker, per-superstep work
  accounting used to compute *simulated parallel time*, the deterministic
  cost metric reported by the benchmark harness (see DESIGN.md §2.3/§2.4).

The dataflow-graph plumbing itself lives in :mod:`repro.differential`, since
differential dataflow is a layer over timely and this reproduction collapses
the two into one engine (the paper's analytics all run through DD anyway).
There is no second, non-differential dataflow engine: the acyclic
collection-creation steps the paper runs "directly on TD" are sharded
loops in :mod:`repro.core` that charge the :class:`WorkMeter` per worker.
"""

from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for, stable_hash

__all__ = ["WorkMeter", "shard_for", "stable_hash"]
