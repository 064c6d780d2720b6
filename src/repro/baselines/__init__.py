"""Baseline systems for the paper's §7.5 comparison.

GraphBolt (Mariappan & Vora, EuroSys 2019) is a streaming graph system in
which users write *algorithm-specific maintenance code* (refine/propagate
deltas per algorithm) instead of relying on differential dataflow's
black-box maintenance. The paper reviews published comparisons (§7.5):

* GraphBolt's specialized PageRank maintenance is ~an order of magnitude
  faster than DD's black-box maintenance;
* for SSSP the relationship flips — DD was an order of magnitude faster,
  "for implementation-specific reasons" (deletion handling: specialized
  SSSP maintainers must conservatively invalidate and recompute affected
  regions, while DD retracts precisely).

This package implements GraphBolt-*style* maintainers for both algorithms
so the relative shape can be measured against our engine
(`python -m repro.bench baselines`, which also checks the shape). They
are deliberately faithful to the architectural trade-off: hand-written
delta propagation, no general operator model, per-algorithm code.
"""

from repro.baselines.incremental_pagerank import IncrementalPageRank
from repro.baselines.incremental_sssp import IncrementalSssp

__all__ = ["IncrementalPageRank", "IncrementalSssp"]
