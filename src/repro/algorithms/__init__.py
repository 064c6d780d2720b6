"""The paper's five evaluation computations, plus Bellman-Ford (§2/§5)
and the community & scoring pack (label propagation, personalized
PageRank, k-truss, composite scoring; see docs/algorithms.md).

All are implemented against the :class:`repro.core.computation.GraphComputation`
API as ordinary differential dataflow programs — no algorithm-specific
maintenance logic. :mod:`repro.algorithms.reference` provides plain-Python
implementations used to validate the dataflow results in tests.
"""

from repro.algorithms.bfs import Bfs
from repro.algorithms.bellman_ford import BellmanFord
from repro.algorithms.clustering import ClusteringCoefficient
from repro.algorithms.degrees import MaxDegree, OutDegrees
from repro.algorithms.kcore import KCore
from repro.algorithms.ktruss import KTruss
from repro.algorithms.label_propagation import LabelPropagation
from repro.algorithms.mpsp import Mpsp
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.scc import Scc
from repro.algorithms.scoring import CompositeScore
from repro.algorithms.triangles import Triangles
from repro.algorithms.wcc import Wcc

__all__ = [
    "Bfs",
    "BellmanFord",
    "ClusteringCoefficient",
    "CompositeScore",
    "KCore",
    "KTruss",
    "LabelPropagation",
    "MaxDegree",
    "Mpsp",
    "OutDegrees",
    "PageRank",
    "PersonalizedPageRank",
    "Scc",
    "Triangles",
    "Wcc",
]
