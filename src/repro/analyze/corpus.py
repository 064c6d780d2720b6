"""Plan corpora for batch analysis (``make analyze``, the CI lint job).

Two sources of plans:

* every built-in algorithm with deterministic default parameters — the
  analyzer turned loose on our own dataflows as a self-check;
* fuzzer-derived plans: :mod:`repro.verify.generator` cases provide the
  vertex universes from which each algorithm's ``sample_params`` draws
  randomized parameters (sources, k values, vertex pairs), so the corpus
  covers the same parameter space the differential-oracle fuzzer runs.

Everything is seeded: the same seed yields the same corpus.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple


def default_computations(seed: int = 0) -> List[Tuple[str, object]]:
    """One (label, computation) per built-in algorithm.

    Parameters are sampled with a fixed rng over a small vertex universe,
    so parameterized algorithms (bfs source, k-core k, mpsp pairs) get
    concrete, reproducible values.
    """
    from repro.verify.oracles import ALGORITHMS

    rng = random.Random(seed)
    vertices = list(range(8))
    out: List[Tuple[str, object]] = []
    for name in sorted(ALGORITHMS):
        spec = ALGORITHMS[name]
        params = spec.sample_params(rng, vertices)
        out.append((name, spec.computation(params)))
    return out


def generated_computations(seed: int,
                           count: int) -> Iterator[Tuple[str, object]]:
    """``count`` fuzzer-derived (label, computation) plans.

    Case ``i`` generates a collection from seed ``seed + i`` (exercising
    the churn/window/GVDL grammars), takes its vertex universe, and
    samples parameters for one algorithm (rotating through the registry)
    from the same seeded rng — the plans the fuzzer would execute.
    """
    from repro.verify.generator import generate_case
    from repro.verify.oracles import ALGORITHMS

    names = sorted(ALGORITHMS)
    for i in range(count):
        case_seed = seed + i
        case = generate_case(case_seed)
        rng = random.Random(case_seed)
        name = names[i % len(names)]
        spec = ALGORITHMS[name]
        params = spec.sample_params(rng, case.vertices())
        label = f"gen-{case_seed}-{case.kind}-{name}"
        yield label, spec.computation(params)
