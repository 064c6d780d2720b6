"""Differential-oracle fuzzing for Graphsurge view collections.

The package cross-checks every execution mode of the analytics engine
against plain-Python oracles on randomized view collections, checks the
metamorphic invariants the engine's optimizers promise (worker count,
view order, checkpoint/resume, tracing, static-analyzer stability),
shrinks failures, and writes replayable repro files. See
``docs/verification.md``.
"""

from repro.verify.generator import (
    GeneratedCase,
    generate_case,
    random_churn_collection,
    random_gvdl_collection,
    random_window_collection,
)
from repro.verify.invariants import (
    INVARIANTS,
    Mismatch,
    build_check,
    check_analysis,
    check_checkpoint,
    check_engine,
    check_oracle,
    check_permutation,
    check_sanitize,
    check_tracing,
    check_workers,
)
from repro.verify.sanitize import ShadowSanitizer, attach_shadow
from repro.verify.oracles import (
    ALGORITHMS,
    AlgorithmSpec,
    algorithm_names,
    canonical_diff,
    describe_map_mismatch,
    output_map,
    resolve_algorithms,
)
from repro.verify.replay import (
    REPRO_FORMAT,
    ReproFile,
    load_repro,
    replay_repro,
    write_repro,
)
from repro.verify.runner import FuzzConfig, FuzzReport, run_fuzz
from repro.verify.shrinker import ShrinkResult, shrink

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "FuzzConfig",
    "FuzzReport",
    "GeneratedCase",
    "INVARIANTS",
    "Mismatch",
    "REPRO_FORMAT",
    "ReproFile",
    "ShadowSanitizer",
    "ShrinkResult",
    "algorithm_names",
    "attach_shadow",
    "build_check",
    "canonical_diff",
    "check_analysis",
    "check_checkpoint",
    "check_engine",
    "check_oracle",
    "check_permutation",
    "check_sanitize",
    "check_tracing",
    "check_workers",
    "describe_map_mismatch",
    "generate_case",
    "load_repro",
    "output_map",
    "random_churn_collection",
    "random_gvdl_collection",
    "random_window_collection",
    "replay_repro",
    "resolve_algorithms",
    "run_fuzz",
    "shrink",
    "write_repro",
]
