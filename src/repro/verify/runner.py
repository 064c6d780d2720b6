"""The fuzz loop: generate → execute everywhere → cross-check → shrink.

Per iteration the runner generates one seeded case, runs **every**
selected algorithm under **every** :class:`ExecutionMode` against its
oracle, then runs the metamorphic battery (engine identities per epoch,
worker invariance, backend invariance, view-order permutation,
checkpoint/kill/resume, tracing on/off, static-analyzer stability,
streaming equivalence, shadow sanitizer) for one rotating algorithm.
The first violated check — or the first exception a check lets escape
— is shrunk to a minimal collection and written as a replayable repro
file that also records the plan's analyzer findings.

Deterministic end to end: ``FuzzConfig(seed=...)`` fixes the case
stream, every sampled parameter, the kill sites, and the permutation
seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.executor import ExecutionMode
from repro.verify.generator import GeneratedCase, generate_case
from repro.verify.invariants import Mismatch, build_check
from repro.verify.oracles import AlgorithmSpec, resolve_algorithms
from repro.verify.replay import ReproFile, write_repro
from repro.verify.shrinker import shrink


@dataclass
class FuzzConfig:
    """Knobs for one fuzz run; everything derives from ``seed``."""

    seed: int = 0
    iterations: int = 20
    #: Algorithm names (or comma-separated string); ``None`` = all.
    algorithms: Optional[Sequence[str]] = None
    #: Where a failure's shrunk repro is written.
    repro_out: str = "fuzz-repro.json"
    #: Restrict generation grammars (``churn``/``window``/``gvdl``).
    kinds: Optional[Sequence[str]] = None
    #: Abort on the first mismatch (CI) or keep fuzzing (soak).
    stop_on_mismatch: bool = True


@dataclass
class FuzzReport:
    """What a fuzz run covered and what, if anything, it broke."""

    seed: int
    iterations: int = 0
    cases_by_kind: Dict[str, int] = field(default_factory=dict)
    oracle_checks: int = 0
    invariant_checks: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    shrunk_views: Optional[int] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        kinds = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(self.cases_by_kind.items()))
        status = "OK" if self.ok else \
            f"{len(self.mismatches)} MISMATCH(ES)"
        return (f"fuzz seed {self.seed}: {self.iterations} iteration(s) "
                f"[{kinds}], {self.oracle_checks} oracle checks, "
                f"{self.invariant_checks} invariant checks in "
                f"{self.wall_seconds:.1f}s — {status}")


def run_fuzz(config: FuzzConfig,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Execute the configured fuzz campaign; never raises on mismatches.

    Every check runs through :func:`build_check`, so an exception a
    check lets escape is reported (and shrunk) as that check's mismatch.
    """
    rng = random.Random(config.seed)
    specs = resolve_algorithms(config.algorithms)
    report = FuzzReport(seed=config.seed)
    started = time.perf_counter()

    def say(message: str) -> None:
        if log is not None:
            log(message)

    for iteration in range(config.iterations):
        case_seed = rng.randrange(2 ** 32)
        case = generate_case(case_seed, kinds=config.kinds)
        report.iterations += 1
        report.cases_by_kind[case.kind] = \
            report.cases_by_kind.get(case.kind, 0) + 1
        vertices = case.vertices()
        say(f"iter {iteration + 1}/{config.iterations}: {case.kind} case "
            f"(seed {case_seed}, {case.collection.num_views} views, "
            f"{case.collection.total_diffs} diffs)")

        failed = False
        for spec in specs:
            params = spec.sample_params(rng, vertices)
            for mode in ExecutionMode:
                check = build_check(spec, params, {"invariant": "oracle",
                                                   "mode": mode.value})
                mismatch = check(case.collection)
                report.oracle_checks += 1
                if mismatch is not None:
                    failed = True
                    _report_failure(config, report, case, spec, params,
                                    mismatch, say)
                    break
            if failed:
                break
        if failed and config.stop_on_mismatch:
            break

        if not failed:
            spec = specs[iteration % len(specs)]
            params = spec.sample_params(rng, vertices)
            battery = (
                {"invariant": "engine"},
                {"invariant": "workers"},
                {"invariant": "backend"},
                {"invariant": "permutation",
                 "perm_seed": rng.randrange(2 ** 16)},
                {"invariant": "checkpoint",
                 "kill_at": rng.randrange(
                     1, max(2, case.collection.num_views))},
                {"invariant": "tracing"},
                {"invariant": "analysis",
                 "perm_seed": rng.randrange(2 ** 16)},
                {"invariant": "stream"},
                {"invariant": "sanitize"},
            )
            for check in battery:
                mismatch = build_check(spec, params, check)(case.collection)
                report.invariant_checks += 1
                if mismatch is not None:
                    failed = True
                    _report_failure(config, report, case, spec, params,
                                    mismatch, say)
                    break
            if failed and config.stop_on_mismatch:
                break

    report.wall_seconds = time.perf_counter() - started
    say(report.summary())
    return report


def _report_failure(config: FuzzConfig, report: FuzzReport,
                    case: GeneratedCase, spec: AlgorithmSpec, params: dict,
                    mismatch: Mismatch,
                    say: Callable[[str], None]) -> None:
    """Shrink the violation and persist a replayable repro file."""
    say(f"FAILED {mismatch}")
    check = build_check(spec, params, mismatch.check)
    result = shrink(case.collection, check)
    say(f"shrunk to {result.collection.num_views} view(s) / "
        f"{result.collection.total_diffs} diff(s) after "
        f"{result.checks_run} check(s)")
    try:
        # Record the failing plan's static-analysis verdict alongside the
        # repro: an ERROR/WARNING finding on a plan whose run just
        # diverged is the first place to look.
        from repro.analyze import analyze_computation

        analysis = analyze_computation(spec.computation(params)).to_dict()
    except Exception as error:  # pragma: no cover - diagnostics must not
        analysis = {"error": f"{type(error).__name__}: {error}"}  # block repro
    repro = ReproFile(
        seed=case.seed,
        kind=case.kind,
        algorithm=spec.name,
        params=params,
        check=mismatch.check,
        detail=result.mismatch.detail,
        collection=result.collection,
        gvdl_text=case.gvdl_text,
        shrink_info={
            "checks_run": result.checks_run,
            "views_dropped": result.views_dropped,
            "diffs_dropped": result.diffs_dropped,
            "original_views": case.collection.num_views,
        },
        analysis=analysis,
    )
    path = write_repro(config.repro_out, repro)
    say(f"wrote repro file {path}")
    report.mismatches.append(result.mismatch)
    report.repro_paths.append(str(path))
    report.shrunk_views = result.collection.num_views
