# Convenience targets; everything runs against the in-tree sources.
PYTHON ?= python
export PYTHONPATH := src

FUZZ_SEED ?= 7
FUZZ_ITERATIONS ?= 25

.PHONY: test perf-test analyze fuzz fuzz-soak bench bench-parallel paper \
	serve-smoke stream-smoke pack-smoke sanitize-smoke lint-src

test:
	$(PYTHON) -m pytest -x -q

# Regenerate every table and figure of the paper at full scale (about
# 3 minutes on a 2-vCPU VM) and check their shapes; exits 1 naming each
# broken shape. Tier-1 (`make test`) runs the same checks at --quick
# scale. EXPERIMENTS.md / experiments_output.txt archive a full run.
paper:
	$(PYTHON) -m repro.bench all

# The frozen benchmark harness's own tests (the CI perf-tests job): its
# imports of the serve/stream entry points and its traced ≡ facade
# counter check. Not part of tier-1 (testpaths = ["tests"]).
perf-test:
	$(PYTHON) -m pytest perf/tests -q

# Static plan analysis + UDF linting over every built-in algorithm plus
# fuzzer-generated plans, including the shard-safety (concurrency) pass;
# --strict-warnings makes WARNING findings fail the gate too. (The
# stream pass is exercised by the corpus tests instead: scc's nested
# fixed point legitimately warns under GS-M404.)
analyze:
	$(PYTHON) -m repro.cli analyze --seed $(FUZZ_SEED) --generated 25 \
		--concurrency --strict-warnings --json analysis-report.json

# The CI fuzz-smoke configuration: fixed seed, deterministic campaign.
fuzz:
	$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) \
		--iterations $(FUZZ_ITERATIONS)

# Longer soak that keeps going past failures, one repro per mismatch.
fuzz-soak:
	$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) --iterations 200 \
		--keep-going --quiet

bench:
	$(PYTHON) benchmarks/bench_hotpath.py --check BENCH_engine.json

# Backend-equality + speedup gate for the process backend (the CI
# parallel-smoke job). Counters and output digests must be identical
# across backends; the speedup floor is enforced only on machines with
# at least as many cores as workers (advisory otherwise). See
# docs/parallel.md.
bench-parallel:
	$(PYTHON) benchmarks/bench_hotpath.py --compare-backends \
		--workers 4 --scenarios iterate_heavy,collection_run_wcc \
		--min-speedup 2.0

# Boot the real daemon, drive it over HTTP (health, GVDL, cached run,
# mutation, delta recompute), SIGTERM it, and assert a clean drained
# shutdown with a valid session checkpoint. See docs/serving.md.
serve-smoke:
	$(PYTHON) -m repro.serve.smoke

# Gate for the community & scoring pack (the CI pack-smoke job): the
# hand-computed pin tests lock the tie-breaking/normalization/peeling
# rules, then each pack member runs a 25-iteration single-algorithm
# fuzz campaign — which executes the *full* invariant battery every
# iteration, including the streamed-churn `stream` check, so every
# member sees >= 25 seeded cases. See docs/algorithms.md.
pack-smoke:
	$(PYTHON) -m pytest -x -q tests/algorithms/test_pack_pins.py
	for algo in labelprop ppr ktruss score; do \
		$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) \
			--iterations $(FUZZ_ITERATIONS) \
			--algorithms $$algo --quiet || exit 1; \
	done

# Shadow-sanitizer gate (the CI sanitize-smoke job): a clean
# iterate-heavy WCC run under sanitize=True must stay silent with
# byte-identical counters, and a planted inline/process divergence must
# be caught at the offending reduce's exact plan address on the first
# epoch. Driver: src/repro/verify/sanitize_smoke.py. See docs/parallel.md.
sanitize-smoke:
	$(PYTHON) -m repro.verify.sanitize_smoke

# Source lint (the CI lint-src job); requires ruff on PATH. Config lives
# in pyproject.toml [tool.ruff]. Ruff runs only where it is installed (CI
# installs it); the local check is the tier-1 AST rule in
# tests/test_source_lint.py (no unused imports in src/repro, honouring
# `# noqa: F401`), which `make test` runs everywhere.
lint-src:
	ruff check src tests

# Stream a 60-epoch seeded churn source through continuously maintained
# queries on both backends: per-epoch snapshots must equal the plain
# references on the accumulated edges, inline/process must be
# byte-identical, work must scale with the batch (not the graph),
# capture traces stay bounded under compaction, and a journaled stream
# killed mid-way resumes byte-identically. See docs/streaming.md.
stream-smoke:
	$(PYTHON) -m repro.stream.smoke
