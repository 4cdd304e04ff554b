# Developer entry points.  `make check` is the tier-1 gate: lint (when
# ruff is available) plus the unit/integration test suite.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test test-fast test-slowest bench bench-smoke bench-core serving

check: lint test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

# Skip the slow (model-training) tests for a quick local loop.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Where does the suite's time go?  Top 15 slowest test phases.  Set
# PYTEST_MAX_TEST_SECONDS (as CI does) to fail any single test that
# exceeds the budget — the runaway-test gate lives in tests/conftest.py.
test-slowest:
	$(PYTHON) -m pytest -q --durations=15

bench:
	$(PYTHON) -m pytest benchmarks -q

# Reduced-scale batching/serving/core/store benches (seconds, not
# minutes) — the CI gate for the BENCH_*.json emission path.  The
# validator then checks every emitted artifact parses and carries a
# payload.
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_batching.py benchmarks/bench_serving.py benchmarks/bench_parallel_speedup.py benchmarks/bench_store_streaming.py benchmarks/bench_topk_recall.py benchmarks/bench_early_exit.py benchmarks/bench_cluster.py benchmarks/bench_docqa.py -q
	$(PYTHON) benchmarks/validate_artifacts.py

# Full-scale core-engine trajectory (serial vs process backend, float64
# vs float32) + artifact validation.  On a >= 4-CPU host this enforces
# the multicore acceptance gates; below that BENCH_core.json records
# an explicit parallel_gate.skipped_reason.
bench-core:
	$(PYTHON) -m pytest benchmarks/bench_parallel_speedup.py -q
	$(PYTHON) benchmarks/validate_artifacts.py

serving:
	$(PYTHON) -m repro serving
