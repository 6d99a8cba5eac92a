PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Per-test wall-clock cap so a hung test fails fast instead of wedging
# the loop. Served by pytest-timeout when installed, else by the
# SIGALRM fallback plugin in conftest.py.
TIMEOUT ?= 300
TIMEOUT_OPTS = --timeout=$(TIMEOUT)

.PHONY: check check-fast test test-fast test-recovery test-detect test-flows perf-smoke lint compile bench perfbench-check

# `test` already runs every suite under tests/ (recovery, detect,
# flows included); the per-marker targets below are for targeted
# loops, not for check.
check: lint test compile

# Fast loop: skip the slow-marked full-figure/table benchmarks.
check-fast: lint test-fast perf-smoke compile

test:
	$(PYTHON) -m pytest -x -q $(TIMEOUT_OPTS)

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow and not perf" $(TIMEOUT_OPTS) tests benchmarks

# The error-control suite by itself (ARQ/FEC/feedback/chaos-feedback).
test-recovery:
	$(PYTHON) -m pytest -x -q -m recovery $(TIMEOUT_OPTS)

# Closed-loop policing-detection validation by itself (also part of
# the plain tier-1 run; the marker exists for a targeted loop).
test-detect:
	$(PYTHON) -m pytest -x -q -m detect $(TIMEOUT_OPTS)

# Multi-flow aggregate / admission suite by itself: lane bit-identity,
# shared-policer semantics, admission frontier (also in tier-1).
test-flows:
	$(PYTHON) -m pytest -x -q -m flows $(TIMEOUT_OPTS)

# Sub-second guard: every paper-corpus spec must stay on the fast
# path and qualify for batching. A regression here silently turns
# sweeps back into event-engine runs (~60x slower), so it rides in
# check-fast.
perf-smoke:
	$(PYTHON) -m pytest -x -q -m perf_smoke $(TIMEOUT_OPTS) tests

# Prefer a real linter when one is installed; fall back to the
# dependency-free AST checker (configured in [tool.repro.lint]).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks tools; \
	elif $(PYTHON) -c "import pyflakes" 2>/dev/null; then \
		$(PYTHON) -m pyflakes src tests benchmarks tools; \
	else \
		$(PYTHON) tools/lint.py; \
	fi

compile:
	$(PYTHON) -m compileall -q src

# Every bench under benchmarks/, the paper's figures and tables and the
# perf gates under benchmarks/perf/, run cold (result cache off, a fresh
# temporary cache dir, pytest-benchmark's timing off). The ledger plugin
# tools/paper_ledger.py writes each bench's wall seconds, layer times
# and recorded values to BENCH_paper.json.
bench:
	@cache="$$(mktemp -d)"; \
	REPRO_BENCH_CACHE=0 REPRO_CACHE_DIR="$$cache" \
	$(PYTHON) -m pytest -q -p tools.paper_ledger benchmarks \
		--benchmark-disable $(TIMEOUT_OPTS); \
	status=$$?; rm -rf "$$cache"; exit $$status

# The benchmark's correctness gate: perfbench's traced pass for every
# workload at each seed (output digests, pinned counts, span rules).
# Prints each run's verdict and CHECK FAILED lines; fails if any run
# is incorrect. Writes only under .perfbench/.
SEEDS ?= 5 11
perfbench-check:
	$(PYTHON) tools/perfbench_check.py $(SEEDS)
