# Convenience targets for the TensorKMC reproduction.

.PHONY: install test bench experiments bench-smoke bench-e2e bench-e2e-selftest fault-suite campaign-suite check examples snapshot

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# The regenerate command of EXPERIMENTS.md: every paper figure/table and
# ablation bench under benchmarks/ (minutes, not seconds).  CI runs it as
# its own step so a red experiment cannot go unnoticed.
experiments:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -q

# Fast kernel regression check: times 500 parallel events at two box sizes.
# Writes BENCH_kernel.json; fails if per-event cost scales with N.
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_kernel_smoke.py

# The end-to-end + per-layer benchmark BENCHMARK.json declares: all four CLI
# workloads interleaved, five full repeats each plus one traced repeat,
# results file under benchmarks/e2e/out/ (see benchmarks/e2e/README.md for
# the parent-vs-change recipe a performance claim needs).  Minutes, not
# seconds — not part of `make check`.
bench-e2e:
	python3 -m benchmarks.e2e --seed 0

# Self-test of that harness at 1/40 budgets (< 30 s): span nesting, metric
# catalogue, correctness checks.  Measures nothing; CI runs it so a change
# that breaks the benchmark's hooks into the program is caught on the PR.
bench-e2e-selftest:
	PYTHONPATH=src python3 -m pytest -q benchmarks/e2e/test_harness.py

# Resilience smoke benchmark: checkpoint save/load cost + bit-exact resume
# (writes BENCH_checkpoint.json, exits nonzero if resume diverges).  The
# checkpoint/restart and fault-injection tests are tier-1 files.
fault-suite:
	PYTHONPATH=src python benchmarks/bench_checkpoint_smoke.py

# Campaign smoke benchmark: R=8 shared autobatched evaluation (batches
# wider than R, shared row-cache hit-rate gate; writes BENCH_campaign.json).
# The campaign contract tests and the golden digest table are tier-1 files.
campaign-suite:
	PYTHONPATH=src python benchmarks/bench_campaign_smoke.py

# What CI runs: tier-1 tests (each test runs once, here), the kernel smoke
# benchmark, the e2e harness self-test, and the campaign and checkpoint
# smoke benchmarks.  `make experiments` is a separate CI step.
check:
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) bench-smoke
	$(MAKE) bench-e2e-selftest
	$(MAKE) campaign-suite
	$(MAKE) fault-suite

examples:
	python examples/quickstart.py
	python examples/train_nnp.py --fast
	python examples/cu_precipitation.py --steps 4000
	python examples/parallel_sublattice.py --cycles 16
	python examples/vacancy_diffusion.py
	python examples/ternary_alloy.py --steps 3000
	python examples/aging_campaign.py --steps 2000

snapshot:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
