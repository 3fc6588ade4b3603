PYTHON ?= python

.PHONY: test test-fast bench bench-quick bench-a11 bench-a12 bench-a13 prove-smoke serve-smoke soak-quick recover-quick lint

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests -q

# static desync-safety analysis over the example modules and the
# canonical designs; fails on any error-severity finding
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --all-designs examples/*.py \
		--format sarif --output lint.sarif
	PYTHONPATH=src $(PYTHON) -m repro lint --all-designs examples/*.py

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests -q -m "not slow"

bench:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest . -q -s

# reduced-parameter smoke sweep of the parameterized experiments
# (A3 state-space scaling, F4 buffer estimation, A8 symbolic-image
# ablation).  Every BENCH_QUICK=1 target below writes its artifacts,
# machine-readable BENCH_*.json included, to the git-ignored
# benchmarks/out/quick/, never over the committed full-mode ones
bench-quick:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a3_mc_scaling.py bench_fig4_estimation.py \
		bench_a8_symbolic_image.py -q -s

# batched soak-lane execution benchmark (experiment A11): sequential
# per-lane reactors vs simulate_batch (shared specialized plan + lane
# memo), byte-identity asserted per cell; writes
# benchmarks/out/quick/A11_batched_soak.txt and BENCH_A11_batched_soak.json
bench-a11:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a11_batched_soak.py -q -s

# verification-service benchmark (experiment A12): one mixed 10k-job
# batch (400 in quick mode) through the scheduler at 1/2/4 workers,
# byte-identity vs sequential execution asserted per run, plus a
# warm-cache rerun with a >=90% hit-rate floor; writes
# benchmarks/out/quick/A12_service.txt and BENCH_A12_service.json
bench-a12:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a12_service.py -q -s

# checker-scaling benchmark (experiment A13): the GALS relay chain at
# >=100x the A3/A6 state-space envelope, explicit vs symbolic vs
# assume-guarantee composition with byte-identical verdicts, run cold
# then warm against the persistent store with a >=90% store-served
# floor; writes benchmarks/out/quick/A13_mc_scaling.txt and
# BENCH_A13_mc_scaling.json
bench-a13:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a13_mc_scaling.py -q -s

# static flow-equivalence prover benchmark (experiment A14): corpus
# cross-validation (static PROVEN <=> dynamic Theorem 2 ok), >= 3
# refuted mutants with simulator-replayed witnesses, warm
# prove-certificate rate >= 90%, worker digest identity; wall-time
# pinned inside the bench; writes benchmarks/out/quick/A14_prove.txt and
# BENCH_A14_prove.json
prove-smoke:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a14_prove.py -q -s

# end-to-end service gate: boot a real server on an ephemeral port,
# push a mixed batch over the socket API, assert byte-identity vs
# sequential execution and a fully cache-served warm resubmission
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke

# reduced-horizon fault-injection soak (experiment A7); writes
# benchmarks/out/quick/A7_fault_soak.txt and BENCH_A7_fault_soak.json
soak-quick:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a7_fault_soak.py -q -s

# reduced-rate recovery benchmark (experiment A9): hardened deployment
# under faults + crash, sweep determinism asserted at 1/2/4 workers;
# writes benchmarks/out/quick/A9_recovery.txt and BENCH_A9_recovery.json
recover-quick:
	cd benchmarks && BENCH_QUICK=1 PYTHONPATH=../src $(PYTHON) -m pytest \
		bench_a9_recovery.py -q -s
